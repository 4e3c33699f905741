#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
      .count();
}

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "op",            "core.build",      "env.wasm_page",  "env.js_page",
      "wasm.instantiate", "wasm.exec",    "wasm.validate",  "wasm.decode",
      "wasm.encode",   "js.compile",      "js.exec",        "minic.compile",
      "ir.pipeline",   "ir.exec",         "backend.wasm",   "backend.js",
      "backend.native", "fuzz.gen",       "fuzz.case",      "fuzz.mutation",
      "fuzz.reenact",  "replay.record",   "replay.serialize", "replay.parse",
      "replay.verify", "snap.warm",       "snap.capture",   "snap.serialize",
      "snap.parse",
  };
  return kNames[static_cast<size_t>(layer)];
}

int32_t SpanBuffer::open(Layer layer) {
  Span s;
  s.layer = layer;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(index);
  spans_.back().start_ns = now_ns();  // last, so bookkeeping is not timed
  return index;
}

void SpanBuffer::close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

LayerTotals summarize(const std::vector<const SpanBuffer*>& buffers) {
  LayerTotals t;
  for (const SpanBuffer* b : buffers) {
    const std::vector<Span>& spans = b->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto l = static_cast<size_t>(spans[i].layer);
      const int64_t dur = spans[i].end_ns - spans[i].start_ns;
      ++t.calls[l];
      t.total_ns[l] += dur;
      t.self_ns[l] += dur - child_ns[i];
    }
  }
  return t;
}

std::vector<std::array<uint32_t, kLayerCount>> calls_per_op(
    const std::vector<const SpanBuffer*>& buffers, size_t op_count) {
  std::vector<std::array<uint32_t, kLayerCount>> out(op_count);
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      if (s.op < op_count) ++out[s.op][static_cast<size_t>(s.layer)];
    }
  }
  return out;
}

bool write_trace_json(const std::string& path,
                      const std::vector<const SpanBuffer*>& buffers) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
         "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"wb_perfbench host time\"}}";
  char line[320];
  for (const SpanBuffer* b : buffers) {
    std::snprintf(line, sizeof line,
                  ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"worker %u\"}}",
                  b->tid(), b->tid());
    out << line;
    const std::vector<Span>& spans = b->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(line, sizeof line,
                    ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"span\":%zu,"
                    "\"parent\":%d}}",
                    b->tid(), layer_name(s.layer), static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.op), i, s.parent);
      out << line;
    }
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
