// wb_perfbench — the end-to-end host-time benchmark of wasmbench.
//
// Drives one workload (study, fuzz or apps; see workloads.h) as a closed
// loop from a single process: each worker thread starts its next op only
// when the previous one has completed. Every op is timed on the host's
// steady clock through the same public entry points the tools use, and
// checked against a reference the code under test did not produce in
// this run (the committed goldens, or run_case's native IR reference).
//
//   wb_perfbench --workload=study --seed=1 --seconds=10 --trace=0
//
// --trace=0 prints the end-to-end metrics. --trace=1 first runs the
// workload untraced for half the time, then runs the same op sequence
// again with a host-time span around every call into a layer, and prints
// the per-layer metrics plus the tracing overhead. The last line of
// stdout is always one JSON object: {"correct", "attempted", "failed",
// "metrics"}. A run report (every op, its virtual outputs and per-layer
// call counts) and, when traced, a Perfetto-loadable span file are
// written under --out-dir.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "support/json.h"
#include "support/stats.h"
#include "workloads.h"

#ifndef WB_PERFBENCH_BUILD_TYPE
#define WB_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef WB_PERFBENCH_COMPILER
#define WB_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;
namespace json = wb::support::json;

// Baselines must come from an optimised, assert-free build.
#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupRepetitions = 5;
/// An untraced run completes at least this many ops, so p90 has at
/// least ten samples beyond it.
constexpr size_t kMinOps = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path root = ".";
  std::filesystem::path out_dir = ".bench_build/perfbench/out";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "wb_perfbench: %s\n"
               "usage: wb_perfbench --workload=study|fuzz|apps --seed=N --seconds=S\n"
               "                    --trace=0|1 [--root=DIR] [--out-dir=DIR]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error("missing value for " + arg);
    }
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = value;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 0);
      if (*end) usage_error("bad --seed " + value);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end || !(a.seconds > 0)) usage_error("bad --seconds " + value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage_error("bad --trace " + value);
      a.trace = value == "1";
    } else if (arg == "--root") {
      a.root = value;
    } else if (arg == "--out-dir") {
      a.out_dir = value;
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  return a;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return wb::support::quantile_sorted(xs, 0.5);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- phases

struct OpRecord {
  uint64_t index = 0;
  double ms = 0;
  OpResult result;
};

struct Phase {
  std::vector<OpRecord> ops;  ///< sorted by op index
  double seconds = 0;         ///< first op start to last op end
  std::vector<std::unique_ptr<SpanBuffer>> spans;  ///< one per worker, traced only

  [[nodiscard]] size_t failed() const {
    return static_cast<size_t>(std::count_if(
        ops.begin(), ops.end(), [](const OpRecord& o) { return !o.result.ok; }));
  }
  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(ops.size()) / seconds;
  }
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    for (const OpRecord& o : ops) out.push_back(o.ms);
    std::sort(out.begin(), out.end());
    return out;
  }
  [[nodiscard]] std::vector<const SpanBuffer*> buffers() const {
    std::vector<const SpanBuffer*> out;
    for (const auto& b : spans) out.push_back(b.get());
    return out;
  }
};

/// Runs ops 0, 1, 2, ... as a closed loop on the workload's workers until
/// at least `seconds` have passed and `min_ops` ops completed, stopping
/// only at a round boundary.
Phase run_phase(const Workload& w, double seconds, size_t min_ops, bool traced) {
  Phase phase;
  const unsigned workers = w.workers();
  for (unsigned t = 0; t < workers && traced; ++t) {
    phase.spans.push_back(std::make_unique<SpanBuffer>(t + 1));
  }
  std::mutex mu;  // guards next, stopped and phase.ops
  uint64_t next = 0;
  bool stopped = false;
  const int64_t start = now_ns();
  const auto deadline = start + static_cast<int64_t>(seconds * 1e9);

  const auto worker = [&](unsigned t) {
    SpanBuffer* spans = traced ? phase.spans[t].get() : nullptr;
    for (;;) {
      uint64_t index = 0;
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (!stopped && next > 0 && next % w.round_size() == 0 && now_ns() >= deadline &&
            next >= min_ops) {
          stopped = true;
        }
        if (stopped) return;
        index = next++;
      }
      OpRecord rec;
      rec.index = index;
      if (spans) spans->set_op(index);
      const int64_t t0 = now_ns();
      try {
        const Scope op(spans, Layer::Op);
        rec.result = w.run(index, spans);
      } catch (const std::exception& e) {
        // An error is a failed op, never a skipped one.
        rec.result = OpResult{};
        rec.result.ok = false;
        rec.result.error = std::string("exception: ") + e.what();
      }
      rec.ms = static_cast<double>(now_ns() - t0) / 1e6;
      const std::lock_guard<std::mutex> lock(mu);
      phase.ops.push_back(std::move(rec));
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < workers; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (std::thread& th : threads) th.join();
  phase.seconds = static_cast<double>(now_ns() - start) / 1e9;
  std::sort(phase.ops.begin(), phase.ops.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.index < b.index; });
  return phase;
}

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::vector<Metric> end_to_end(double setup_s, const Phase& p) {
  const std::vector<double> lat = p.latencies();
  return {
      {"setup_s", "s", setup_s},
      {"ops_per_s", "1/s", p.ops_per_s()},
      {"op_ms_p50", "ms", wb::support::quantile_sorted(lat, 0.5)},
      {"op_ms_p90", "ms", wb::support::quantile_sorted(lat, 0.9)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
}

/// Layers reported as mean self time per traced op (ms).
constexpr Layer kTimedLayers[] = {
    Layer::CoreBuild,     Layer::EnvWasmPage,   Layer::EnvJsPage,
    Layer::WasmInstantiate, Layer::WasmExec,    Layer::WasmValidate,
    Layer::WasmDecode,    Layer::WasmEncode,    Layer::JsCompile,
    Layer::JsExec,        Layer::MinicCompile,  Layer::IrPipeline,
    Layer::IrExec,        Layer::BackendWasm,   Layer::BackendJs,
    Layer::BackendNative, Layer::FuzzGen,       Layer::FuzzCase,
    Layer::FuzzMutation,  Layer::ReplayRecord,  Layer::ReplaySerialize,
    Layer::ReplayParse,   Layer::ReplayVerify,  Layer::SnapWarm,
    Layer::SnapCapture,   Layer::SnapSerialize, Layer::SnapParse,
};

std::vector<Metric> per_layer(const Phase& untraced, const Phase& traced,
                              const LayerTotals& t) {
  const auto n = static_cast<double>(traced.ops.size());
  const auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  const auto self_ms = [&](Layer l) { return ms(t.self_ns[static_cast<size_t>(l)]); };
  const auto rate = [](double amount, double seconds) {
    return seconds > 0 ? amount / seconds : 0.0;
  };
  uint64_t wasm_vops = 0, js_vops = 0, minic_bytes = 0, trace_bytes = 0, trace_events = 0,
           tried = 0, rejected = 0;
  for (const OpRecord& o : traced.ops) {
    wasm_vops += o.result.wasm_vops;
    js_vops += o.result.js_vops;
    minic_bytes += o.result.minic_bytes;
    trace_bytes += o.result.trace_bytes;
    trace_events += o.result.trace_events;
    tried += o.result.mutants_tried;
    rejected += o.result.mutants_rejected;
  }
  // Execution time of a page is the page minus its (separately timed)
  // instantiation or script compile; without pages (fuzz) it is the
  // directly wrapped VM runs.
  const bool pages = t.calls[static_cast<size_t>(Layer::EnvWasmPage)] +
                         t.calls[static_cast<size_t>(Layer::EnvJsPage)] >
                     0;
  const double wasm_exec_s =
      (pages ? self_ms(Layer::EnvWasmPage) - self_ms(Layer::WasmInstantiate)
             : self_ms(Layer::WasmExec)) / 1e3;
  const double js_exec_s =
      (pages ? self_ms(Layer::EnvJsPage) - self_ms(Layer::JsCompile)
             : self_ms(Layer::JsExec)) / 1e3;
  uint64_t spans = 0;
  for (size_t l = 0; l < kLayerCount; ++l) {
    if (static_cast<Layer>(l) != Layer::Op) spans += t.calls[l];
  }
  const double op_total = ms(t.total_ns[static_cast<size_t>(Layer::Op)]);

  std::vector<Metric> out;
  for (const Layer l : kTimedLayers) {
    out.push_back({std::string(layer_name(l)) + "_ms", "ms", self_ms(l) / n});
  }
  out.push_back({"fuzz.reenact_ms", "ms",
                 ms(t.total_ns[static_cast<size_t>(Layer::FuzzReenact)]) / n});
  out.push_back({"wasm.exec_mops_per_s", "Mops/s",
                 rate(static_cast<double>(wasm_vops) / 1e6, wasm_exec_s)});
  out.push_back({"js.exec_mops_per_s", "Mops/s",
                 rate(static_cast<double>(js_vops) / 1e6, js_exec_s)});
  out.push_back({"minic.src_kb_per_s", "kB/s",
                 rate(static_cast<double>(minic_bytes) / 1e3,
                      self_ms(Layer::MinicCompile) / 1e3)});
  out.push_back({"replay.trace_mb_per_s", "MB/s",
                 rate(2.0 * static_cast<double>(trace_bytes) / 1e6,
                      (self_ms(Layer::ReplaySerialize) + self_ms(Layer::ReplayParse)) /
                          1e3)});
  out.push_back({"wasm.mutants_rejected_ratio", "ratio",
                 tried ? static_cast<double>(rejected) / static_cast<double>(tried) : 0.0});
  out.push_back({"count.spans_per_op", "count", static_cast<double>(spans) / n});
  out.push_back({"count.wasm_vops_per_op", "count", static_cast<double>(wasm_vops) / n});
  out.push_back({"count.js_vops_per_op", "count", static_cast<double>(js_vops) / n});
  out.push_back({"count.trace_bytes_per_op", "count", static_cast<double>(trace_bytes) / n});
  out.push_back({"count.trace_events_per_op", "count",
                 static_cast<double>(trace_events) / n});
  out.push_back({"trace.layer_coverage_pct", "%",
                 op_total > 0 ? 100.0 * (1.0 - self_ms(Layer::Op) / op_total) : 0.0});
  out.push_back({"trace.untraced_ops_per_s", "1/s", untraced.ops_per_s()});
  out.push_back({"trace.traced_ops_per_s", "1/s", traced.ops_per_s()});
  out.push_back({"trace.overhead_pct", "%",
                 100.0 * (untraced.ops_per_s() / traced.ops_per_s() - 1.0)});
  return out;
}

// ---------------------------------------------------------------- output

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

json::Value ops_json(const Workload& w, const Phase& p) {
  const std::vector<std::array<uint32_t, kLayerCount>> calls =
      p.spans.empty() ? std::vector<std::array<uint32_t, kLayerCount>>{}
                      : calls_per_op(p.buffers(), p.ops.size());
  json::Array out;
  for (const OpRecord& o : p.ops) {
    json::Object e;
    e.emplace_back("index", static_cast<int64_t>(o.index));
    e.emplace_back("name", w.op_name(o.index));
    e.emplace_back("ok", o.result.ok);
    if (!o.result.ok) e.emplace_back("error", o.result.error);
    e.emplace_back("ms", o.ms);
    e.emplace_back("virt", o.result.virt);
    e.emplace_back("wasm_vops", o.result.wasm_vops);
    e.emplace_back("js_vops", o.result.js_vops);
    e.emplace_back("trace_bytes", o.result.trace_bytes);
    e.emplace_back("trace_events", o.result.trace_events);
    if (!calls.empty()) {
      json::Object c;
      for (size_t l = 0; l < kLayerCount; ++l) {
        if (calls[o.index][l]) {
          c.emplace_back(layer_name(static_cast<Layer>(l)),
                         static_cast<int64_t>(calls[o.index][l]));
        }
      }
      e.emplace_back("calls", std::move(c));
    }
    out.emplace_back(std::move(e));
  }
  return out;
}

json::Value phase_json(const Workload& w, const Phase& p) {
  const std::vector<double> lat = p.latencies();
  json::Object o;
  o.emplace_back("ops", static_cast<int64_t>(p.ops.size()));
  o.emplace_back("failed", static_cast<int64_t>(p.failed()));
  o.emplace_back("seconds", p.seconds);
  o.emplace_back("ops_per_s", p.ops_per_s());
  o.emplace_back("op_ms_p50", wb::support::quantile_sorted(lat, 0.5));
  o.emplace_back("op_ms_p90", wb::support::quantile_sorted(lat, 0.9));
  o.emplace_back("op_records", ops_json(w, p));
  return o;
}

json::Value metrics_json(const std::vector<Metric>& ms) {
  json::Object o;
  for (const Metric& m : ms) {
    json::Object v;
    v.emplace_back("value", m.value);
    v.emplace_back("unit", m.unit);
    o.emplace_back(m.name, std::move(v));
  }
  return o;
}

void print_result_line(size_t attempted, size_t failed, const std::vector<Metric>& ms) {
  std::string line = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    line += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) +
            ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void print_failures(const Workload& w, const Phase& p) {
  size_t shown = 0;
  for (const OpRecord& o : p.ops) {
    if (o.result.ok || shown++ >= 5) continue;
    std::printf("FAILED op %llu (%s): %s\n", static_cast<unsigned long long>(o.index),
                w.op_name(o.index).c_str(), o.result.error.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  (void)now_ns();  // start the epoch at process start
  const Args args = parse_args(argc, argv);
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "wb_perfbench: refusing to measure an unoptimised build (build type %s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 WB_PERFBENCH_BUILD_TYPE);
    return 3;
  }

  // Set-up, repeated; the last instance is the one measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_samples;
  try {
    for (int i = 0; i < kSetupRepetitions; ++i) {
      workload.reset();
      const int64_t t0 = now_ns();
      workload = make_workload(args.workload, args.seed, args.root);
      setup_samples.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wb_perfbench: set-up failed: %s\n", e.what());
    return 2;
  }
  const double setup_s = median(setup_samples);
  const Workload& w = *workload;

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("wb_perfbench %s seed=%llu seconds=%g trace=%d | build=%s compiler=%s "
              "nproc=%u workers=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, WB_PERFBENCH_BUILD_TYPE,
              WB_PERFBENCH_COMPILER, nproc, w.workers());

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = (args.out_dir / (args.workload + "-seed" +
                                            std::to_string(args.seed) + "-trace" +
                                            (args.trace ? "1" : "0")))
                               .string();
  json::Object report;
  report.emplace_back("workload", args.workload);
  report.emplace_back("seed", static_cast<int64_t>(args.seed));
  report.emplace_back("seconds", args.seconds);
  report.emplace_back("trace", args.trace);
  report.emplace_back("build_type", WB_PERFBENCH_BUILD_TYPE);
  report.emplace_back("compiler", WB_PERFBENCH_COMPILER);
  report.emplace_back("nproc", static_cast<int64_t>(nproc));
  report.emplace_back("workers", static_cast<int64_t>(w.workers()));
  json::Array setup_json;
  for (const double s : setup_samples) setup_json.emplace_back(s);
  report.emplace_back("setup_s_samples", std::move(setup_json));

  std::vector<Metric> metrics;
  size_t attempted = 0, failed = 0;
  if (!args.trace) {
    const Phase p = run_phase(w, args.seconds, kMinOps, /*traced=*/false);
    attempted = p.ops.size();
    failed = p.failed();
    metrics = end_to_end(setup_s, p);
    for (const Metric& m : metrics) {
      std::printf("%-12s %14.4f %-4s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("fail_ratio   %14.4f      (%zu failed of %zu ops; %.1f s)\n",
                static_cast<double>(failed) / static_cast<double>(attempted), failed,
                attempted, p.seconds);
    print_failures(w, p);
    report.emplace_back("untraced", phase_json(w, p));
  } else {
    const Phase untraced = run_phase(w, args.seconds / 2, 0, /*traced=*/false);
    const Phase traced = run_phase(w, args.seconds / 2, 0, /*traced=*/true);
    attempted = untraced.ops.size() + traced.ops.size();
    failed = untraced.failed() + traced.failed();
    const LayerTotals totals = summarize(traced.buffers());
    metrics = per_layer(untraced, traced, totals);

    std::printf("%-22s %8s %12s %12s\n", "layer", "calls/op", "self ms/op", "total ms/op");
    const auto n = static_cast<double>(traced.ops.size());
    for (size_t l = 0; l < kLayerCount; ++l) {
      if (!totals.calls[l]) continue;
      std::printf("%-22s %8.2f %12.4f %12.4f\n", layer_name(static_cast<Layer>(l)),
                  static_cast<double>(totals.calls[l]) / n,
                  static_cast<double>(totals.self_ns[l]) / 1e6 / n,
                  static_cast<double>(totals.total_ns[l]) / 1e6 / n);
    }
    for (const Metric& m : metrics) {
      if (m.name.rfind("trace.", 0) == 0 || m.name.rfind("count.", 0) == 0) {
        std::printf("%-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    double case_ms = 0, reenact_ms = 0;
    for (const OpRecord& o : traced.ops) {
      case_ms += o.result.case_ms;
      reenact_ms += o.result.reenact_ms;
    }
    if (case_ms > 0) {
      std::printf("fuzz re-enactment %.3f ms/case beside run_case %.3f ms/case (%.2fx)\n",
                  reenact_ms / n, case_ms / n, reenact_ms / case_ms);
    }
    std::printf("tracing overhead: %.1f%% (untraced %.3f ops/s on %zu ops, traced %.3f "
                "ops/s on %zu ops)\n",
                100.0 * (untraced.ops_per_s() / traced.ops_per_s() - 1.0),
                untraced.ops_per_s(), untraced.ops.size(), traced.ops_per_s(),
                traced.ops.size());
    std::printf("fail_ratio %.4f (%zu failed of %zu ops)\n",
                static_cast<double>(failed) / static_cast<double>(attempted), failed,
                attempted);
    print_failures(w, untraced);
    print_failures(w, traced);

    const std::string span_path = stem + ".spans.json";
    if (!write_trace_json(span_path, traced.buffers())) {
      std::fprintf(stderr, "wb_perfbench: cannot write %s\n", span_path.c_str());
      return 1;
    }
    std::printf("spans: %s\n", span_path.c_str());
    json::Object layers;
    for (size_t l = 0; l < kLayerCount; ++l) {
      json::Object e;
      e.emplace_back("calls", static_cast<int64_t>(totals.calls[l]));
      e.emplace_back("total_ms", static_cast<double>(totals.total_ns[l]) / 1e6);
      e.emplace_back("self_ms", static_cast<double>(totals.self_ns[l]) / 1e6);
      layers.emplace_back(layer_name(static_cast<Layer>(l)), std::move(e));
    }
    report.emplace_back("spans_file", span_path);
    report.emplace_back("layers", std::move(layers));
    report.emplace_back("untraced", phase_json(w, untraced));
    report.emplace_back("traced", phase_json(w, traced));
  }
  report.emplace_back("metrics", metrics_json(metrics));
  report.emplace_back("attempted", static_cast<int64_t>(attempted));
  report.emplace_back("failed", static_cast<int64_t>(failed));

  const std::string report_path = stem + ".report.json";
  {
    std::ofstream out(report_path, std::ios::binary);
    out << json::Value(std::move(report)).dump(1) << "\n";
    if (!out) {
      std::fprintf(stderr, "wb_perfbench: cannot write %s\n", report_path.c_str());
      return 1;
    }
  }
  std::printf("report: %s\n", report_path.c_str());
  print_result_line(attempted, failed, metrics);
  return 0;
}
