// Host-time spans for the traced benchmark run. Every span is recorded
// from the benchmark's own files around one call into a layer's public
// function: name (the layer), start, end, parent span and op id. Spans
// stay in memory, one buffer per worker thread, and are summarised and
// written out as Perfetto-loadable trace_event JSON when the run ends.
//
// Untraced runs pass a null buffer; a Scope over a null buffer reads no
// clock and records nothing.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide epoch (first call).
int64_t now_ns();

/// One layer boundary the benchmark can wrap. `Op` is the root span of
/// one operation; every other span nests inside one.
enum class Layer : uint8_t {
  Op,
  CoreBuild,        // core::build
  EnvWasmPage,      // env::BrowserEnv::run_wasm
  EnvJsPage,        // env::BrowserEnv::run_js
  WasmInstantiate,  // wasm::Instance constructor (quickens the code)
  WasmExec,         // wasm::Instance::invoke(__init, main)
  WasmValidate,     // wasm::validate
  WasmDecode,       // wasm::decode
  WasmEncode,       // wasm::encode
  JsCompile,        // js::compile_script
  JsExec,           // js::Vm run_top_level + call_function(main)
  MinicCompile,     // minic::compile
  IrPipeline,       // ir::run_pipeline
  IrExec,           // ir::Executor::run
  BackendWasm,      // backend::compile_to_wasm
  BackendJs,        // backend::compile_to_js
  BackendNative,    // backend::compile_to_native
  FuzzGen,          // fuzz::generate_program
  FuzzCase,         // fuzz::run_case
  FuzzMutation,     // fuzz::run_mutation_oracle
  FuzzReenact,      // the benchmark's re-enactment of one run_case
  ReplayRecord,     // replay::record_wasm / record_js
  ReplaySerialize,  // replay::serialize
  ReplayParse,      // replay::parse
  ReplayVerify,     // replay::verify
  SnapWarm,         // __init / top level run before a snapshot
  SnapCapture,      // snap::snapshot_wasm / snapshot_js
  SnapSerialize,    // snap::serialize
  SnapParse,        // snap::parse_wasm / parse_js
  kCount,
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::Op;
  int32_t parent = -1;  ///< index into the same buffer, -1 for a root
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans of one worker thread. Not shared between threads.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t tid) : tid_(tid) { spans_.reserve(1 << 16); }

  [[nodiscard]] uint32_t tid() const { return tid_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// The op id stamped on every span opened from now on.
  void set_op(uint64_t op) { op_ = op; }

  int32_t open(Layer layer);
  void close(int32_t index);

 private:
  uint32_t tid_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; a no-op over a null buffer.
class Scope {
 public:
  Scope(SpanBuffer* buffer, Layer layer)
      : buffer_(buffer), index_(buffer ? buffer->open(layer) : -1) {}
  ~Scope() {
    if (buffer_) buffer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

/// Per-layer totals over a set of spans.
struct LayerTotals {
  std::array<uint64_t, kLayerCount> calls{};
  std::array<int64_t, kLayerCount> total_ns{};  ///< inclusive
  std::array<int64_t, kLayerCount> self_ns{};   ///< minus direct children
};

LayerTotals summarize(const std::vector<const SpanBuffer*>& buffers);

/// Calls per layer, per op id (for the exact-repeat self-test).
std::vector<std::array<uint32_t, kLayerCount>> calls_per_op(
    const std::vector<const SpanBuffer*>& buffers, size_t op_count);

/// Writes every span as a trace_event "X" event (one thread per worker).
/// Returns false if the file cannot be written.
bool write_trace_json(const std::string& path,
                      const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench
