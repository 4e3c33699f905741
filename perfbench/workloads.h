// The benchmark's three workloads. Each is a deterministic op sequence
// derived from the workload seed during set-up; the libraries see only
// the generated inputs. Ops come in rounds: every round holds the same
// mix of work, and a run stops only at a round boundary, so runs at
// different seeds measure the same mix in a different order or draw.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "spans.h"

namespace perfbench {

/// What one op produced. `virt` is a canonical text of its virtual
/// (deterministic) outputs; it must repeat exactly for a given op.
struct OpResult {
  bool ok = true;
  std::string error;
  std::string virt;
  uint64_t wasm_vops = 0;     ///< virtual ops of the Wasm page(s) / runs
  uint64_t js_vops = 0;       ///< virtual ops of the JS page(s) / runs
  uint64_t minic_bytes = 0;   ///< mini-C source bytes compiled (traced)
  uint64_t trace_bytes = 0;   ///< .wbr3 bytes written (and read back)
  uint64_t trace_events = 0;  ///< boundary events in the recorded trace
  uint64_t mutants_tried = 0;
  uint64_t mutants_rejected = 0;
  double case_ms = 0;         ///< fuzz: run_case wall time
  double reenact_ms = 0;      ///< fuzz: re-enactment wall time (traced)
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual size_t round_size() const = 0;
  [[nodiscard]] virtual unsigned workers() const { return 1; }
  /// Stable name of op `index` (its input), for the run report.
  [[nodiscard]] virtual std::string op_name(uint64_t index) const = 0;
  /// Runs op `index`. With a non-null `spans`, wraps every layer call in
  /// a span. Must be callable concurrently for different indices.
  virtual OpResult run(uint64_t index, SpanBuffer* spans) const = 0;
};

/// Set-up: loads goldens and corpora under `root` and derives the op
/// sequence from `seed`. Throws std::runtime_error on a missing input.
std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed,
                                        const std::filesystem::path& root);

}  // namespace perfbench
