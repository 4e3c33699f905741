#include "workloads.h"

#include <array>
#include <cctype>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "attr/cause.h"
#include "backend/js_backend.h"
#include "backend/native_backend.h"
#include "backend/wasm_backend.h"
#include "benchmarks/realworld.h"
#include "benchmarks/registry.h"
#include "core/study.h"
#include "env/env.h"
#include "fuzz/gen.h"
#include "fuzz/harness.h"
#include "ir/exec.h"
#include "ir/passes.h"
#include "js/engine.h"
#include "js/heap.h"
#include "js/interp.h"
#include "js/quicken.h"
#include "minic/minic.h"
#include "replay/record.h"
#include "replay/replay.h"
#include "replay/trace.h"
#include "snap/snap.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/sha256.h"
#include "wasm/codec.h"
#include "wasm/interp.h"
#include "wasm/jit/jit.h"
#include "wasm/quicken.h"
#include "wasm/validator.h"

namespace perfbench {

namespace {

using namespace wb;
namespace json = support::json;

/// Rounds of op plan derived at set-up. A run that outlasts them wraps
/// around to round 0; at the default --seconds a run makes one to six.
constexpr size_t kPlannedRounds = 64;

[[noreturn]] void setup_error(const std::string& msg) { throw std::runtime_error(msg); }

json::Value load_json(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) setup_error("cannot read " + path.string());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string error;
  std::optional<json::Value> v = json::parse(ss.str(), error);
  if (!v) setup_error(path.string() + " is not valid JSON: " + error);
  return std::move(*v);
}

const json::Value& field(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (!v) setup_error(std::string("golden entry without \"") + key + "\"");
  return *v;
}

template <typename T>
void shuffle(std::vector<T>& v, support::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
}

std::string sha256_of(std::string_view s) {
  return support::sha256_hex(
      std::span(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

/// Field-by-field check of one page against its golden object; returns
/// the first mismatch, or "".
std::string page_mismatch(const char* what, const env::PageMetrics& m,
                          const std::string& sha, const json::Value& golden) {
  if (!m.ok) return std::string(what) + " page failed: " + m.error;
  const std::pair<const char*, int64_t> ints[] = {
      {"cost_ps", static_cast<int64_t>(m.cost_ps)},
      {"memory_bytes", static_cast<int64_t>(m.memory_bytes)},
      {"code_size", static_cast<int64_t>(m.code_size)},
      {"result", static_cast<int64_t>(m.result)},
      {"ops", static_cast<int64_t>(m.ops)},
      {"boundary_crossings", static_cast<int64_t>(m.boundary_crossings)},
  };
  for (const auto& [key, got] : ints) {
    const json::Value* g = golden.find(key);
    if (!g || !g->is_int() || g->as_int() != got) {
      return std::string(what) + "." + key + " " + std::to_string(got) + " != golden " +
             (g ? g->dump() : "(missing)");
    }
  }
  const json::Value* g = golden.find("sha256");
  if (!g || !g->is_string() || g->as_string() != sha) {
    return std::string(what) + ".sha256 differs from golden";
  }
  return {};
}

std::string page_virt(const env::PageMetrics& m) {
  return std::to_string(m.cost_ps) + "," + std::to_string(m.memory_bytes) + "," +
         std::to_string(m.code_size) + "," + std::to_string(m.result) + "," +
         std::to_string(m.ops) + "," + std::to_string(m.boundary_crossings);
}

// ------------------------------------------------------------------ study

/// A seeded draw of cells from the committed study matrix: every round is
/// the whole matrix in a seeded order. Host time per cell depends on the
/// browser profile (tier-up thresholds) and level as well as on the
/// kernel, so only whole-matrix rounds give every seed the same mix.
class StudyWorkload final : public Workload {
 public:
  StudyWorkload(uint64_t seed, const std::filesystem::path& root)
      : golden_(load_json(root / "goldens" / "study.json")) {
    const auto& benches = benchmarks::all_benchmarks();
    const json::Value& cells = field(golden_, "cells");
    if (!cells.is_array()) setup_error("study golden: cells is not an array");
    // index[bench][size][level][browser]
    std::map<std::string, const json::Value*> by_key;
    for (const json::Value& c : cells.as_array()) {
      if (field(c, "platform").as_string() != "Desktop") continue;
      by_key[field(c, "benchmark").as_string() + '|' + field(c, "size").as_string() +
             '|' + field(c, "level").as_string() + '|' +
             field(c, "browser").as_string()] = &c;
    }
    std::vector<Cell> matrix;
    for (const core::BenchSource& b : benches) {
      for (const core::InputSize size : kSizes) {
        for (uint8_t l = 0; l < kLevels.size(); ++l) {
          for (uint8_t br = 0; br < kBrowsers.size(); ++br) {
            const auto it = by_key.find(b.name + '|' + core::to_string(size) + '|' +
                                        ir::to_string(kLevels[l]) + '|' +
                                        env::to_string(kBrowsers[br]));
            if (it == by_key.end()) {
              setup_error("study golden has no cell for " + b.name + " " +
                          core::to_string(size) + " " + ir::to_string(kLevels[l]) +
                          " " + env::to_string(kBrowsers[br]));
            }
            if (field(*it->second, "status").as_string() != "ok") {
              setup_error("study golden cell for " + b.name + " is not ok");
            }
            matrix.push_back(Cell{&b, size, l, br, it->second});
          }
        }
      }
    }

    support::Rng rng(seed);
    plan_.reserve(kPlannedRounds * matrix.size());
    for (size_t r = 0; r < kPlannedRounds; ++r) {
      shuffle(matrix, rng);
      plan_.insert(plan_.end(), matrix.begin(), matrix.end());
    }
    round_size_ = matrix.size();
  }

  [[nodiscard]] size_t round_size() const override { return round_size_; }
  [[nodiscard]] unsigned workers() const override { return 2; }

  [[nodiscard]] std::string op_name(uint64_t index) const override {
    const Cell& c = cell(index);
    return c.bench->name + " " + core::to_string(c.size) + " " +
           ir::to_string(kLevels[c.level]) + " " + env::to_string(kBrowsers[c.browser]);
  }

  OpResult run(uint64_t index, SpanBuffer* spans) const override {
    const Cell& c = cell(index);
    const env::BrowserEnv& browser = envs_[c.browser];
    OpResult r;
    core::BuildResult build;
    {
      const Scope s(spans, Layer::CoreBuild);
      build = core::build(*c.bench, c.size, kLevels[c.level]);
    }
    if (!build.ok) {
      r.ok = false;
      r.error = "build failed: " + build.error;
      return r;
    }
    if (spans) {
      // Re-enacted alone so the page's execution share can be separated
      // from instantiation (which quickens the module).
      const Scope s(spans, Layer::WasmInstantiate);
      const wasm::Instance inst(build.wasm.module,
                                backend::make_import_bindings(build.wasm));
    }
    env::PageMetrics wasm_page;
    {
      const Scope s(spans, Layer::EnvWasmPage);
      wasm_page = browser.run_wasm(build.wasm);
    }
    if (spans) {
      const Scope s(spans, Layer::JsCompile);
      std::string error;
      (void)js::compile_script(build.js_source, error);
    }
    env::PageMetrics js_page;
    {
      const Scope s(spans, Layer::EnvJsPage);
      js_page = browser.run_js(build.js_source);
    }
    r.wasm_vops = wasm_page.ops;
    r.js_vops = js_page.ops;
    const std::string wasm_sha = support::sha256_hex(build.wasm.binary);
    const std::string js_sha = sha256_of(build.js_source);
    r.virt = page_virt(wasm_page) + "," + wasm_sha + "|" + page_virt(js_page) + "," + js_sha;
    std::string mismatch = page_mismatch("wasm", wasm_page, wasm_sha, field(*c.golden, "wasm"));
    if (mismatch.empty()) {
      mismatch = page_mismatch("js", js_page, js_sha, field(*c.golden, "js"));
    }
    if (!mismatch.empty()) {
      r.ok = false;
      r.error = mismatch;
    }
    return r;
  }

 private:
  static constexpr std::array<core::InputSize, 2> kSizes = {core::InputSize::S,
                                                            core::InputSize::M};
  static constexpr std::array<ir::OptLevel, 2> kLevels = {ir::OptLevel::O2,
                                                          ir::OptLevel::Ofast};
  static constexpr std::array<env::Browser, 3> kBrowsers = {
      env::Browser::Chrome, env::Browser::Firefox, env::Browser::Edge};

  struct Cell {
    const core::BenchSource* bench = nullptr;
    core::InputSize size = core::InputSize::S;
    uint8_t level = 0;
    uint8_t browser = 0;
    const json::Value* golden = nullptr;
  };

  [[nodiscard]] const Cell& cell(uint64_t index) const {
    return plan_[index % plan_.size()];
  }

  json::Value golden_;  ///< owns the cells `plan_` points into
  size_t round_size_ = 0;
  std::vector<Cell> plan_;
  std::array<env::BrowserEnv, 3> envs_ = {
      env::BrowserEnv(env::Browser::Chrome, env::Platform::Desktop),
      env::BrowserEnv(env::Browser::Firefox, env::Platform::Desktop),
      env::BrowserEnv(env::Browser::Edge, env::Platform::Desktop)};
};

// ------------------------------------------------------------------- fuzz

constexpr std::array<ir::OptLevel, 7> kFuzzLevels = {
    ir::OptLevel::O0, ir::OptLevel::O1,    ir::OptLevel::O2, ir::OptLevel::O3,
    ir::OptLevel::Ofast, ir::OptLevel::Os, ir::OptLevel::Oz};

/// wb_fuzz's defaults: the mutation oracle on every 10th case, 16
/// mutants each, seeded from the case seed.
constexpr uint64_t kMutationEvery = 10;
constexpr int kMutantsPerCase = 16;
constexpr uint64_t kMutationSalt = 0x6d75746174696f6eull;
constexpr uint64_t kFuzzFuel = fuzz::HarnessOptions{}.fuel;
constexpr uint32_t kFuzzPool = 200;

/// fuzz::generate_program cases through fuzz::run_case. The cases are a
/// fixed pool, the first kFuzzPool cases of `wb_fuzz --seed=1` (those the
/// fuzz_smoke gate runs), and a round is the whole pool in a seeded order.
/// Case cost is heavy-tailed (a few programs take 50x the median), so a
/// seeded draw of new programs would give every seed a different mix.
class FuzzWorkload final : public Workload {
 public:
  explicit FuzzWorkload(uint64_t seed) {
    // Derived serially from the master stream, as wb_fuzz does.
    support::Rng master(1);
    case_seeds_.resize(kFuzzPool);
    for (uint64_t& s : case_seeds_) s = master.split().next_u64();
    support::Rng rng(seed);
    std::vector<uint32_t> order(kFuzzPool);
    for (uint32_t i = 0; i < kFuzzPool; ++i) order[i] = i;
    plan_.reserve(kPlannedRounds * kFuzzPool);
    for (size_t r = 0; r < kPlannedRounds; ++r) {
      shuffle(order, rng);
      plan_.insert(plan_.end(), order.begin(), order.end());
    }
  }

  [[nodiscard]] size_t round_size() const override { return kFuzzPool; }

  [[nodiscard]] std::string op_name(uint64_t index) const override {
    char buf[48];
    std::snprintf(buf, sizeof buf, "case %u 0x%016llx", case_index(index),
                  static_cast<unsigned long long>(case_seeds_[case_index(index)]));
    return buf;
  }

  OpResult run(uint64_t index, SpanBuffer* spans) const override {
    const uint32_t case_index = this->case_index(index);
    const uint64_t seed = case_seeds_[case_index];
    OpResult r;
    std::string source;
    {
      const Scope s(spans, Layer::FuzzGen);
      source = fuzz::generate_program(seed);
    }
    fuzz::CaseResult result;
    {
      const int64_t t0 = now_ns();
      const Scope s(spans, Layer::FuzzCase);
      result = fuzz::run_case(source);
      r.case_ms = static_cast<double>(now_ns() - t0) / 1e6;
    }
    std::ostringstream virt;
    virt << "ref=";
    for (size_t v = 0; v < result.reference_values.size(); ++v) {
      virt << (v ? "," : "") << result.reference_values[v];
    }
    if (!result.ok()) {
      r.ok = false;
      r.error = "divergence: " + result.brief();
    }

    if (case_index % kMutationEvery == 0) {
      bool fast_math = false;
      std::optional<ir::Module> m = compile_at(source, ir::OptLevel::O2, spans, fast_math, r);
      backend::WasmArtifact artifact;
      if (m) {
        const Scope s(spans, Layer::BackendWasm);
        backend::WasmOptions opts;
        opts.fast_math = fast_math;
        artifact = backend::compile_to_wasm(std::move(*m), opts);
      }
      if (!m || !artifact.ok()) {
        r.ok = false;
        r.error = "mutation case: -O2 build failed " + artifact.error;
        r.virt = virt.str();
        return r;
      }
      fuzz::MutationOutcome mo;
      {
        const Scope s(spans, Layer::FuzzMutation);
        mo = fuzz::run_mutation_oracle(artifact.binary, seed ^ kMutationSalt,
                                       kMutantsPerCase);
      }
      r.mutants_tried = kMutantsPerCase;
      r.mutants_rejected = static_cast<uint64_t>(mo.decode_rejected + mo.validate_rejected);
      virt << " mutants=" << mo.decode_rejected << "/" << mo.validate_rejected << "/"
           << mo.executed << "/" << mo.skipped;
      if (!mo.ok()) {
        r.ok = false;
        r.error = "mutation oracle: " + mo.error;
      }
    }
    r.virt = virt.str();
    if (spans && r.ok) {
      const int64_t t0 = now_ns();
      {
        const Scope s(spans, Layer::FuzzReenact);
        reenact(source, result.reference_values, spans, r);
      }
      r.reenact_ms = static_cast<double>(now_ns() - t0) / 1e6;
    }
    return r;
  }

 private:
  [[nodiscard]] uint32_t case_index(uint64_t index) const {
    return plan_[index % plan_.size()];
  }

  /// Front end + mid-end at one level, as run_case does per engine.
  static std::optional<ir::Module> compile_at(const std::string& source,
                                              ir::OptLevel level, SpanBuffer* spans,
                                              bool& fast_math, OpResult& r) {
    std::string error;
    std::optional<ir::Module> m;
    {
      const Scope s(spans, Layer::MinicCompile);
      m = minic::compile(source, {}, error);
    }
    r.minic_bytes += source.size();
    if (!m) return std::nullopt;
    const Scope s(spans, Layer::IrPipeline);
    fast_math = ir::run_pipeline(*m, level).fast_math;
    return m;
  }

  /// Re-enacts one run_case through the same public calls, each under its
  /// layer's span, and checks every engine against run_case's reference.
  static void reenact(const std::string& source, const std::vector<int32_t>& refs,
                      SpanBuffer* spans, OpResult& r) {
    const auto fail = [&r](const std::string& what) {
      if (!r.ok) return;
      r.ok = false;
      r.error = "re-enactment: " + what;
    };
    if (refs.size() != kFuzzLevels.size()) return fail("reference count");
    const bool quicken = wasm::quicken_default();
    const bool jit = quicken && wasm::jit::jit_default() && wasm::jit::available();
    const bool js_quicken = js::quicken_default();
    for (size_t li = 0; li < kFuzzLevels.size(); ++li) {
      const ir::OptLevel level = kFuzzLevels[li];
      const int32_t ref = refs[li];
      bool fast_math = false;

      // Native IR execution (the reference).
      std::optional<ir::Module> m = compile_at(source, level, spans, fast_math, r);
      if (!m) return fail("front end");
      backend::NativeArtifact native;
      {
        const Scope s(spans, Layer::BackendNative);
        native = backend::compile_to_native(std::move(*m));
      }
      ir::ExecResult er;
      {
        const Scope s(spans, Layer::IrExec);
        ir::Executor exec(native.module);
        exec.set_fuel(kFuzzFuel);
        er = exec.run("main");
      }
      if (!er.ok || er.as_i32() != ref) return fail("native value");

      // Wasm: backend, the structural oracles, then every tier x engine.
      m = compile_at(source, level, spans, fast_math, r);
      if (!m) return fail("front end");
      backend::WasmArtifact artifact;
      {
        const Scope s(spans, Layer::BackendWasm);
        backend::WasmOptions wopts;
        wopts.fast_math = fast_math;
        artifact = backend::compile_to_wasm(std::move(*m), wopts);
      }
      if (!artifact.ok()) return fail("wasm backend");
      {
        const Scope s(spans, Layer::WasmValidate);
        if (wasm::validate(artifact.module)) return fail("validate");
      }
      std::optional<wasm::Module> decoded;
      {
        const Scope s(spans, Layer::WasmDecode);
        decoded = wasm::decode(artifact.binary);
      }
      if (!decoded) return fail("decode");
      {
        const Scope s(spans, Layer::WasmEncode);
        if (wasm::encode(*decoded) != artifact.binary) return fail("roundtrip");
      }
      struct Engine {
        bool quicken, jit;
      };
      std::vector<Engine> engines = {{quicken, jit}};
      if (jit) engines.push_back({true, false});
      if (quicken) engines.push_back({false, false});
      for (const bool optimizing : {false, true}) {
        for (const Engine& e : engines) {
          std::optional<wasm::Instance> inst;
          {
            const Scope s(spans, Layer::WasmInstantiate);
            inst.emplace(artifact.module, backend::make_import_bindings(artifact));
            inst->set_quicken(e.quicken);
            inst->set_jit(e.jit);
          }
          wasm::TierPolicy policy;
          policy.baseline_enabled = !optimizing;
          policy.optimizing_enabled = optimizing;
          inst->set_tier_policy(policy);
          inst->set_fuel(kFuzzFuel);
          wasm::InvokeResult res;
          {
            const Scope s(spans, Layer::WasmExec);
            res = inst->invoke("__init", {});
            if (res.ok()) res = inst->invoke("main", {});
          }
          r.wasm_vops += inst->stats().ops_executed;
          if (!res.ok() || res.value.as_i32() != ref) return fail("wasm value");
        }
      }

      // JS backend on the JS VM: both tiers, quickened and classic.
      m = compile_at(source, level, spans, fast_math, r);
      if (!m) return fail("front end");
      backend::JsArtifact jsart;
      {
        const Scope s(spans, Layer::BackendJs);
        backend::JsOptions jopts;
        jopts.fast_math = fast_math;
        jsart = backend::compile_to_js(std::move(*m), jopts);
      }
      if (!jsart.ok()) return fail("js backend");
      std::optional<js::ScriptCode> code;
      {
        const Scope s(spans, Layer::JsCompile);
        std::string error;
        code = js::compile_script(jsart.source, error);
      }
      if (!code) return fail("js compile");
      std::vector<std::pair<bool, bool>> js_engines = {{true, js_quicken}};
      if (js_quicken) {
        js_engines.insert(js_engines.end(), {{false, true}, {true, false}, {false, false}});
      }
      for (const auto& [js_jit, js_quick] : js_engines) {
        const Scope s(spans, Layer::JsExec);
        js::Heap heap;
        js::Vm vm(*code, heap);
        vm.set_quicken(js_quick);
        js::JsTierPolicy policy;
        policy.jit_enabled = js_jit;
        vm.set_tier_policy(policy);
        vm.set_fuel(kFuzzFuel);
        bool ok = vm.run_top_level().ok;
        js::Vm::Result res;
        if (ok) res = vm.call_function("main", {});
        r.js_vops += vm.stats().ops_executed;
        ok = ok && res.ok && res.value.is_number() && js::to_int32(res.value.num()) == ref;
        if (!ok) return fail("js value");
      }
    }
  }

  std::vector<uint64_t> case_seeds_;
  std::vector<uint32_t> plan_;
};

// ------------------------------------------------------------------- apps

/// "Heat-3d (math.js)" -> "heat-3d-math-js", the replay corpus's naming.
std::string slugify(const std::string& name) {
  std::string slug;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '-') {
      slug += '-';
    }
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug;
}

/// The 24 replay-corpus programs, recorded in Chrome Desktop, then
/// serialized, parsed back and replayed standalone. Each round is one
/// seeded permutation of the corpus.
class AppsWorkload final : public Workload {
 public:
  AppsWorkload(uint64_t seed, const std::filesystem::path& root)
      : golden_(load_json(root / "goldens" / "replay.json")) {
    // The corpus, enumerated through the same public entry points
    // replay::record_corpus uses.
    for (benchmarks::RealWorldProgram& prog : benchmarks::real_world_programs()) {
      if (!prog.ok) setup_error("real-world program " + prog.name + ": " + prog.error);
      Program p;
      p.name = prog.name;
      p.is_wasm = prog.is_wasm;
      p.artifact = std::move(prog.artifact);
      p.js_source = std::move(prog.js_source);
      p.options = prog.options;
      programs_.push_back(std::move(p));
    }
    for (const benchmarks::ManualJs& mj : benchmarks::manual_js_benchmarks()) {
      Program p;
      p.name = slugify(mj.name);
      p.js_source = mj.source;
      programs_.push_back(std::move(p));
    }
    int with_imports = 0;
    for (const core::BenchSource& bench : benchmarks::all_benchmarks()) {
      if (with_imports >= 2) break;
      core::BuildResult build = core::build(bench, core::InputSize::XS, ir::OptLevel::O2);
      if (!build.ok || build.wasm.imports.empty()) continue;
      ++with_imports;
      Program p;
      p.name = "import-" + bench.name + "-wasm";
      p.is_wasm = true;
      p.artifact = std::move(build.wasm);
      programs_.push_back(std::move(p));
    }

    const json::Value& rows = field(golden_, "rows");
    if (!rows.is_array() || rows.as_array().size() != programs_.size()) {
      setup_error("replay golden does not list the " + std::to_string(programs_.size()) +
                  " corpus programs");
    }
    for (Program& p : programs_) {
      for (const json::Value& row : rows.as_array()) {
        if (field(row, "name").as_string() == p.name) p.golden = &row;
      }
      if (!p.golden) setup_error("replay golden has no row for " + p.name);
    }

    support::Rng rng(seed);
    std::vector<uint32_t> order(programs_.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    plan_.reserve(kPlannedRounds * order.size());
    for (size_t r = 0; r < kPlannedRounds; ++r) {
      shuffle(order, rng);
      plan_.insert(plan_.end(), order.begin(), order.end());
    }
  }

  [[nodiscard]] size_t round_size() const override { return programs_.size(); }

  [[nodiscard]] std::string op_name(uint64_t index) const override {
    return program(index).name;
  }

  OpResult run(uint64_t index, SpanBuffer* spans) const override {
    const Program& p = program(index);
    OpResult r;
    const auto fail = [&r](const std::string& what) {
      r.ok = false;
      r.error = what;
      return r;
    };
    std::string error;
    std::optional<replay::Trace> trace;
    {
      const Scope s(spans, Layer::ReplayRecord);
      trace = p.is_wasm ? replay::record_wasm(p.name, p.artifact, chrome_, p.options, error)
                        : replay::record_js(p.name, p.js_source, chrome_, p.options, error);
    }
    if (!trace) return fail("record: " + error);
    if (spans && !reenact(p, trace->footer, spans, r)) return r;

    std::vector<uint8_t> bytes;
    {
      const Scope s(spans, Layer::ReplaySerialize);
      bytes = replay::serialize(*trace);
    }
    std::optional<replay::Trace> parsed;
    {
      const Scope s(spans, Layer::ReplayParse);
      parsed = replay::parse(bytes, error);
    }
    if (!parsed) return fail("parse: " + error);
    replay::ReplayResult verified;
    {
      const Scope s(spans, Layer::ReplayVerify);
      verified = replay::verify(*parsed);
    }
    if (!verified.ok) return fail("verify: " + verified.error);

    r.trace_bytes = bytes.size();
    r.trace_events = parsed->events.size();
    const replay::TraceFooter& f = parsed->footer;
    // One page's virtual ops; a traced op's re-enacted page ran the same.
    (p.is_wasm ? r.wasm_vops : r.js_vops) += f.ops;
    const std::string digest = replay::digest_hex(*parsed);
    r.virt = digest + " " + std::to_string(f.result) + "," + std::to_string(f.cost_ps) +
             "," + std::to_string(f.ops);

    const json::Value& g = *p.golden;
    if (field(g, "trace_digest").as_string() != digest) return fail("trace_digest differs");
    if (field(g, "trace_bytes").as_int() != static_cast<int64_t>(r.trace_bytes)) {
      return fail("trace_bytes differs");
    }
    if (field(g, "events").as_int() != static_cast<int64_t>(r.trace_events)) {
      return fail("events differs");
    }
    const json::Value& gm = field(g, "metrics");
    const std::pair<const char*, int64_t> ints[] = {
        {"result", f.result},
        {"cost_ps", static_cast<int64_t>(f.cost_ps)},
        {"memory_bytes", static_cast<int64_t>(f.memory_bytes)},
        {"code_size", static_cast<int64_t>(f.code_size)},
        {"ops", static_cast<int64_t>(f.ops)},
        {"boundary_crossings", static_cast<int64_t>(f.boundary_crossings)},
    };
    for (const auto& [key, got] : ints) {
      if (field(gm, key).as_int() != got) return fail(std::string("metrics.") + key + " differs");
    }
    const json::Value* lanes = gm.find("attr_ps");
    for (size_t c = 0; c < attr::kCauseCount; ++c) {
      const json::Value* lane =
          lanes ? lanes->find(attr::to_string(static_cast<attr::Cause>(c))) : nullptr;
      const int64_t want = lane ? lane->as_int() : 0;
      if (want != static_cast<int64_t>(f.attr_ps[c])) {
        return fail(std::string("metrics.attr_ps.") +
                    attr::to_string(static_cast<attr::Cause>(c)) + " differs");
      }
    }
    return r;
  }

 private:
  struct Program {
    std::string name;
    bool is_wasm = false;
    backend::WasmArtifact artifact;
    std::string js_source;
    env::RunOptions options;
    const json::Value* golden = nullptr;
  };

  [[nodiscard]] const Program& program(uint64_t index) const {
    return programs_[plan_[index % plan_.size()]];
  }

  static bool same_as_footer(const env::PageMetrics& m, const replay::TraceFooter& f) {
    return m.ok && m.result == f.result && m.cost_ps == f.cost_ps &&
           m.memory_bytes == f.memory_bytes && m.code_size == f.code_size &&
           m.ops == f.ops && m.boundary_crossings == f.boundary_crossings;
  }

  /// Traced only: re-enacts the recorded page without a recorder (which
  /// must report the same metrics), and the snapshot codec verify runs,
  /// each under its layer's span.
  bool reenact(const Program& p, const replay::TraceFooter& footer, SpanBuffer* spans,
               OpResult& r) const {
    const auto fail = [&r](const std::string& what) {
      r.ok = false;
      r.error = "re-enactment: " + what;
      return false;
    };
    std::string error;
    if (p.is_wasm) {
      std::optional<wasm::Instance> inst;
      {
        const Scope s(spans, Layer::WasmInstantiate);
        inst.emplace(p.artifact.module, backend::make_import_bindings(p.artifact));
      }
      env::PageMetrics page;
      {
        const Scope s(spans, Layer::EnvWasmPage);
        page = chrome_.run_wasm(p.artifact, p.options);
      }
      if (!same_as_footer(page, footer)) return fail("page differs from its recording");
      {
        const Scope s(spans, Layer::SnapWarm);
        if (!inst->invoke("__init", {}).ok()) return fail("__init trapped");
      }
      snap::WasmSnapshot captured;
      {
        const Scope s(spans, Layer::SnapCapture);
        captured = snap::snapshot_wasm(*inst, p.name);
      }
      std::vector<uint8_t> bytes;
      {
        const Scope s(spans, Layer::SnapSerialize);
        bytes = snap::serialize(captured);
      }
      std::optional<snap::WasmSnapshot> parsed;
      {
        const Scope s(spans, Layer::SnapParse);
        parsed = snap::parse_wasm(bytes, error);
      }
      if (!parsed || parsed->sha256 != captured.sha256) return fail("snapshot codec");
      return true;
    }
    std::optional<js::ScriptCode> code;
    {
      const Scope s(spans, Layer::JsCompile);
      code = js::compile_script(p.js_source, error);
    }
    if (!code) return fail("js compile: " + error);
    env::PageMetrics page;
    {
      const Scope s(spans, Layer::EnvJsPage);
      page = chrome_.run_js(p.js_source, p.options);
    }
    if (!same_as_footer(page, footer)) return fail("page differs from its recording");
    js::Heap heap;
    js::Vm vm(*code, heap);
    {
      const Scope s(spans, Layer::SnapWarm);
      if (!vm.run_top_level().ok) return fail("top level failed");
    }
    snap::JsSnapshot captured;
    {
      const Scope s(spans, Layer::SnapCapture);
      captured = snap::snapshot_js(vm, p.name);
    }
    std::vector<uint8_t> bytes;
    {
      const Scope s(spans, Layer::SnapSerialize);
      bytes = snap::serialize(captured);
    }
    std::optional<snap::JsSnapshot> parsed;
    {
      const Scope s(spans, Layer::SnapParse);
      parsed = snap::parse_js(bytes, error);
    }
    if (!parsed || parsed->sha256 != captured.sha256) return fail("snapshot codec");
    return true;
  }

  json::Value golden_;  ///< owns the rows the programs point into
  std::vector<Program> programs_;
  std::vector<uint32_t> plan_;
  env::BrowserEnv chrome_{env::Browser::Chrome, env::Platform::Desktop};
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed,
                                        const std::filesystem::path& root) {
  if (name == "study") return std::make_unique<StudyWorkload>(seed, root);
  if (name == "fuzz") return std::make_unique<FuzzWorkload>(seed);
  if (name == "apps") return std::make_unique<AppsWorkload>(seed, root);
  throw std::runtime_error("unknown workload: " + name + " (study, fuzz, apps)");
}

}  // namespace perfbench
