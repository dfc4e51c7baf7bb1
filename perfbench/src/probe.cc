#include "probe.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "analysis/atomic_regions.h"
#include "analysis/conflict.h"
#include "analysis/correlation.h"
#include "analysis/mir_builder.h"
#include "compile/compiler.h"
#include "core/engine.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "exp/shrink.h"
#include "lang/parser.h"
#include "sched/machine.h"
#include "trace/event_log.h"
#include "trace/sink.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint64_t> g_run{0};
std::atomic<std::uint64_t> g_main_top{0};  // main thread's innermost span
std::atomic<std::uint32_t> g_next_tid{0};
std::atomic<std::uint32_t> g_main_tid{0};

std::mutex g_spans_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mutex

thread_local std::vector<std::uint64_t> t_open_spans;
thread_local std::uint32_t t_tid = g_next_tid.fetch_add(1);

// Counts context switches: subscribes to one transition kind, so the
// block engine keeps running fused (only access-level kinds deoptimize).
class SwitchCounter : public kivati::TraceSink {
 public:
  std::uint32_t wants_mask() const override {
    return kivati::kEventKindBit(kivati::EventKind::kContextSwitch);
  }
  void OnEvent(const kivati::TraceEvent&) override { ++count; }

  std::uint64_t count = 0;
};

struct LiveUnit {
  Unit unit;
  std::unique_ptr<SwitchCounter> switches;  // outlives the engine's hub
};

std::mutex g_units_mutex;
std::unordered_map<const kivati::Engine*, LiveUnit> g_live;  // guarded
std::vector<Unit> g_done;                                    // guarded

void FinishLocked(LiveUnit& live) {
  if (live.switches != nullptr) {
    live.unit.context_switches = live.switches->count;
  }
  g_done.push_back(std::move(live.unit));
}

std::mutex g_counts_mutex;
StaticCounts g_counts;  // guarded by g_counts_mutex

void RegisterEngine(const kivati::exp::RunSpec& spec, kivati::exp::BuiltRun& run,
                    double build_ms) {
  LiveUnit live;
  live.unit.workload = run.app->workload.name;
  live.unit.label = spec.label;
  live.unit.cores = spec.machine.num_cores;
  live.unit.seed = spec.machine.seed;
  live.unit.vanilla = spec.vanilla;
  live.unit.hb = spec.hb_detector;
  live.unit.guided = spec.guided_schedule != nullptr;
  live.unit.build_ms = build_ms;
  if (Tracing()) {
    live.switches = std::make_unique<SwitchCounter>();
    run.engine->trace().hub().Attach(live.switches.get());
  }
  const std::lock_guard<std::mutex> lock(g_units_mutex);
  // An engine allocated where a destroyed one lived closes that unit.
  auto it = g_live.find(run.engine.get());
  if (it != g_live.end()) {
    FinishLocked(it->second);
    g_live.erase(it);
  }
  g_live.emplace(run.engine.get(), std::move(live));
}

}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch).count();
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

void SetRun(std::uint64_t run) {
  g_run.store(run);
  g_main_tid.store(t_tid);
}

std::uint64_t CurrentSpan() { return t_open_spans.empty() ? 0 : t_open_spans.back(); }

namespace {

void PushSpan(std::uint64_t id) {
  t_open_spans.push_back(id);
  if (t_tid == g_main_tid.load()) {
    g_main_top.store(id);
  }
}

void PopSpan() {
  t_open_spans.pop_back();
  if (t_tid == g_main_tid.load()) {
    g_main_top.store(CurrentSpan());
  }
}

}  // namespace

ParentScope::ParentScope(std::uint64_t parent) { PushSpan(parent); }
ParentScope::~ParentScope() { PopSpan(); }

Span::Span(std::string name) : name_(std::move(name)), start_us_(NowUs()) {
  if (!Tracing()) {
    return;
  }
  id_ = g_next_span.fetch_add(1);
  parent_ = t_open_spans.empty() ? g_main_top.load() : t_open_spans.back();
  PushSpan(id_);
}

Span::~Span() {
  if (id_ == 0) {
    return;
  }
  PopSpan();
  SpanRecord record{std::move(name_), start_us_, NowUs(), id_, parent_, g_run.load(), t_tid};
  const std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.push_back(std::move(record));
}

double Span::elapsed_ms() const { return (NowUs() - start_us_) / 1000.0; }

std::vector<SpanRecord> TakeSpans() {
  const std::lock_guard<std::mutex> lock(g_spans_mutex);
  return std::exchange(g_spans, {});
}

std::string Unit::Key() const {
  return workload + "|" + label + "|" + std::to_string(cores) + "|" + std::to_string(seed) + "|" +
         (vanilla ? "v" : "-") + (hb ? "h" : "-") + (guided ? "g" : "-") + "|" +
         std::to_string(instructions) + "|" + std::to_string(cycles);
}

std::vector<Unit> TakeUnits() {
  const std::lock_guard<std::mutex> lock(g_units_mutex);
  for (auto& [engine, live] : g_live) {
    FinishLocked(live);
  }
  g_live.clear();
  return std::exchange(g_done, {});
}

StaticCounts TakeStaticCounts() {
  const std::lock_guard<std::mutex> lock(g_counts_mutex);
  return std::exchange(g_counts, {});
}

// ---------------------------------------------------------------------------
// Link-time wrappers. Each __wrap_X replaces calls to X from every other
// object file; __real_X is the original. CMakeLists.txt passes --wrap for
// every symbol defined on a "#define PB_" line below, so each must stay on
// one line. Engine::Run and ExperimentRunner::RunAll are member functions:
// under the Itanium C++ ABI their `this` is passed as the first ordinary
// argument, which the free-function wrappers take explicitly.

// clang-format off
#define PB_PARSE "_ZN6kivati5ParseERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define PB_BUILD_MIR "_ZN6kivati8BuildMirERKNS_15TranslationUnitE"
#define PB_ANNOTATE "_ZN6kivati8AnnotateERKNS_9MirModuleERKNS_15AnnotateOptionsE"
#define PB_CONFLICTS "_ZN6kivati16AnalyzeConflictsERKNS_9MirModuleERKNS_17ModuleAnnotationsERKNS_15ConflictOptionsE"
#define PB_CORRELATE "_ZN6kivati16CorrelateAndFuseERKNS_9MirModuleERNS_17ModuleAnnotationsERKNS_14ConflictReportERKNS_18CorrelationOptionsE"
#define PB_COMPILE "_ZN6kivati13CompileSourceERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_14CompileOptionsE"
#define PB_IMAGE "_ZN6kivati16MakeProgramImageENS_7ProgramE"
#define PB_BUILD_ENGINE "_ZN6kivati3exp11BuildEngineERKNS0_7RunSpecE"
#define PB_BUILD_ENGINE_APP "_ZN6kivati3exp11BuildEngineERKNS0_7RunSpecESt10shared_ptrIKNS_4apps3AppEE"
#define PB_ENGINE_RUN "_ZN6kivati6Engine3RunESt8optionalImE"
#define PB_RUN_ALL "_ZN6kivati3exp16ExperimentRunner6RunAllERKSt6vectorINS0_7RunSpecESaIS3_EE"
#define PB_SHRINK "_ZN6kivati3exp14ShrinkScheduleERKNS0_13ReproArtifactERKNS0_13ShrinkOptionsE"
// clang-format on

kivati::TranslationUnit RealParse(const std::string& source) __asm__("__real_" PB_PARSE);
kivati::TranslationUnit WrapParse(const std::string& source) __asm__("__wrap_" PB_PARSE);
kivati::TranslationUnit WrapParse(const std::string& source) {
  Span span("frontend.parse");
  return RealParse(source);
}

kivati::MirModule RealBuildMir(const kivati::TranslationUnit& unit)
    __asm__("__real_" PB_BUILD_MIR);
kivati::MirModule WrapBuildMir(const kivati::TranslationUnit& unit)
    __asm__("__wrap_" PB_BUILD_MIR);
kivati::MirModule WrapBuildMir(const kivati::TranslationUnit& unit) {
  Span span("frontend.mir");
  return RealBuildMir(unit);
}

kivati::ModuleAnnotations RealAnnotate(const kivati::MirModule& module,
                                       const kivati::AnnotateOptions& options)
    __asm__("__real_" PB_ANNOTATE);
kivati::ModuleAnnotations WrapAnnotate(const kivati::MirModule& module,
                                       const kivati::AnnotateOptions& options)
    __asm__("__wrap_" PB_ANNOTATE);
kivati::ModuleAnnotations WrapAnnotate(const kivati::MirModule& module,
                                       const kivati::AnnotateOptions& options) {
  Span span("frontend.annotate");
  return RealAnnotate(module, options);
}

kivati::ConflictReport RealConflicts(const kivati::MirModule& module,
                                     const kivati::ModuleAnnotations& annotations,
                                     const kivati::ConflictOptions& options)
    __asm__("__real_" PB_CONFLICTS);
kivati::ConflictReport WrapConflicts(const kivati::MirModule& module,
                                     const kivati::ModuleAnnotations& annotations,
                                     const kivati::ConflictOptions& options)
    __asm__("__wrap_" PB_CONFLICTS);
kivati::ConflictReport WrapConflicts(const kivati::MirModule& module,
                                     const kivati::ModuleAnnotations& annotations,
                                     const kivati::ConflictOptions& options) {
  Span span("frontend.conflict");
  return RealConflicts(module, annotations, options);
}

kivati::CorrelationReport RealCorrelate(const kivati::MirModule& module,
                                        kivati::ModuleAnnotations& annotations,
                                        const kivati::ConflictReport& conflict,
                                        const kivati::CorrelationOptions& options)
    __asm__("__real_" PB_CORRELATE);
kivati::CorrelationReport WrapCorrelate(const kivati::MirModule& module,
                                        kivati::ModuleAnnotations& annotations,
                                        const kivati::ConflictReport& conflict,
                                        const kivati::CorrelationOptions& options)
    __asm__("__wrap_" PB_CORRELATE);
kivati::CorrelationReport WrapCorrelate(const kivati::MirModule& module,
                                        kivati::ModuleAnnotations& annotations,
                                        const kivati::ConflictReport& conflict,
                                        const kivati::CorrelationOptions& options) {
  Span span("frontend.correlate");
  return RealCorrelate(module, annotations, conflict, options);
}

kivati::CompiledProgram RealCompile(const std::string& source,
                                    const kivati::CompileOptions& options)
    __asm__("__real_" PB_COMPILE);
kivati::CompiledProgram WrapCompile(const std::string& source,
                                    const kivati::CompileOptions& options)
    __asm__("__wrap_" PB_COMPILE);
kivati::CompiledProgram WrapCompile(const std::string& source,
                                    const kivati::CompileOptions& options) {
  kivati::CompiledProgram out;
  {
    Span span("frontend.compile");
    out = RealCompile(source, options);
  }
  if (Tracing()) {
    const std::lock_guard<std::mutex> lock(g_counts_mutex);
    g_counts.ars_annotated += out.num_ars;
    g_counts.ars_pruned += out.conflict.pruned.size();
  }
  return out;
}

std::shared_ptr<const kivati::ProgramImage> RealImage(kivati::Program program)
    __asm__("__real_" PB_IMAGE);
std::shared_ptr<const kivati::ProgramImage> WrapImage(kivati::Program program)
    __asm__("__wrap_" PB_IMAGE);
std::shared_ptr<const kivati::ProgramImage> WrapImage(kivati::Program program) {
  std::shared_ptr<const kivati::ProgramImage> image;
  {
    Span span("image.build");
    image = RealImage(std::move(program));
  }
  if (Tracing()) {
    const std::lock_guard<std::mutex> lock(g_counts_mutex);
    g_counts.image_blocks += image->blocks.num_blocks();
    g_counts.image_ops += image->blocks.num_ops();
  }
  return image;
}

kivati::exp::BuiltRun RealBuildEngine(const kivati::exp::RunSpec& spec)
    __asm__("__real_" PB_BUILD_ENGINE);
kivati::exp::BuiltRun WrapBuildEngine(const kivati::exp::RunSpec& spec)
    __asm__("__wrap_" PB_BUILD_ENGINE);
kivati::exp::BuiltRun WrapBuildEngine(const kivati::exp::RunSpec& spec) {
  const Span span("engine.build");
  kivati::exp::BuiltRun run = RealBuildEngine(spec);
  RegisterEngine(spec, run, span.elapsed_ms());
  return run;
}

kivati::exp::BuiltRun RealBuildEngineApp(const kivati::exp::RunSpec& spec,
                                         std::shared_ptr<const kivati::apps::App> app)
    __asm__("__real_" PB_BUILD_ENGINE_APP);
kivati::exp::BuiltRun WrapBuildEngineApp(const kivati::exp::RunSpec& spec,
                                         std::shared_ptr<const kivati::apps::App> app)
    __asm__("__wrap_" PB_BUILD_ENGINE_APP);
kivati::exp::BuiltRun WrapBuildEngineApp(const kivati::exp::RunSpec& spec,
                                         std::shared_ptr<const kivati::apps::App> app) {
  const Span span("engine.build");
  kivati::exp::BuiltRun run = RealBuildEngineApp(spec, std::move(app));
  RegisterEngine(spec, run, span.elapsed_ms());
  return run;
}

kivati::RunResult RealEngineRun(kivati::Engine* engine, std::optional<kivati::Cycles> max)
    __asm__("__real_" PB_ENGINE_RUN);
kivati::RunResult WrapEngineRun(kivati::Engine* engine, std::optional<kivati::Cycles> max)
    __asm__("__wrap_" PB_ENGINE_RUN);
kivati::RunResult WrapEngineRun(kivati::Engine* engine, std::optional<kivati::Cycles> max) {
  const Span span("machine.run");
  const kivati::RunResult result = RealEngineRun(engine, max);
  const double ms = span.elapsed_ms();
  const std::lock_guard<std::mutex> lock(g_units_mutex);
  Unit& unit = g_live[engine].unit;
  unit.run_ms += ms;
  unit.instructions = result.instructions;
  unit.cycles = result.cycles;
  if (Tracing()) {
    unit.stats = engine->trace().stats();
    unit.costs = engine->machine().config().costs;
  }
  return result;
}

std::vector<kivati::exp::RunRecord> RealRunAll(kivati::exp::ExperimentRunner* runner,
                                               const std::vector<kivati::exp::RunSpec>& specs)
    __asm__("__real_" PB_RUN_ALL);
std::vector<kivati::exp::RunRecord> WrapRunAll(kivati::exp::ExperimentRunner* runner,
                                               const std::vector<kivati::exp::RunSpec>& specs)
    __asm__("__wrap_" PB_RUN_ALL);
std::vector<kivati::exp::RunRecord> WrapRunAll(kivati::exp::ExperimentRunner* runner,
                                               const std::vector<kivati::exp::RunSpec>& specs) {
  const Span span("harness.run_all");
  return RealRunAll(runner, specs);
}

kivati::exp::ShrinkResult RealShrink(const kivati::exp::ReproArtifact& artifact,
                                     const kivati::exp::ShrinkOptions& options)
    __asm__("__real_" PB_SHRINK);
kivati::exp::ShrinkResult WrapShrink(const kivati::exp::ReproArtifact& artifact,
                                     const kivati::exp::ShrinkOptions& options)
    __asm__("__wrap_" PB_SHRINK);
kivati::exp::ShrinkResult WrapShrink(const kivati::exp::ReproArtifact& artifact,
                                     const kivati::exp::ShrinkOptions& options) {
  const Span span("harness.shrink");
  return RealShrink(artifact, options);
}

}  // namespace perfbench
