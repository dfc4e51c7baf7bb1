// Host-time instrumentation owned by the benchmark.
//
// Two things are recorded around calls into the kivati layers:
//
//  * Spans (name, start, end, parent span, run id), kept in memory while
//    tracing is on and written out at the end as a Chrome trace_event file.
//  * Units: one per engine built by exp::BuildEngine, carrying the build
//    time, the summed Engine::Run time and the engine's final simulated
//    counters. Units are always recorded (two clock reads per call); they
//    give the per-run host times of the end-to-end metrics.
//
// The calls the harness entry points make internally (the runner's workers,
// Fuzz, ShrinkSchedule, CompileSource's passes) are reached through the
// linker's --wrap option (CMakeLists.txt), so the program's own sources are
// measured as they are, from outside.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sched/cost_model.h"
#include "trace/trace.h"

namespace perfbench {

// Microseconds on the steady clock since the process started.
double NowUs();

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = none
  std::uint64_t run = 0;     // pass the span belongs to
  std::uint32_t tid = 0;     // small per-thread index
};

// Span recording switch. Off, a span costs one clock read and records nothing.
void SetTracing(bool on);
bool Tracing();

// Sets the run id shared by the spans of the current pass. The calling
// thread becomes the main thread: spans opened on a thread with no
// enclosing span (the runner's workers) take the main thread's innermost
// open span as parent.
void SetRun(std::uint64_t run);

// Innermost open span of this thread (0 when tracing is off or none).
std::uint64_t CurrentSpan();

// Makes `parent` the enclosing span of this thread's next spans, for
// threads the benchmark itself starts.
class ParentScope {
 public:
  explicit ParentScope(std::uint64_t parent);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;
};

// Times a scope; recorded as a span while tracing is on.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double elapsed_ms() const;

 private:
  std::string name_;
  double start_us_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

// Moves out every span recorded so far.
std::vector<SpanRecord> TakeSpans();

// One engine: BuildEngine plus every Engine::Run call made on it.
struct Unit {
  std::string workload;  // App workload name
  std::string label;     // RunSpec::label
  unsigned cores = 0;
  std::uint64_t seed = 0;  // scheduler seed
  bool vanilla = false;
  bool hb = false;      // runs the HB oracle (RunSpec::hb_detector)
  bool guided = false;  // a fuzz candidate (RunSpec::guided_schedule)
  double build_ms = 0.0;
  double run_ms = 0.0;
  std::uint64_t instructions = 0;  // cumulative, as of the last Run
  kivati::Cycles cycles = 0;
  // Filled only while tracing.
  kivati::RuntimeStats stats;
  kivati::CostModel costs;
  std::uint64_t context_switches = 0;  // benchmark-owned transition sink

  double ms() const { return build_ms + run_ms; }
  // Names the simulated run: equal keys in different passes are the same
  // work, since every pass's simulated output repeats.
  std::string Key() const;
};

// Finalizes and moves out every unit recorded so far. Call only when no
// engine built since the last call is still alive.
std::vector<Unit> TakeUnits();

// Static counts seen by the front-end and image wrappers while tracing.
struct StaticCounts {
  std::uint64_t ars_annotated = 0;
  std::uint64_t ars_pruned = 0;
  std::uint64_t image_blocks = 0;
  std::uint64_t image_ops = 0;

  StaticCounts& operator+=(const StaticCounts& o) {
    ars_annotated += o.ars_annotated;
    ars_pruned += o.ars_pruned;
    image_blocks += o.image_blocks;
    image_ops += o.image_ops;
    return *this;
  }
};
StaticCounts TakeStaticCounts();

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
