// Interpreter throughput benchmark: simulated cycles per wall-clock second.
//
// Measures the hot-loop tiers of docs/performance.md the way the committed
// baseline (BENCH_interp.json, CI's perf-smoke job) consumes them: for each
// app × config cell, run the identical deterministic workload once untimed
// (warmup — page faults, chunk materialization and block translation do not
// pollute the timings) and `repeats` timed times, reporting the median wall
// time converted to simulated Mcycles/s and MIPS. Each cell is measured per
// engine — "block" (basic-block translation, the default) and "interp" (the
// per-instruction engine, --engine interp) — so the block engine's
// speedup is visible in one report. The simulated outcome (cycles,
// instructions) is determinism-checked across repeats and engines — a
// throughput number from a diverging run would be meaningless.
#ifndef KIVATI_EXP_INTERP_BENCH_H_
#define KIVATI_EXP_INTERP_BENCH_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/run_spec.h"

namespace kivati {
namespace exp {

struct InterpBenchSpec {
  // Registered application names ("nss", "vlc", ...).
  std::vector<std::string> apps;
  // Configurations: "vanilla" or a preset name ("base", "null", "syncvars",
  // "optimized"); non-vanilla cells run in prevention mode.
  std::vector<std::string> configs;
  // Timed repeats per cell (after one untimed warmup run); the median is
  // reported — best-of-N rewarded lucky outliers and made the perf-smoke
  // regression gate flaky.
  unsigned repeats = 3;
  std::uint64_t seed = 1;
  unsigned cores = 2;
  unsigned watchpoints = kDefaultWatchpointCount;
  // Absent -> the workload's default budget.
  std::optional<Cycles> max_cycles;
  apps::LoadScale scale;
  // Engine selection (both by default).
  bool include_block = true;
  bool include_interp = true;
};

struct InterpBenchEntry {
  std::string label;   // "nss/base/prevention/c2w4/s1"
  std::string engine;  // "block" or "interp"
  Cycles cycles = 0;
  std::uint64_t instructions = 0;
  double median_wall_ms = 0.0;
  double mcycles_per_sec = 0.0;
  double mips = 0.0;
};

// Runs the grid; throws std::runtime_error on unknown apps/configs or if a
// cell's simulated outcome differs across repeats or engines.
// `progress` (may be null) receives one line per finished entry.
std::vector<InterpBenchEntry> RunInterpBench(
    const InterpBenchSpec& spec,
    const std::function<void(const InterpBenchEntry&)>& progress = nullptr);

// Envelope-wrapped report (report::Envelope, kind "kivati_interp_bench"):
// {"kind":"kivati_interp_bench","schema_version":2,"entries":[...]}.
// schema_version 2 replaced the v1 per-entry optimized-loop bool and
// `best_wall_ms` with `engine` and `median_wall_ms`.
std::string InterpBenchJson(const std::vector<InterpBenchEntry>& entries);

}  // namespace exp
}  // namespace kivati

#endif  // KIVATI_EXP_INTERP_BENCH_H_
