// Engine identity digests: the byte-level fingerprint of one run that every
// execution engine must reproduce, and the pinned runs behind
// tests/golden/engine_digests.txt.
//
// A digest is 64-bit FNV-1a over the RunRecord JSON without wall clock
// followed by the recorded ScheduleTrace (seed, every decision, every
// preemption checkpoint). Two runs with equal digests are byte-identical
// in everything a user or a replay can observe.
#ifndef KIVATI_TESTS_ENGINE_DIGEST_H_
#define KIVATI_TESTS_ENGINE_DIGEST_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/repro.h"
#include "exp/run_record.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "exp/shrink.h"
#include "sched/fuzz_strategy.h"

namespace kivati {
namespace testing {

inline std::uint64_t Fnv1a(const std::string& bytes,
                           std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

inline std::string ScheduleText(const ScheduleTrace& trace) {
  std::string out = "seed " + std::to_string(trace.seed) + (trace.shrunk ? " shrunk\n" : "\n");
  for (const SchedDecision& d : trace.decisions) {
    out += "d " + std::to_string(static_cast<unsigned>(d.kind)) + " " +
           std::to_string(d.value) + " " + std::to_string(d.choices) + " " +
           std::to_string(d.subject) + " " + std::to_string(d.instr) + "\n";
  }
  for (const SchedCheckpoint& c : trace.checkpoints) {
    out += "c " + std::to_string(c.instr) + " " + std::to_string(c.thread) + " " +
           std::to_string(c.core) + "\n";
  }
  return out;
}

// Digest of a finished run; the record must carry its schedule
// (RunSpec::record_schedule).
inline std::string EngineDigest(const exp::RunRecord& record) {
  std::uint64_t hash = Fnv1a(exp::ToJson(record, /*include_wall_clock=*/false));
  hash = Fnv1a(record.schedule != nullptr ? ScheduleText(*record.schedule) : "no-schedule",
               hash);
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash));
  return text;
}

// How a pinned row's digest is taken from its spec.
enum class GoldenReplay : std::uint8_t {
  kNone,    // the spec's own run (recorded or guided)
  kStrict,  // a strict replay of the spec's recorded schedule
  kShrunk,  // a loose replay of that schedule shrunk by ShrinkSchedule
};

// Shrink budget of the kShrunk rows.
inline constexpr std::size_t kGoldenShrinkRuns = 40;

// One pinned run: its key in the golden file and the spec that produces it.
struct GoldenRun {
  std::string key;  // "<workload> c<cores>"
  exp::RunSpec spec;
  GoldenReplay replay = GoldenReplay::kNone;
};

// Whether the row exercises the schedule tooling: a guided run or a replay.
inline bool IsScheduleToolingRun(const GoldenRun& run) {
  return run.spec.guided_schedule != nullptr || run.replay != GoldenReplay::kNone;
}

// The digest of one pinned run, on the engine its spec selects. A replay
// row first records the spec, then replays that recording: strictly, with
// every decision and checkpoint consumed, or loosely after shrinking it
// against its first violation, in which case the shrunk schedule is the
// digested one. Throws on any error, divergence included.
inline std::string GoldenDigest(const GoldenRun& run) {
  if (run.replay == GoldenReplay::kNone) {
    const exp::RunRecord record = exp::Execute(run.spec);
    if (!record.error.empty()) {
      throw std::runtime_error(record.error);
    }
    return EngineDigest(record);
  }
  exp::BuiltRun recording = exp::BuildEngine(run.spec);
  recording.engine->Run(run.spec.budget);
  auto trace = std::make_shared<ScheduleTrace>(*recording.engine->recorded_schedule());
  if (run.replay == GoldenReplay::kShrunk) {
    const exp::ReproArtifact artifact = exp::MakeReproArtifact(
        run.spec, *trace, recording.engine->trace().violations());
    exp::ShrinkOptions options;
    options.max_runs = kGoldenShrinkRuns;
    const exp::ShrinkResult shrunk = exp::ShrinkSchedule(artifact, options);
    if (!shrunk.reproduced) {
      throw std::runtime_error("recorded schedule does not reproduce its target");
    }
    *trace = shrunk.trace;
  }
  exp::RunSpec spec = run.spec;
  spec.record_schedule = false;
  spec.replay_schedule = trace;
  exp::BuiltRun replay = exp::BuildEngine(spec);
  const RunResult result = replay.engine->Run(spec.budget);
  replay.engine->schedule_controller()->VerifyFullyConsumed();
  exp::RunRecord record = exp::MakeRecord(spec, *replay.app, *replay.engine, result);
  record.schedule = trace;
  return EngineDigest(record);
}

// The pinned runs, in file order:
//   * every corpus bug (11 single-variable, then 4 multi-variable) in
//     bug-finding mode, pause 50 ms, scheduler seed 17, at 2, 4 and 8 cores,
//     with a 10M-cycle budget at c2 and 2M at c4/c8;
//   * scaled NSS and VLC sweeps (2 workers, 40 iterations, seed 3) under the
//     base and optimized presets at c2 and their default budgets;
//   * NSS, VLC, WebStone and TPC-W vanilla and optimized at 8 workers, 4
//     iterations, seed 3, at c4 and c8 and their default budgets, plus SPEC
//     OMP the same way under a 500K-cycle budget (its run is ~3.3M cycles
//     whatever the iteration count). With more workers than cores these
//     keep every core busy, preempting, blocking and going idle;
//   * every corpus bug as in the first group, guided by a PCT and by a
//     bounded-preemption strategy (GuidedSchedule defaults, strategy seed
//     7), at 2, 4 and 8 cores;
//   * a strict replay of every corpus bug's c2 recording from the first
//     group;
//   * a loose replay of the c2 recordings of NSS-329072 and MySQL-38883
//     after ShrinkSchedule with a kGoldenShrinkRuns budget.
inline std::vector<GoldenRun> GoldenRuns() {
  std::vector<std::string> bugs = exp::CorpusBugNames();
  for (const std::string& name : exp::MultiVarBugNames()) {
    bugs.push_back(name);
  }
  std::vector<GoldenRun> corpus;
  for (const unsigned cores : {2u, 4u, 8u}) {
    for (const std::string& bug : bugs) {
      GoldenRun run{bug + " c" + std::to_string(cores), {}};
      run.spec.bug = bug;
      run.spec.mode = KivatiMode::kBugFinding;
      run.spec.pause_ms = 50.0;
      run.spec.machine.seed = 17;
      run.spec.machine.num_cores = cores;
      run.spec.budget = cores == 2 ? 10'000'000 : 2'000'000;
      run.spec.record_schedule = true;
      corpus.push_back(run);
    }
  }
  std::vector<GoldenRun> runs = corpus;
  for (const char* app : {"nss", "vlc"}) {
    for (const auto preset : {OptimizationPreset::kBase, OptimizationPreset::kOptimized}) {
      GoldenRun run{std::string(app) + "/" + exp::ToString(preset) + " c2", {}};
      run.spec.app = app;
      run.spec.preset = preset;
      run.spec.scale.workers = 2;
      run.spec.scale.iterations = 40;
      run.spec.machine.seed = 3;
      run.spec.record_schedule = true;
      runs.push_back(run);
    }
  }
  for (const unsigned cores : {4u, 8u}) {
    for (const char* app : {"nss", "vlc", "webstone", "tpcw", "specomp"}) {
      for (const bool vanilla : {true, false}) {
        GoldenRun run{std::string(app) + (vanilla ? "/vanilla" : "/optimized") + " c" +
                          std::to_string(cores),
                      {}};
        run.spec.app = app;
        run.spec.vanilla = vanilla;
        run.spec.preset = OptimizationPreset::kOptimized;
        run.spec.scale.workers = 8;
        run.spec.scale.iterations = 4;
        run.spec.machine.seed = 3;
        run.spec.machine.num_cores = cores;
        if (std::string(app) == "specomp") {
          run.spec.budget = 500'000;
        }
        run.spec.record_schedule = true;
        runs.push_back(run);
      }
    }
  }
  for (const GoldenRun& base : corpus) {
    for (const FuzzStrategyKind kind : {FuzzStrategyKind::kPct, FuzzStrategyKind::kPreempt}) {
      GoldenRun run = base;
      run.key = base.spec.bug + "/" + ToString(kind) + " c" +
                std::to_string(base.spec.machine.num_cores);
      auto guided = std::make_shared<GuidedSchedule>();
      guided->kind = kind;
      guided->seed = 7;
      run.spec.record_schedule = false;
      run.spec.guided_schedule = guided;
      runs.push_back(run);
    }
  }
  for (const GoldenRun& base : corpus) {
    if (base.spec.machine.num_cores != 2) {
      continue;
    }
    GoldenRun run = base;
    run.key = base.spec.bug + "/replay c2";
    run.replay = GoldenReplay::kStrict;
    runs.push_back(run);
    if (base.spec.bug == "NSS-329072" || base.spec.bug == "MySQL-38883") {
      run.key = base.spec.bug + "/shrunk c2";
      run.replay = GoldenReplay::kShrunk;
      runs.push_back(run);
    }
  }
  return runs;
}

}  // namespace testing
}  // namespace kivati

#endif  // KIVATI_TESTS_ENGINE_DIGEST_H_
