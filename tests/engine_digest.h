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
#include <string>
#include <vector>

#include "exp/run_record.h"
#include "exp/run_spec.h"

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

// One pinned run: its key in the golden file and the spec that produces it.
struct GoldenRun {
  std::string key;  // "<workload> c<cores>"
  exp::RunSpec spec;
};

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
//     keep every core busy, preempting, blocking and going idle.
inline std::vector<GoldenRun> GoldenRuns() {
  std::vector<std::string> bugs = exp::CorpusBugNames();
  for (const std::string& name : exp::MultiVarBugNames()) {
    bugs.push_back(name);
  }
  std::vector<GoldenRun> runs;
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
      runs.push_back(run);
    }
  }
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
  return runs;
}

}  // namespace testing
}  // namespace kivati

#endif  // KIVATI_TESTS_ENGINE_DIGEST_H_
