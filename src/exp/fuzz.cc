#include "exp/fuzz.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "common/json.h"
#include "common/report_envelope.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "exp/shrink.h"
#include "trace/report.h"

namespace kivati {
namespace exp {
namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Coverage. A run's interleaving is reduced to a set of 64-bit feature
// hashes; the union over all runs is the coverage set. Features deliberately
// exclude instruction counts and cycle timestamps — those never saturate, so
// they would defeat the plateau rule. FNV-1a over whole words with an extra
// avalanche step; collisions merely undercount coverage.
// ---------------------------------------------------------------------------

std::uint64_t Mix(std::initializer_list<std::uint64_t> values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t v : values) {
    h ^= v;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  }
  return h;
}

std::uint64_t HashString(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void CollectFeatures(const RunRecord& record, std::vector<std::uint64_t>& features) {
  // Context-switch features from the recorded schedule: which thread follows
  // which (bigrams and trigrams of pick subjects, tagged with the
  // runnable-set size) and which pause samples were taken after which pick.
  ThreadId prev = kInvalidThread;
  ThreadId prev2 = kInvalidThread;
  if (record.schedule != nullptr) {
    for (const SchedDecision& d : record.schedule->decisions) {
      if (d.kind == SchedDecisionKind::kPick) {
        features.push_back(Mix({1, prev, d.subject, d.choices}));
        features.push_back(Mix({2, prev2, prev, d.subject}));
        prev2 = prev;
        prev = d.subject;
      } else {
        features.push_back(Mix({3, d.subject, d.value, prev}));
      }
    }
  }
  // Access-pair orderings actually witnessed as violations: the violation
  // shape (AR/pattern/address — a fresh bug always counts as new coverage)
  // and the precise thread/PC pairing.
  for (const ViolationRecord& v : record.violation_records) {
    features.push_back(Mix({4, v.ar_id, HashString(ViolationPattern(v)), v.addr}));
    features.push_back(Mix({5, v.local_thread, v.remote_thread, v.first_pc, v.second_pc,
                            v.remote_pc}));
  }
  // Terminal outcome, so a first deadlock/limit run registers as novel.
  features.push_back(Mix({6, static_cast<std::uint64_t>(record.completed),
                          static_cast<std::uint64_t>(record.deadlocked),
                          static_cast<std::uint64_t>(record.hit_limit)}));
}

// ---------------------------------------------------------------------------
// Candidate generation. Strategy seeds are index-addressable — candidate i's
// GuidedSchedule is a pure function of (options, i) — so a discovery can be
// regenerated alone and the search order never depends on worker count.
// ---------------------------------------------------------------------------

std::uint64_t CandidateSeed(std::uint64_t fuzz_seed, std::size_t index) {
  std::uint64_t state =
      fuzz_seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(index) + 1);
  return SplitMix64(state);
}

enum class StrategyMix { kMix, kPctOnly, kPreemptOnly };

GuidedSchedule CandidateSchedule(const FuzzOptions& options, StrategyMix mix,
                                 std::size_t index) {
  GuidedSchedule guided;
  switch (mix) {
    case StrategyMix::kMix:
      guided.kind = index % 2 == 0 ? FuzzStrategyKind::kPct : FuzzStrategyKind::kPreempt;
      break;
    case StrategyMix::kPctOnly:
      guided.kind = FuzzStrategyKind::kPct;
      break;
    case StrategyMix::kPreemptOnly:
      guided.kind = FuzzStrategyKind::kPreempt;
      break;
  }
  guided.seed = CandidateSeed(options.seed, index);
  guided.pct_depth = options.pct_depth;
  guided.preempt_bound = options.preempt_bound;
  guided.pause_probability = options.pause_probability;
  return guided;
}

std::string DedupKey(const ReproTarget& target) {
  return std::to_string(target.ar) + "|" + target.pattern + "|" +
         std::to_string(target.addr) + "|" + std::to_string(target.size);
}

using json::Append;

std::string DiscoveryJson(const FuzzDiscovery& d) {
  std::string out = "{";
  Append(out, "ar", static_cast<std::uint64_t>(d.target.ar));
  Append(out, "pattern", d.target.pattern);
  Append(out, "addr", d.target.addr);
  Append(out, "size", static_cast<std::uint64_t>(d.target.size));
  Append(out, "schedule", static_cast<std::uint64_t>(d.schedule_index));
  Append(out, "strategy", d.strategy);
  Append(out, "strategy_seed", d.strategy_seed);
  Append(out, "trace_decisions", static_cast<std::uint64_t>(d.trace_decisions));
  Append(out, "shrunk_decisions", static_cast<std::uint64_t>(d.shrunk_decisions));
  Append(out, "shrink_runs", static_cast<std::uint64_t>(d.shrink_runs));
  Append(out, "shrink_budget_exhausted", d.shrink_budget_exhausted);
  Append(out, "replay_ok", d.replay_ok);
  Append(out, "artifact", d.artifact_path, /*comma=*/false);
  out += "}";
  return out;
}

}  // namespace

FuzzReport Fuzz(const RunSpec& spec, const FuzzOptions& options) {
  if (options.max_schedules == 0) {
    throw std::runtime_error("fuzz needs a schedule budget of at least 1");
  }
  if (options.plateau == 0) {
    throw std::runtime_error("fuzz needs a plateau window of at least 1");
  }
  StrategyMix mix;
  FuzzStrategyKind fixed_kind = FuzzStrategyKind::kPct;
  if (options.strategy == "mix") {
    mix = StrategyMix::kMix;
  } else if (ParseStrategyKind(options.strategy, &fixed_kind)) {
    mix = fixed_kind == FuzzStrategyKind::kPct ? StrategyMix::kPctOnly
                                               : StrategyMix::kPreemptOnly;
  } else {
    throw std::runtime_error("unknown fuzz strategy '" + options.strategy +
                             "' (known: mix, pct, preempt)");
  }
  const auto start = std::chrono::steady_clock::now();
  const auto say = [&](const std::string& line) {
    if (options.progress) {
      options.progress(line);
    }
  };

  // The artifact proto is the caller's spec minus any schedule driver: what
  // a saved repro echoes into JSON, and the base the shrinker rebuilds
  // engines from.
  RunSpec proto = spec;
  proto.record_schedule = false;
  proto.replay_schedule = nullptr;
  proto.guided_schedule = nullptr;
  proto.image = nullptr;

  // Resolve the workload once; all candidates share the compiled App and
  // one ProgramImage (docs/performance.md).
  std::shared_ptr<const apps::App> app = ResolveApp(proto);
  std::shared_ptr<const ProgramImage> image = MakeProgramImage(app->workload.program);

  FuzzReport report;
  report.app = app->workload.name;
  report.strategy = options.strategy;
  report.seed = options.seed;
  report.max_schedules = options.max_schedules;
  report.plateau = options.plateau;

  ExperimentRunner runner(RunnerOptions{.workers = options.workers});
  report.workers = runner.workers();

  // Candidate specs run against the shared prebuilt app; the base for them
  // must therefore name no other workload source.
  RunSpec candidate_base = proto;
  candidate_base.prebuilt = app;
  candidate_base.app.clear();
  candidate_base.source_path.clear();
  candidate_base.bug.clear();
  candidate_base.image = image;

  std::unordered_set<std::uint64_t> coverage;
  std::set<std::string> seen;  // discovery dedup keys
  std::vector<std::uint64_t> features;
  std::size_t no_new = 0;
  std::size_t index = 0;
  bool plateau = false;

  // Batch size bounds how much speculative work past a plateau cut is
  // thrown away; the cut itself is at an exact candidate index, so neither
  // the batch size nor the worker count can change the report.
  const std::size_t batch_size = std::max<std::size_t>(report.workers, 1) * 2;

  while (index < options.max_schedules && !plateau) {
    const std::size_t batch = std::min(batch_size, options.max_schedules - index);
    std::vector<RunSpec> specs;
    std::vector<GuidedSchedule> guided(batch);
    specs.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      guided[b] = CandidateSchedule(options, mix, index + b);
      RunSpec candidate = candidate_base;
      candidate.label = "fuzz#" + std::to_string(index + b);
      candidate.guided_schedule = std::make_shared<const GuidedSchedule>(guided[b]);
      specs.push_back(std::move(candidate));
    }
    const std::vector<RunRecord> records = runner.RunAll(specs);

    for (std::size_t b = 0; b < records.size() && !plateau; ++b, ++index) {
      const RunRecord& record = records[b];
      ++report.schedules_run;
      if (!record.error.empty()) {
        report.errors.push_back(record.label + ": " + record.error);
        if (++no_new >= options.plateau) {
          plateau = true;
        }
        continue;
      }
      features.clear();
      CollectFeatures(record, features);
      const std::size_t before = coverage.size();
      for (std::uint64_t f : features) {
        coverage.insert(f);
      }
      const bool novel = coverage.size() > before;
      if (!record.violation_records.empty()) {
        ++report.schedules_with_violations;
      }

      for (const ViolationRecord& v : record.violation_records) {
        ReproTarget target;
        target.ar = v.ar_id;
        target.pattern = ViolationPattern(v);
        target.addr = v.addr;
        target.size = v.size;
        if (!seen.insert(DedupKey(target)).second || record.schedule == nullptr) {
          continue;
        }
        FuzzDiscovery d;
        d.target = target;
        d.schedule_index = index;
        d.strategy = ToString(guided[b].kind);
        d.strategy_seed = guided[b].seed;
        d.trace_decisions = record.schedule->decisions.size();
        say("schedule " + std::to_string(index) + ": new violation AR " +
            std::to_string(target.ar) + " " + target.pattern + ", shrinking");

        ReproArtifact artifact;
        artifact.spec = proto;
        artifact.trace = *record.schedule;
        artifact.has_target = true;
        artifact.target = target;
        artifact.violations = record.violation_records.size();

        ShrinkOptions shrink_options;
        shrink_options.max_runs = options.shrink_max_runs;
        const ShrinkResult shrunk = ShrinkSchedule(artifact, shrink_options);
        d.shrunk_decisions = shrunk.trace.decisions.size();
        d.shrink_runs = shrunk.runs;
        d.shrink_budget_exhausted = shrunk.budget_exhausted;

        // The saved artifact carries the minimized trace; verify it really
        // replays to the target before calling the discovery reproducible.
        artifact.trace = shrunk.trace;
        RunSpec verify = candidate_base;
        verify.label = "verify#" + std::to_string(index);
        verify.replay_schedule = std::make_shared<const ScheduleTrace>(shrunk.trace);
        const RunRecord verified = Execute(verify);
        for (const ViolationRecord& rv : verified.violation_records) {
          if (MatchesTarget(target, rv)) {
            d.replay_ok = true;
            break;
          }
        }

        if (!options.artifact_dir.empty()) {
          std::filesystem::create_directories(options.artifact_dir);
          char name[64];
          std::snprintf(name, sizeof(name), "repro-%03zu-ar%llu.json",
                        report.discoveries.size(),
                        static_cast<unsigned long long>(target.ar));
          d.artifact_path = (std::filesystem::path(options.artifact_dir) / name).string();
          SaveRepro(artifact, d.artifact_path);
        }
        say("  shrunk " + std::to_string(d.trace_decisions) + " -> " +
            std::to_string(d.shrunk_decisions) + " decision(s), replay " +
            (d.replay_ok ? "ok" : "FAILED"));
        report.discoveries.push_back(std::move(d));
      }

      if (novel) {
        no_new = 0;
        report.coverage_curve.emplace_back(index + 1, coverage.size());
      } else if (++no_new >= options.plateau) {
        plateau = true;
      }
    }
    say("schedules " + std::to_string(report.schedules_run) + "/" +
        std::to_string(options.max_schedules) + ": coverage " +
        std::to_string(coverage.size()) + ", violations " +
        std::to_string(report.discoveries.size()));
  }

  report.stopped_on_plateau = plateau;
  report.coverage_points = coverage.size();
  report.wall_ms = ElapsedMs(start);
  return report;
}

std::string FuzzReportJson(const FuzzReport& report, bool include_wall_clock) {
  std::string out = report::EnvelopePrefix({"kivati_fuzz", 1});
  Append(out, "app", report.app);
  Append(out, "strategy", report.strategy);
  Append(out, "seed", report.seed);
  Append(out, "max_schedules", static_cast<std::uint64_t>(report.max_schedules));
  Append(out, "plateau", static_cast<std::uint64_t>(report.plateau));
  Append(out, "schedules_run", static_cast<std::uint64_t>(report.schedules_run));
  Append(out, "schedules_with_violations",
         static_cast<std::uint64_t>(report.schedules_with_violations));
  Append(out, "stopped_on_plateau", report.stopped_on_plateau);
  Append(out, "coverage_points", static_cast<std::uint64_t>(report.coverage_points));
  if (include_wall_clock) {
    Append(out, "workers", static_cast<std::uint64_t>(report.workers));
    Append(out, "wall_ms", report.wall_ms);
  }
  out += "\"coverage_curve\":[";
  for (std::size_t i = 0; i < report.coverage_curve.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += "[" + std::to_string(report.coverage_curve[i].first) + "," +
           std::to_string(report.coverage_curve[i].second) + "]";
  }
  out += "],\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    json::AppendQuoted(out, report.errors[i]);
  }
  out += "],\"discoveries\":[\n";
  for (std::size_t i = 0; i < report.discoveries.size(); ++i) {
    out += DiscoveryJson(report.discoveries[i]);
    if (i + 1 < report.discoveries.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace exp
}  // namespace kivati
