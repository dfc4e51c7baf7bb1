// kvbench: end-to-end and per-layer benchmark of kivati's commands.
//
//   kvbench --workload apps-c2|apps-c8|hb-oracle|bug-hunt --seed N
//           --seconds S --trace 0|1 [--expected FILE] [--result FILE]
//           [--spans FILE] [--commit TEXT]
//
// Each workload is one command a user runs, driven through its public entry
// point (ExperimentRunner::RunAll for sweeps, RunCompare, Fuzz plus
// strict replay and ShrinkSchedule). After set-up the workload runs in
// passes until S seconds have passed. Every pass's simulated output is
// digested and must repeat exactly: across passes, between traced and
// untraced passes, and, for the stored seed, against FILE. The last line of
// stdout is the JSON result; README.md documents the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "detect/hb_detector.h"
#include "exp/compare.h"
#include "exp/fuzz.h"
#include "exp/repro.h"
#include "exp/run_record.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "exp/shrink.h"
#include "probe.h"
#include "sched/fuzz_strategy.h"

namespace perfbench {
namespace {

using kivati::Cycles;
namespace exp = kivati::exp;

// Set-up takes milliseconds, so it repeats for at least kSetupMinSeconds
// (within the rep bounds); setup_s is the median repetition.
constexpr std::size_t kSetupMinReps = 5;
constexpr std::size_t kSetupMaxReps = 5000;
constexpr double kSetupMinSeconds = 1.0;

// ---------------------------------------------------------------------------
// Small helpers.

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Input seed k of a workload, derived from the benchmark's --seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t k) {
  return SplitMix64(seed * 0x100000001b3ULL + k) % 1'000'000'007ULL + 1;
}

class Digest {
 public:
  void Add(const std::string& text) {
    for (const char c : text) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    hash_ = (hash_ ^ 0xff) * 0x100000001b3ULL;  // field separator
  }
  void Add(std::uint64_t value) { Add(std::to_string(value)); }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void AddSchedule(Digest& digest, const kivati::ScheduleTrace& trace) {
  digest.Add(trace.seed);
  digest.Add(trace.shrunk ? 1 : 0);
  for (const kivati::SchedDecision& d : trace.decisions) {
    digest.Add(std::to_string(static_cast<int>(d.kind)) + ":" + std::to_string(d.value) + ":" +
               std::to_string(d.choices) + ":" + std::to_string(d.subject) + ":" +
               std::to_string(d.instr));
  }
  for (const kivati::SchedCheckpoint& c : trace.checkpoints) {
    digest.Add(std::to_string(c.instr) + ":" + std::to_string(c.thread) + ":" +
               std::to_string(c.core));
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * sorted.size()));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

// The highest of p99.9, p99 and p90 with at least ten samples above it.
// Untraced runs collect at least kMinRunSamples samples, so the choice
// moves only with a tenfold change in sample count.
constexpr std::size_t kMinRunSamples = 100;
double TailPercentile(std::size_t samples) {
  for (const double p : {99.9, 99.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) {
      return p;
    }
  }
  return 90.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

unsigned HostWorkers() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp(n, 1u, 4u);
}

// Runs job(i) for i in [0, count) on `workers` threads (claiming indices in
// order, the runner's closed-loop discipline).
void ParallelFor(std::size_t count, unsigned workers, const std::function<void(std::size_t)>& job) {
  std::atomic<std::size_t> next{0};
  const std::uint64_t parent = CurrentSpan();
  auto loop = [&]() {
    const ParentScope scope(parent);
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      job(i);
    }
  };
  std::vector<std::thread> threads;
  const unsigned pool = static_cast<unsigned>(std::min<std::size_t>(workers, count));
  for (unsigned t = 1; t < pool; ++t) {
    threads.emplace_back(loop);
  }
  loop();
  for (std::thread& thread : threads) {
    thread.join();
  }
}

// ---------------------------------------------------------------------------
// Workloads.

// Per-layer figures a workload reports from its own calls (the rest come
// from the probe's spans and units).
struct Extras {
  std::uint64_t detect_events = 0;
  double detect_busy_ms = 0.0;
  std::uint64_t detect_accesses = 0;
  std::uint64_t detect_shadow_ops = 0;
  std::uint64_t detect_instructions = 0;  // of the detector probe runs
  std::uint64_t fuzz_schedules = 0;
  std::uint64_t fuzz_new_coverage = 0;
  std::uint64_t fuzz_discoveries = 0;
  double shrink_ms = 0.0;
  std::uint64_t shrink_runs = 0;
  std::uint64_t shrink_original = 0;
  std::uint64_t shrink_final = 0;
  double replay_ms = 0.0;
  double json_ms = 0.0;

  Extras& operator+=(const Extras& o) {
    detect_events += o.detect_events;
    detect_busy_ms += o.detect_busy_ms;
    detect_accesses += o.detect_accesses;
    detect_shadow_ops += o.detect_shadow_ops;
    detect_instructions += o.detect_instructions;
    fuzz_schedules += o.fuzz_schedules;
    fuzz_new_coverage += o.fuzz_new_coverage;
    fuzz_discoveries += o.fuzz_discoveries;
    shrink_ms += o.shrink_ms;
    shrink_runs += o.shrink_runs;
    shrink_original += o.shrink_original;
    shrink_final += o.shrink_final;
    replay_ms += o.replay_ms;
    json_ms += o.json_ms;
    return *this;
  }
};

struct PassResult {
  std::string digest;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  double ms = 0.0;          // host time of the timed command
  std::vector<Unit> units;  // engines of the timed command
  Extras extras;
  // hb-oracle: names of the bugs Kivati convicted (checked for the stored
  // seed).
  std::string kivati_convicted;

  void Fail(std::size_t units_failed, const std::string& why) {
    failed += units_failed;
    problems.push_back(why);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Parameters recorded in every result file; two results compare only
  // when these match.
  virtual std::string ParamsJson() const = 0;
  unsigned workers() const { return HostWorkers(); }
  // Resolves and compiles the inputs and builds their ProgramImages.
  virtual void Setup() = 0;
  // The timed command; Probe() runs only in traced passes, after it.
  virtual void Pass(PassResult& out) = 0;
  virtual void Probe(PassResult&) {}
  // Whether an engine's time is one sample of run_ms_gmean/run_ms_tail.
  virtual bool CountsAsRun(const Unit&) const { return true; }
};

// ExperimentRunner::RunAll over registered apps × configurations × seeds —
// `kivati sweep`.
class AppsWorkload : public Workload {
 public:
  struct Config {
    std::string label;
    bool vanilla;
    kivati::OptimizationPreset preset;
  };

  AppsWorkload(std::uint64_t seed, unsigned cores, int app_workers, int iterations,
               int seeds, std::vector<Config> configs)
      : cores_(cores), configs_(std::move(configs)) {
    scale_.workers = app_workers;
    scale_.iterations = iterations;
    for (int k = 0; k < seeds; ++k) {
      seeds_.push_back(DeriveSeed(seed, static_cast<std::uint64_t>(k)));
    }
  }

  std::string ParamsJson() const override {
    std::string configs;
    for (const Config& c : configs_) {
      configs += (configs.empty() ? "" : ",") + JsonString(c.label);
    }
    std::string seeds;
    for (const std::uint64_t s : seeds_) {
      seeds += (seeds.empty() ? "" : ",") + std::to_string(s);
    }
    return "{\"command\":\"sweep\",\"apps\":[\"nss\",\"vlc\",\"webstone\",\"tpcw\",\"specomp\"]"
           ",\"configs\":[" + configs + "],\"mode\":\"prevention\",\"cores\":" +
           std::to_string(cores_) + ",\"app_workers\":" + std::to_string(scale_.workers) +
           ",\"iterations\":" + std::to_string(scale_.iterations) + ",\"sched_seeds\":[" +
           seeds + "],\"runs_per_pass\":" +
           std::to_string(exp::RegisteredApps().size() * configs_.size() * seeds_.size()) +
           ",\"runner_workers\":" + std::to_string(workers()) + "}";
  }

  void Setup() override {
    apps_.clear();
    for (const std::string& name : exp::RegisteredApps()) {
      auto app = exp::MakeRegisteredApp(name, scale_);
      auto image = kivati::MakeProgramImage(app->workload.program);
      apps_.push_back({name, std::move(app), std::move(image)});
    }
  }

  void Pass(PassResult& out) override {
    std::vector<exp::RunSpec> specs;
    for (const std::uint64_t seed : seeds_) {
      for (const Resolved& app : apps_) {
        for (const Config& config : configs_) {
          exp::RunSpec spec;
          spec.label = app.name + "/" + config.label + "/s" + std::to_string(seed);
          spec.prebuilt = app.app;
          spec.image = app.image;
          spec.vanilla = config.vanilla;
          spec.preset = config.preset;
          spec.mode = kivati::KivatiMode::kPrevention;
          spec.machine.num_cores = cores_;
          spec.machine.seed = seed;
          specs.push_back(std::move(spec));
        }
      }
    }
    exp::ExperimentRunner runner(exp::RunnerOptions{.workers = workers()});
    const std::vector<exp::RunRecord> records = runner.RunAll(specs);

    const Span json("report.json");
    Digest digest;
    for (const exp::RunRecord& record : records) {
      ++out.attempted;
      digest.Add(exp::ToJson(record, /*include_wall_clock=*/false));
      if (!record.error.empty()) {
        out.Fail(1, record.label + ": " + record.error);
      } else if (!record.completed) {
        out.Fail(1, record.label + ": did not complete");
      }
    }
    out.extras.json_ms += json.elapsed_ms();
    out.digest = digest.Hex();
  }

 private:
  struct Resolved {
    std::string name;
    std::shared_ptr<const kivati::apps::App> app;
    std::shared_ptr<const kivati::ProgramImage> image;
  };
  unsigned cores_;
  std::vector<Config> configs_;
  kivati::apps::LoadScale scale_;
  std::vector<std::uint64_t> seeds_;
  std::vector<Resolved> apps_;
};

// Forwards the HB detector's events and times each OnEvent call.
class TimedSink : public kivati::TraceSink {
 public:
  explicit TimedSink(kivati::detect::HbLocksetDetector& inner) : inner_(inner) {}
  std::uint32_t wants_mask() const override { return inner_.wants_mask(); }
  void OnEvent(const kivati::TraceEvent& event) override {
    const double start = NowUs();
    inner_.OnEvent(event);
    busy_us += NowUs() - start;
    ++events;
  }

  std::uint64_t events = 0;
  double busy_us = 0.0;

 private:
  kivati::detect::HbLocksetDetector& inner_;
};

// One RunCompare per Table-6 corpus bug and scheduler seed — `kivati
// compare --bug NAME`. Several seeds per bug average out when each seed
// makes the bug fire.
class OracleWorkload : public Workload {
 public:
  OracleWorkload(std::uint64_t seed, Cycles budget, int seeds)
      : bugs_(exp::CorpusBugNames()), budget_(budget) {
    for (int k = 0; k < seeds; ++k) {
      seeds_.push_back(DeriveSeed(seed, static_cast<std::uint64_t>(k)));
    }
  }

  std::string ParamsJson() const override {
    std::string seeds;
    for (const std::uint64_t s : seeds_) {
      seeds += (seeds.empty() ? "" : ",") + std::to_string(s);
    }
    return "{\"command\":\"compare\",\"bugs\":" + std::to_string(bugs_.size()) +
           ",\"budget_cycles\":" + std::to_string(budget_) + ",\"sched_seeds\":[" + seeds +
           "],\"rows_per_pass\":" + std::to_string(rows()) +
           ",\"cores\":2,\"preset\":\"optimized\",\"mode\":\"bug-finding\",\"compare_workers\":" +
           std::to_string(workers()) + "}";
  }

  void Setup() override {
    apps_.clear();
    for (const std::string& bug : bugs_) {
      exp::RunSpec spec;
      spec.bug = bug;
      auto app = exp::ResolveApp(spec);
      kivati::MakeProgramImage(app->workload.program);
      apps_.push_back(std::move(app));
    }
  }

  // Row r is bug r % bugs under seed r / bugs.
  void Pass(PassResult& out) override {
    std::vector<exp::CompareReport> reports(rows());
    std::vector<std::string> errors(rows());
    const Span pool("harness.compare_pool");
    ParallelFor(rows(), workers(), [&](std::size_t r) {
      try {
        exp::CompareOptions options = Options(r);
        options.bugs = {Bug(r)};
        const Span span("harness.compare");
        reports[r] = exp::RunCompare(options);
      } catch (const std::exception& e) {
        errors[r] = e.what();
      }
    });

    const Span json("report.json");
    Digest digest;
    rows_.assign(rows(), exp::CompareRow{});
    for (std::size_t r = 0; r < rows(); ++r) {
      ++out.attempted;
      digest.Add(exp::CompareReportJson(reports[r], /*include_wall_clock=*/false));
      const std::string name = Bug(r) + "@" + std::to_string(Options(r).machine.seed);
      if (!errors[r].empty() || reports[r].rows.size() != 1) {
        out.Fail(1, name + ": " + errors[r]);
        continue;
      }
      const exp::CompareRow& row = rows_[r] = reports[r].rows[0];
      if (!row.error.empty()) {
        out.Fail(1, name + ": " + row.error);
      } else if (!row.hb_found_bug) {
        out.Fail(1, name + ": HB oracle did not convict the bug");
      } else if (row.hb_false_positive_addrs != 0 || row.kivati_false_positive_ars != 0) {
        out.Fail(1, name + ": false positives reported");
      }
      if (row.kivati_found_bug) {
        out.kivati_convicted += (out.kivati_convicted.empty() ? "" : ",") + name;
      }
    }
    out.extras.json_ms += json.elapsed_ms();
    out.digest = digest.Hex();
  }

  // Re-runs each row with a benchmark-owned detector behind a timing sink,
  // built with the options BuildEngine gives the compare run's detector.
  // Its findings must equal the compare row's.
  void Probe(PassResult& out) override {
    std::vector<Extras> parts(rows());
    std::vector<std::string> problems(rows());
    ParallelFor(rows(), workers(), [&](std::size_t r) {
      const Span span("probe.detect");
      const auto& app = apps_[r % bugs_.size()];
      exp::RunSpec spec;
      spec.label = Bug(r);
      spec.prebuilt = app;
      spec.machine = Options(r).machine;
      spec.budget = budget_;
      spec.preset = kivati::OptimizationPreset::kOptimized;
      spec.mode = kivati::KivatiMode::kBugFinding;
      spec.pause_ms = 0.0;
      exp::BuiltRun run = exp::BuildEngine(spec, app);
      kivati::detect::HbDetectorOptions options;
      options.lock_addrs.insert(app->compiled->lock_addrs.begin(), app->compiled->lock_addrs.end());
      kivati::detect::HbLocksetDetector detector(std::move(options));
      TimedSink sink(detector);
      run.engine->trace().hub().Attach(&sink);
      const kivati::RunResult result = run.engine->Run(spec.budget);
      run.engine->trace().hub().Detach(&sink);
      Extras& e = parts[r];
      e.detect_events = sink.events;
      e.detect_busy_ms = sink.busy_us / 1000.0;
      e.detect_accesses = detector.stats().accesses_observed;
      e.detect_shadow_ops = detector.stats().shadow_ops;
      e.detect_instructions = result.instructions;
      const exp::CompareRow& row = rows_[r];
      if (detector.hb_races() != row.hb_races ||
          detector.stats().accesses_observed != row.hb_accesses ||
          detector.lockset_only() != row.hb_lockset_only) {
        problems[r] = Bug(r) + ": timed detector findings differ from the compare run";
      }
    });
    for (std::size_t r = 0; r < rows(); ++r) {
      out.extras += parts[r];
      if (!problems[r].empty()) {
        out.Fail(1, problems[r]);
      }
    }
  }

 private:
  std::size_t rows() const { return bugs_.size() * seeds_.size(); }
  const std::string& Bug(std::size_t row) const { return bugs_[row % bugs_.size()]; }
  exp::CompareOptions Options(std::size_t row) const {
    exp::CompareOptions options;
    options.machine.seed = seeds_[row / bugs_.size()];
    options.budget = budget_;
    return options;
  }

  std::vector<std::string> bugs_;
  std::vector<std::uint64_t> seeds_;
  Cycles budget_;
  std::vector<std::shared_ptr<const kivati::apps::App>> apps_;
  std::vector<exp::CompareRow> rows_;
};

// Fuzz campaigns on one corpus bug, each followed by a strict replay of
// its first discovery and ShrinkSchedule on it — `kivati fuzz`,
// `kivati replay`, `kivati shrink`. Each campaign is serial (one fuzz
// worker); campaigns run side by side on the host threads, and several per
// pass average out how much shrinking each seed's discovery needs.
class HuntWorkload : public Workload {
 public:
  HuntWorkload(std::uint64_t seed, std::string bug, Cycles budget, std::size_t campaigns,
               std::size_t schedules, std::size_t shrink_runs)
      : bug_(std::move(bug)), budget_(budget), shrink_runs_(shrink_runs) {
    fuzz_.max_schedules = schedules;
    fuzz_.plateau = schedules;  // the budget, not coverage, ends the search
    fuzz_.workers = 1;
    // The fuzzer only verifies its discoveries (one shrink run); the
    // explicit ShrinkSchedule below does the shrinking, so a pass holds one
    // shrink per campaign, not two.
    fuzz_.shrink_max_runs = 1;
    for (std::size_t k = 0; k < campaigns; ++k) {
      seeds_.push_back(DeriveSeed(seed, k));
    }
  }

  std::string ParamsJson() const override {
    std::string seeds;
    for (const std::uint64_t s : seeds_) {
      seeds += (seeds.empty() ? "" : ",") + std::to_string(s);
    }
    return "{\"command\":\"fuzz+replay+shrink\",\"bug\":" + JsonString(bug_) +
           ",\"budget_cycles\":" + std::to_string(budget_) + ",\"fuzz_seeds\":[" + seeds +
           "],\"schedules\":" + std::to_string(fuzz_.max_schedules) +
           ",\"plateau\":" + std::to_string(fuzz_.plateau) + ",\"strategy\":" +
           JsonString(fuzz_.strategy) + ",\"fuzz_shrink_runs\":" +
           std::to_string(fuzz_.shrink_max_runs) + ",\"shrink_max_runs\":" +
           std::to_string(shrink_runs_) + ",\"cores\":2,\"preset\":\"optimized\"" +
           ",\"mode\":\"bug-finding\",\"fuzz_workers\":1,\"campaign_workers\":" +
           std::to_string(workers()) + "}";
  }

  // Run-time percentiles cover fuzz candidates only; replay and shrink
  // engines are timed by replay.ms and shrink.ms.
  bool CountsAsRun(const Unit& unit) const override { return unit.guided; }

  void Setup() override {
    auto app = exp::ResolveApp(Spec());
    kivati::MakeProgramImage(app->workload.program);
  }

  void Pass(PassResult& out) override {
    std::vector<PassResult> campaigns(seeds_.size());
    {
      const Span pool("harness.fuzz_pool");
      ParallelFor(seeds_.size(), workers(), [&](std::size_t i) { Campaign(seeds_[i], campaigns[i]); });
    }
    Digest digest;
    for (const PassResult& c : campaigns) {
      digest.Add(c.digest);
      out.attempted += c.attempted;
      out.failed += c.failed;
      out.problems.insert(out.problems.end(), c.problems.begin(), c.problems.end());
      out.extras += c.extras;
    }
    out.digest = digest.Hex();
  }

 private:
  exp::RunSpec Spec() const {
    exp::RunSpec spec;
    spec.bug = bug_;
    spec.budget = budget_;
    spec.preset = kivati::OptimizationPreset::kOptimized;
    spec.mode = kivati::KivatiMode::kBugFinding;
    return spec;
  }

  void Campaign(std::uint64_t seed, PassResult& out) const {
    const exp::RunSpec spec = Spec();
    exp::FuzzOptions options = fuzz_;
    options.seed = seed;
    exp::FuzzReport report;
    {
      const Span span("harness.fuzz");
      report = exp::Fuzz(spec, options);
    }
    Digest digest;
    {
      const Span json("report.json");
      digest.Add(exp::FuzzReportJson(report, /*include_wall_clock=*/false));
      out.extras.json_ms += json.elapsed_ms();
    }
    out.attempted += report.schedules_run;
    out.extras.fuzz_schedules = report.schedules_run;
    out.extras.fuzz_new_coverage = report.coverage_curve.size();
    out.extras.fuzz_discoveries = report.discoveries.size();
    if (!report.errors.empty()) {
      out.Fail(report.errors.size(), "fuzz candidates failed: " + report.errors.front());
    }
    for (const exp::FuzzDiscovery& d : report.discoveries) {
      if (!d.replay_ok) {
        out.Fail(1, "fuzz seed " + std::to_string(seed) + ": discovery at schedule " +
                        std::to_string(d.schedule_index) + " did not replay");
      }
    }
    out.attempted += 2;  // the strict replay and the shrink below
    if (report.discoveries.empty()) {
      out.Fail(2, "fuzz seed " + std::to_string(seed) + " found no violation to replay");
    } else {
      ReplayAndShrink(spec, report.discoveries.front(), digest, out);
    }
    out.digest = digest.Hex();
  }

  void ReplayAndShrink(const exp::RunSpec& spec, const exp::FuzzDiscovery& d, Digest& digest,
                       PassResult& out) const {
    // Regenerate the discovering candidate's schedule from its strategy
    // seed, as the fuzzer did.
    kivati::GuidedSchedule guided;
    kivati::ParseStrategyKind(d.strategy, &guided.kind);
    guided.seed = d.strategy_seed;
    guided.pct_depth = fuzz_.pct_depth;
    guided.preempt_bound = fuzz_.preempt_bound;
    guided.pause_probability = fuzz_.pause_probability;
    exp::RunSpec recorded_spec = spec;
    recorded_spec.guided_schedule = std::make_shared<const kivati::GuidedSchedule>(guided);
    const exp::RunRecord recorded = exp::Execute(recorded_spec);
    if (recorded.schedule == nullptr || recorded.schedule->decisions.size() != d.trace_decisions) {
      out.Fail(2, "regenerated discovery schedule differs from the fuzz report");
      return;
    }

    exp::RunSpec replay_spec = spec;
    replay_spec.replay_schedule = recorded.schedule;
    replay_spec.replay_strict = true;
    exp::RunRecord replayed;
    {
      const Span span("harness.replay");
      replayed = exp::Execute(replay_spec);
      out.extras.replay_ms += span.elapsed_ms();
    }
    const std::string recorded_json = exp::ToJson(recorded, false);
    digest.Add(recorded_json);
    AddSchedule(digest, *recorded.schedule);
    if (!replayed.error.empty() || exp::ToJson(replayed, false) != recorded_json) {
      out.Fail(1, "strict replay diverged: " + replayed.error);
    }

    exp::ReproArtifact artifact =
        exp::MakeReproArtifact(spec, *recorded.schedule, recorded.violation_records);
    artifact.has_target = true;
    artifact.target = d.target;
    exp::ShrinkOptions shrink_options;
    shrink_options.max_runs = shrink_runs_;
    exp::ShrinkResult shrunk;
    {
      const Span span("harness.shrink_cmd");
      shrunk = exp::ShrinkSchedule(artifact, shrink_options);
      out.extras.shrink_ms += span.elapsed_ms();
    }
    out.extras.shrink_runs += shrunk.runs;
    out.extras.shrink_original += shrunk.original_decisions;
    out.extras.shrink_final += shrunk.trace.decisions.size();
    digest.Add(shrunk.runs);
    AddSchedule(digest, shrunk.trace);

    exp::RunSpec verify_spec = spec;
    verify_spec.replay_schedule = std::make_shared<const kivati::ScheduleTrace>(shrunk.trace);
    const exp::RunRecord verified = exp::Execute(verify_spec);
    const bool reproduces = std::any_of(
        verified.violation_records.begin(), verified.violation_records.end(),
        [&](const kivati::ViolationRecord& v) { return exp::MatchesTarget(d.target, v); });
    if (!shrunk.reproduced || !reproduces) {
      out.Fail(1, "shrunk schedule does not reproduce the discovery");
    }
  }

  std::string bug_;
  Cycles budget_;
  std::size_t shrink_runs_;
  exp::FuzzOptions fuzz_;
  std::vector<std::uint64_t> seeds_;
};

// Workload sizes. Chosen so one pass takes about a second or two on a
// 4-core host, and so every seed completes every run (README.md).
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  using P = kivati::OptimizationPreset;
  if (name == "apps-c2") {
    return std::make_unique<AppsWorkload>(
        seed, /*cores=*/2, /*app_workers=*/4, /*iterations=*/250, /*seeds=*/4,
        std::vector<AppsWorkload::Config>{{"vanilla", true, P::kOptimized},
                                          {"base", false, P::kBase},
                                          {"optimized", false, P::kOptimized}});
  }
  if (name == "apps-c8") {
    return std::make_unique<AppsWorkload>(
        seed, /*cores=*/8, /*app_workers=*/8, /*iterations=*/12, /*seeds=*/4,
        std::vector<AppsWorkload::Config>{{"optimized", false, P::kOptimized}});
  }
  if (name == "hb-oracle") {
    return std::make_unique<OracleWorkload>(seed, /*budget=*/5'000'000, /*seeds=*/2);
  }
  if (name == "bug-hunt") {
    return std::make_unique<HuntWorkload>(seed, "NSS-329072", /*budget=*/1'000'000,
                                          /*campaigns=*/16, /*schedules=*/6, /*shrink_runs=*/6);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Expected digests.

struct Expected {
  bool present = false;
  std::string digest;
  std::string kivati_convicted;
};

// Lines "<workload> <seed> <digest> [<convicted,...>]"; '#' starts a comment.
Expected LoadExpected(const std::string& path, const std::string& workload, std::uint64_t seed) {
  Expected expected;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    std::uint64_t line_seed = 0;
    Expected e;
    if (fields >> name >> line_seed >> e.digest && name == workload && line_seed == seed) {
      fields >> e.kivati_convicted;
      e.present = true;
      expected = e;
    }
  }
  return expected;
}

// ---------------------------------------------------------------------------
// Run loop.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path;
  std::string result_path;
  std::string spans_path;
  std::string commit = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::runtime_error("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--expected") {
      args.expected_path = value;
    } else if (flag == "--result") {
      args.result_path = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) {
    throw std::runtime_error("--seconds must be positive");
  }
  return args;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Span aggregates: total and self time per name, self time per layer.
struct SpanTotals {
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;
  std::map<std::string, double> layer_self_ms;
};

std::string LayerOf(const std::string& span) {
  if (span == "pass" || span == "setup" || span.rfind("probe.", 0) == 0) {
    return "bench";
  }
  return span.substr(0, span.find('.'));
}

// Sums spans. A span's self time is its duration minus the part of its
// interval that its children cover, on any thread.
SpanTotals Totals(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_us, s.end_us);
    }
  }
  SpanTotals totals;
  for (const SpanRecord& s : spans) {
    const double ms = (s.end_us - s.start_us) / 1000.0;
    double covered_us = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double reach = s.start_us;
      for (const auto& [start, end] : iv) {
        const double from = std::max(start, reach);
        const double to = std::min(end, s.end_us);
        if (to > from) {
          covered_us += to - from;
          reach = to;
        }
      }
    }
    const double self = ms - covered_us / 1000.0;
    totals.total_ms[s.name] += ms;
    totals.self_ms[s.name] += self;
    totals.layer_self_ms[LayerOf(s.name)] += self;
  }
  return totals;
}

void WriteChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << JsonString(s.name) << ",\"cat\":"
        << JsonString(LayerOf(s.name)) << ",\"ph\":\"X\",\"ts\":" << JsonNumber(s.start_us)
        << ",\"dur\":" << JsonNumber(s.end_us - s.start_us) << ",\"pid\":1,\"tid\":" << s.tid
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"run\":" << s.run
        << "}}";
  }
  out << "\n]}\n";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// The registered app name ("tpcw") of an App workload name ("TPC-W"), or
// "" for other workloads.
std::string RegisteredKey(const std::string& workload_name) {
  std::string key;
  for (const char c : workload_name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  const auto& apps = exp::RegisteredApps();
  return std::find(apps.begin(), apps.end(), key) != apps.end() ? key : "";
}

// Per-layer metrics of one set-up plus the mean traced pass.
std::vector<Metric> LayerMetrics(const Workload& w,
                                 const SpanTotals& setup, const SpanTotals& passes,
                                 const StaticCounts& setup_counts,
                                 const StaticCounts& pass_counts,
                                 const std::vector<PassResult>& traced,
                                 double untraced_pass_ms) {
  const double n = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
  const auto get = [](const std::map<std::string, double>& m, const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  auto span_ms = [&](const std::string& name) {
    return get(setup.total_ms, name) + get(passes.total_ms, name) / n;
  };
  auto self_ms = [&](const std::string& name) {
    return get(setup.self_ms, name) + get(passes.self_ms, name) / n;
  };
  auto layer_ms = [&](const std::string& layer) {
    return get(setup.layer_self_ms, layer) + get(passes.layer_self_ms, layer) / n;
  };
  auto counted = [&](std::uint64_t setup_value, std::uint64_t pass_total) {
    return static_cast<double>(setup_value) + static_cast<double>(pass_total) / n;
  };

  // Engine-level aggregates over the traced passes (per pass).
  double build_ms = 0.0, run_ms = 0.0, builds = 0.0, unit_ms = 0.0;
  double instructions = 0.0, cycles = 0.0, core_cycles = 0.0, switches = 0.0;
  double entries = 0.0, traps = 0.0, suspensions = 0.0, timeouts = 0.0;
  double stall = 0.0, wait = 0.0, fast = 0.0, calls = 0.0, priced = 0.0;
  std::map<std::string, std::pair<double, double>> per_app;  // run ms, instructions
  std::map<std::string, std::pair<double, double>> vanilla;  // run ms, runs
  std::map<std::string, std::pair<double, double>> guarded;  // protected run ms, runs
  double busy_ms = 0.0;
  Extras x;
  for (const PassResult& pass : traced) {
    double pass_unit_ms = 0.0;
    for (const Unit& u : pass.units) {
      build_ms += u.build_ms;
      run_ms += u.run_ms;
      builds += 1;
      pass_unit_ms += u.ms();
      instructions += static_cast<double>(u.instructions);
      cycles += static_cast<double>(u.cycles);
      core_cycles += static_cast<double>(u.cycles) * u.cores;
      switches += static_cast<double>(u.context_switches);
      const kivati::RuntimeStats& s = u.stats;
      entries += static_cast<double>(s.kernel_entries_total());
      traps += static_cast<double>(s.watchpoint_traps);
      suspensions += static_cast<double>(s.remote_suspensions);
      timeouts += static_cast<double>(s.suspension_timeouts);
      stall += static_cast<double>(s.sync_stall.sum());
      wait += static_cast<double>(s.suspension_latency.sum());
      fast += static_cast<double>(s.fast_path_begin + s.fast_path_end + s.fast_path_clear);
      calls += static_cast<double>(s.begin_atomic_calls + s.end_atomic_calls + s.clear_ar_calls);
      priced += static_cast<double>(s.kernel_entries_total() * u.costs.kernel_crossing +
                                    s.watchpoint_traps * u.costs.watchpoint_trap);
      if (const std::string key = RegisteredKey(u.workload); !key.empty()) {
        per_app[key].first += u.run_ms;
        per_app[key].second += static_cast<double>(u.instructions);
        auto& side = u.vanilla ? vanilla[key] : guarded[key];
        side.first += u.run_ms;
        side.second += 1;
      }
    }
    unit_ms += pass_unit_ms;
    busy_ms += pass.ms * w.workers();
    x += pass.extras;
  }
  double traced_pass_ms = 0.0;
  {
    std::vector<double> ms;
    for (const PassResult& pass : traced) {
      ms.push_back(pass.ms);
    }
    traced_pass_ms = Median(ms);
  }

  std::vector<Metric> m;
  m.push_back({"frontend.parse_ms", span_ms("frontend.parse"), "ms"});
  m.push_back({"frontend.mir_ms", span_ms("frontend.mir"), "ms"});
  m.push_back({"frontend.annotate_ms", span_ms("frontend.annotate"), "ms"});
  m.push_back({"frontend.conflict_ms", span_ms("frontend.conflict"), "ms"});
  m.push_back({"frontend.correlate_ms", span_ms("frontend.correlate"), "ms"});
  m.push_back({"frontend.compile_ms", span_ms("frontend.compile"), "ms"});
  m.push_back({"frontend.codegen_ms", self_ms("frontend.compile"), "ms"});
  m.push_back({"frontend.ars_annotated",
               counted(setup_counts.ars_annotated, pass_counts.ars_annotated), "count"});
  m.push_back({"frontend.ars_pruned", counted(setup_counts.ars_pruned, pass_counts.ars_pruned),
               "count"});
  m.push_back({"image.build_ms", span_ms("image.build"), "ms"});
  m.push_back({"image.blocks", counted(setup_counts.image_blocks, pass_counts.image_blocks),
               "count"});
  m.push_back({"image.ops", counted(setup_counts.image_ops, pass_counts.image_ops), "count"});
  m.push_back({"engine.build_ms", Ratio(build_ms, builds), "ms"});
  m.push_back({"engine.builds", builds / n, "count"});
  m.push_back({"machine.run_ms", run_ms / n, "ms"});
  m.push_back({"machine.ns_per_instr", Ratio(run_ms * 1e6, instructions), "ns"});
  m.push_back({"machine.instructions", instructions / n, "count"});
  m.push_back({"machine.cycles", cycles / n, "cycles"});
  m.push_back({"machine.context_switches", switches / n, "count"});
  for (const std::string& app : exp::RegisteredApps()) {
    const auto it = per_app.find(app);
    m.push_back({"machine.ns_per_instr." + app,
                 it == per_app.end() ? 0.0 : Ratio(it->second.first * 1e6, it->second.second),
                 "ns"});
  }
  m.push_back({"kernel.entries", entries / n, "count"});
  m.push_back({"kernel.traps", traps / n, "count"});
  m.push_back({"kernel.suspensions", suspensions / n, "count"});
  m.push_back({"kernel.suspension_timeouts", timeouts / n, "count"});
  m.push_back({"kernel.sync_stall_cycles", stall / n, "cycles"});
  m.push_back({"kernel.suspension_wait_cycles", wait / n, "cycles"});
  m.push_back({"runtime.fast_path_frac", Ratio(fast, calls), "frac"});
  m.push_back({"kernel.virtual_share", Ratio(priced, core_cycles), "frac"});
  {
    double g = 0.0, v = 0.0;
    for (const std::string& app : exp::RegisteredApps()) {
      const auto gi = guarded.find(app);
      const auto vi = vanilla.find(app);
      double frac = 0.0;
      if (gi != guarded.end() && vi != vanilla.end()) {
        const double gm = Ratio(gi->second.first, gi->second.second);
        const double vm = Ratio(vi->second.first, vi->second.second);
        frac = Ratio(gm, vm) - 1.0;
        g += gm;
        v += vm;
      }
      m.push_back({"kernel.host_overhead_frac." + app, frac, "frac"});
    }
    m.push_back({"kernel.host_overhead_frac", v > 0.0 ? g / v - 1.0 : 0.0, "frac"});
  }
  m.push_back({"detect.events", static_cast<double>(x.detect_events) / n, "count"});
  m.push_back({"detect.busy_ms", x.detect_busy_ms / n, "ms"});
  m.push_back({"detect.accesses", static_cast<double>(x.detect_accesses) / n, "count"});
  m.push_back({"detect.shadow_ops", static_cast<double>(x.detect_shadow_ops) / n, "count"});
  m.push_back({"detect.useful_frac",
               Ratio(static_cast<double>(x.detect_events),
                     static_cast<double>(x.detect_instructions)),
               "frac"});
  m.push_back({"fuzz.schedules", static_cast<double>(x.fuzz_schedules) / n, "count"});
  m.push_back({"fuzz.new_coverage_frac",
               Ratio(static_cast<double>(x.fuzz_new_coverage),
                     static_cast<double>(x.fuzz_schedules)),
               "frac"});
  m.push_back({"fuzz.discoveries", static_cast<double>(x.fuzz_discoveries) / n, "count"});
  m.push_back({"shrink.ms", x.shrink_ms / n, "ms"});
  m.push_back({"shrink.runs", static_cast<double>(x.shrink_runs) / n, "count"});
  m.push_back({"shrink.ms_per_run", Ratio(x.shrink_ms, static_cast<double>(x.shrink_runs)), "ms"});
  m.push_back({"shrink.reduction",
               Ratio(static_cast<double>(x.shrink_final), static_cast<double>(x.shrink_original)),
               "frac"});
  m.push_back({"replay.ms", x.replay_ms / n, "ms"});
  m.push_back({"runner.idle_frac", busy_ms > 0.0 ? 1.0 - unit_ms / busy_ms : 0.0, "frac"});
  m.push_back({"report.json_ms", x.json_ms / n, "ms"});
  for (const char* layer : {"frontend", "image", "engine", "machine", "harness", "report"}) {
    m.push_back({std::string("self_ms.") + layer, layer_ms(layer), "ms"});
  }
  m.push_back({"trace_overhead_frac", Ratio(traced_pass_ms, untraced_pass_ms) - 1.0, "frac"});
  return m;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    throw std::runtime_error("unknown workload '" + args.workload +
                             "' (known: apps-c2, apps-c8, hb-oracle, bug-hunt)");
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::printf("warning: build type is %s, not Release; host times are not comparable\n",
                build_type.c_str());
  }
  const Expected expected = args.expected_path.empty()
                                ? Expected{}
                                : LoadExpected(args.expected_path, args.workload, args.seed);

  // Set-up, repeated; a traced run traces one extra repetition.
  std::vector<double> setup_ms;
  SpanTotals setup_spans;
  StaticCounts setup_counts;
  std::vector<SpanRecord> all_spans;
  SetRun(0);
  const double setup_start_us = NowUs();
  while (setup_ms.size() < kSetupMaxReps &&
         (setup_ms.size() < kSetupMinReps || NowUs() - setup_start_us < kSetupMinSeconds * 1e6)) {
    const Span span("setup");
    workload->Setup();
    setup_ms.push_back(span.elapsed_ms());
  }
  if (args.trace) {
    SetTracing(true);
    const Span span("setup");
    workload->Setup();
  }
  SetTracing(false);
  {
    std::vector<SpanRecord> spans = TakeSpans();
    setup_spans = Totals(spans);
    all_spans = std::move(spans);
    setup_counts = TakeStaticCounts();
    TakeUnits();
  }

  // Passes until the time is up: untraced only, or alternating untraced
  // and traced (starting untraced) when tracing.
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<SpanRecord> pass_spans;
  StaticCounts pass_counts;
  const double start_us = NowUs();
  const std::size_t min_passes = args.trace ? 3 : 2;
  double longest_pass_s = 0.0;
  std::size_t run_samples = 0;
  for (std::uint64_t pass = 1;; ++pass) {
    // Start another pass only if it should end within the time.
    const double elapsed_s = (NowUs() - start_us) / 1e6;
    if (untraced.size() + traced.size() >= min_passes &&
        (args.trace || run_samples >= kMinRunSamples) &&
        elapsed_s + longest_pass_s > args.seconds) {
      break;
    }
    const double pass_start_us = NowUs();
    const bool trace_this = args.trace && pass % 2 == 0;
    SetTracing(trace_this);
    SetRun(pass);
    PassResult result;
    {
      const Span span("pass");
      workload->Pass(result);
      result.ms = span.elapsed_ms();
    }
    result.units = TakeUnits();
    if (result.units.empty()) {
      result.Fail(result.attempted, "no engine run was observed; update src/probe.cc's wrappers");
    }
    if (trace_this) {
      std::vector<SpanRecord> spans = TakeSpans();
      pass_spans.insert(pass_spans.end(), spans.begin(), spans.end());
      pass_counts += TakeStaticCounts();
      // The probe's spans go to the trace file only: per-layer times
      // describe the command itself.
      workload->Probe(result);
      TakeUnits();
      TakeStaticCounts();
      spans = TakeSpans();
      all_spans.insert(all_spans.end(), spans.begin(), spans.end());
      traced.push_back(std::move(result));
    } else {
      run_samples += std::count_if(result.units.begin(), result.units.end(),
                                   [&](const Unit& u) { return workload->CountsAsRun(u); });
      untraced.push_back(std::move(result));
    }
    longest_pass_s = std::max(longest_pass_s, (NowUs() - pass_start_us) / 1e6);
  }
  SetTracing(false);

  // Output checks: every pass's digest must match the first pass (and the
  // stored digest for this seed), traced or not.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  const std::string reference = untraced.front().digest;
  for (std::vector<PassResult>* group : {&untraced, &traced}) {
    for (PassResult& pass : *group) {
      attempted += pass.attempted;
      if (pass.digest != reference) {
        pass.Fail(pass.attempted - std::min(pass.failed, pass.attempted),
                  std::string(group == &traced ? "traced" : "untraced") +
                      " pass digest " + pass.digest + " != first pass " + reference);
      }
      if (expected.present && pass.digest != expected.digest) {
        pass.Fail(pass.attempted - std::min(pass.failed, pass.attempted),
                  "digest " + pass.digest + " != stored " + expected.digest);
      }
      if (expected.present && !expected.kivati_convicted.empty() &&
          pass.kivati_convicted != expected.kivati_convicted) {
        pass.Fail(0, "Kivati convicted " + pass.kivati_convicted + ", stored " +
                         expected.kivati_convicted);
      }
      failed += std::min(pass.failed, pass.attempted);
      for (const std::string& p : pass.problems) {
        if (std::find(problems.begin(), problems.end(), p) == problems.end()) {
          problems.push_back(p);
        }
      }
    }
  }
  const bool correct = problems.empty();

  // End-to-end metrics from the untraced passes.
  std::vector<double> pass_s;
  std::vector<double> mips;
  std::vector<double> unit_ms;
  std::map<std::string, std::vector<double>> run_ms;  // by Unit::Key()
  for (const PassResult& pass : untraced) {
    pass_s.push_back(pass.ms / 1000.0);
    double instructions = 0.0;
    for (const Unit& u : pass.units) {
      instructions += static_cast<double>(u.instructions);
      if (workload->CountsAsRun(u)) {
        unit_ms.push_back(u.ms());
        run_ms[u.Key()].push_back(u.ms());
      }
    }
    mips.push_back(instructions / (pass.ms * 1000.0));
  }
  std::sort(unit_ms.begin(), unit_ms.end());
  // Each distinct run's median over the passes, then their geometric mean:
  // unlike a median over the pooled runs, it cannot jump between the
  // clusters that different apps, bugs and configurations form.
  double log_sum = 0.0;
  for (const auto& [key, samples] : run_ms) {
    log_sum += std::log(Median(samples));
  }
  const double run_ms_gmean = run_ms.empty() ? 0.0 : std::exp(log_sum / run_ms.size());
  const double tail_p = TailPercentile(unit_ms.size());
  const double failed_frac = Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::vector<Metric> e2e = {
      {"wall_s", Median(pass_s), "s"},
      {"sim_mips", Median(mips), "MIPS"},
      {"run_ms_gmean", run_ms_gmean, "ms"},
      {"run_ms_tail", Percentile(unit_ms, tail_p), "ms"},
      {"setup_s", Median(setup_ms) / 1000.0, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };

  std::vector<Metric> layers;
  if (args.trace) {
    std::vector<double> untraced_ms;
    for (const PassResult& pass : untraced) {
      untraced_ms.push_back(pass.ms);
    }
    layers = LayerMetrics(*workload, setup_spans, Totals(pass_spans), setup_counts,
                          pass_counts, traced, Median(untraced_ms));
    all_spans.insert(all_spans.end(), pass_spans.begin(), pass_spans.end());
    if (!args.spans_path.empty()) {
      WriteChromeTrace(args.spans_path, all_spans);
    }
  }

  // Human-readable report.
  std::printf("workload %s  seed %llu  passes %zu untraced + %zu traced  build %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), untraced.size(),
              traced.size(), build_type.c_str());
  std::printf("params %s\n", workload->ParamsJson().c_str());
  std::string pass_list;
  for (const double v : pass_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", pass_list.empty() ? "" : " ", v);
    pass_list += buf;
  }
  std::printf("untraced pass seconds: %s\n", pass_list.c_str());
  if (!untraced.front().kivati_convicted.empty()) {
    std::printf("kivati convicted: %s\n", untraced.front().kivati_convicted.c_str());
  }
  std::printf("digest %s%s\n", reference.c_str(),
              expected.present ? (reference == expected.digest ? " (matches stored)" : " (STORED DIFFERS)")
                               : " (no stored digest for this seed)");
  for (const Metric& metric : e2e) {
    std::printf("  %-28s %14.6g %s", metric.name.c_str(), metric.value, metric.unit.c_str());
    if (metric.name == "run_ms_gmean") {
      std::printf("  (%zu distinct runs; pooled p50 %.6g ms)", run_ms.size(),
                  Percentile(unit_ms, 50.0));
    } else if (metric.name == "run_ms_tail") {
      std::printf("  (p%g of %zu runs)", tail_p, unit_ms.size());
    }
    std::printf("\n");
  }
  std::printf("  %-28s %14.6g frac  (%zu of %zu units)\n", "failed_frac", failed_frac, failed,
              attempted);
  for (const Metric& metric : layers) {
    std::printf("  %-28s %14.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }

  const std::vector<Metric>& reported = args.trace ? layers : e2e;
  if (!args.result_path.empty()) {
    std::ofstream out(args.result_path);
    char nproc[16];
    std::snprintf(nproc, sizeof(nproc), "%u", std::thread::hardware_concurrency());
    out << "{\"kind\":\"kivati_perfbench\",\"schema_version\":1,\"workload\":"
        << JsonString(args.workload) << ",\"seed\":" << args.seed
        << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"seconds\":" << JsonNumber(args.seconds)
        << ",\"env\":{\"nproc\":" << nproc << ",\"build_type\":" << JsonString(build_type)
        << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
        << ",\"commit\":" << JsonString(args.commit) << "},\"params\":" << workload->ParamsJson()
        << ",\"passes\":{\"untraced\":" << untraced.size() << ",\"traced\":" << traced.size()
        << "},\"setup_reps\":" << setup_ms.size() << ",\"digest\":" << JsonString(reference)
        << ",\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
        << ",\"failed\":" << failed << ",\"failed_frac\":" << JsonNumber(failed_frac)
        << ",\"run_ms_tail_percentile\":" << JsonNumber(tail_p)
        << ",\"run_samples\":" << unit_ms.size() << ",\"metrics\":" << MetricsJson(reported)
        << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, MetricsJson(reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kvbench: %s\n", e.what());
    return 2;
  }
}
