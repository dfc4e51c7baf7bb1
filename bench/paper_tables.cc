// paper_tables [--table NAME]... [--check CLAIMS]
//
// Regenerates the paper's evaluation (§4: Tables 1 and 3-9, Figure 7) and
// four ablations; without --table, every entry in table order. Each entry
// names the run grids it reads and a reducer that prints its table and
// exposes headline values. The selected entries' runs go through one
// exp::ExperimentRunner::RunAll and a shared grid runs once (Tables 4, 5, 7,
// 8 and two ablations reduce Table 3's 45 runs). --check gates the values:
// each CLAIMS line is `name lo hi`, and a value outside its band or never
// measured fails the run (exit 1). Usage errors exit 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bugs.h"
#include "core/trainer.h"
#include "exp/runner.h"
#include "exp/spec_grid.h"
#include "runtime/kivati_runtime.h"

namespace kivati {
namespace {

using enum OptimizationPreset;
using enum KivatiMode;

[[noreturn]] void Fail(int code, const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "paper_tables: %s\n", message.c_str());
  std::exit(code);
}

using Row = std::vector<std::string>;

// Prints `rows`, header first (all rows header-long), each column as wide as its widest cell.
void PrintTable(const std::vector<Row>& rows) {
  std::vector<std::size_t> widths(rows[0].size());
  for (const Row& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) widths[i] = std::max(widths[i], row[i].size());
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::string line = "|", rule = "|";
    for (std::size_t i = 0; i < widths.size(); ++i) {
      line += " " + rows[r][i] + std::string(widths[i] - rows[r][i].size(), ' ') + " |";
      rule += std::string(widths[i] + 2, '-') + "|";
    }
    std::printf(r == 0 ? "%s\n%s\n" : "%s\n", line.c_str(), rule.c_str());
  }
}

// "=== title ===", the table, then `note` (the paper's expected shape).
void Emit(const std::string& title, const std::vector<Row>& rows, const std::string& note) {
  std::printf("=== %s ===\n\n", title.c_str());
  PrintTable(rows);
  std::printf("\n%s", note.c_str());
}

std::string Format(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}
std::string Num(double value, int decimals = 1) {
  return Format(("%." + std::to_string(decimals) + "f").c_str(), value);
}
std::string Pct(double percent, int decimals = 1) { return Num(percent, decimals) + "%"; }
std::string Str(std::uint64_t value) { return std::to_string(value); }

// `part` per `whole`, 0 when `whole` is 0.
double Per(double part, double whole) { return whole > 0 ? part / whole : 0.0; }
double PerSecond(std::uint64_t count, const exp::RunRecord& run) {
  return Per(static_cast<double>(count), run.virtual_seconds);
}
double MissedPercent(const exp::RunRecord& run) {
  return 100.0 * Per(static_cast<double>(run.stats.ars_missed),
                     static_cast<double>(run.stats.ars_entered));
}
// Virtual-time overhead of `run` over `baseline`, in percent.
double OverheadPercent(const exp::RunRecord& baseline, const exp::RunRecord& run) {
  const double base = static_cast<double>(baseline.cycles);
  return 100.0 * Per(static_cast<double>(run.cycles) - base, base);
}
// Geometric mean of (1 + overhead), as the paper reports its averages.
double GeometricMeanOverhead(const std::vector<double>& overheads_percent) {
  double log_sum = 0.0;
  for (const double pct : overheads_percent) log_sum += std::log(1.0 + pct / 100.0);
  return (std::exp(Per(log_sum, static_cast<double>(overheads_percent.size()))) - 1.0) * 100.0;
}

// A grid is a function returning its specs; entries name the grids they read.
using GridFn = std::vector<exp::RunSpec> (*)();
// A grid's specs and their records, in the same order.
struct Cells {
  std::vector<exp::RunSpec> specs;
  std::vector<exp::RunRecord> records;
};
using GridCells = std::map<GridFn, Cells>;
// Headline values by claim name, e.g. "table3.optimized.prevention.geomean".
using Values = std::map<std::string, double>;

const std::vector<std::string>& Apps() { return exp::RegisteredApps(); }
// Both in enum declaration order, which Cell3 relies on.
const std::vector<OptimizationPreset> kPresets = {kBase, kNullSyscall, kSyncVars, kOptimized};
const std::vector<KivatiMode> kModes = {kPrevention, kBugFinding};

// Table 3: per app, vanilla, then every preset × mode, preset-major; the presets derive
// the sync-var whitelist. The server runs also collect Table 5's request latencies.
std::vector<exp::RunSpec> Table3Grid() {
  exp::SpecGrid grid;
  grid.apps = Apps();
  grid.include_vanilla = true;
  grid.presets = kPresets;
  grid.modes = kModes;
  std::vector<exp::RunSpec> specs = grid.Expand();
  for (exp::RunSpec& spec : specs) {
    if (spec.app == "webstone") spec.latency_tag = apps::kWebstoneLatencyTag;
    if (spec.app == "tpcw") spec.latency_tag = apps::kTpcwLatencyTag;
  }
  return specs;
}

// Table 3's record for app index `app`: vanilla, or `preset` in `mode`.
const exp::RunRecord& Cell3(const GridCells& cells, std::size_t app,
                            std::optional<OptimizationPreset> preset,
                            KivatiMode mode = kPrevention) {
  const int cell = preset ? 1 + 2 * static_cast<int>(*preset) + static_cast<int>(mode) : 0;
  return cells.at(Table3Grid).records[app * (1 + kPresets.size() * kModes.size()) + cell];
}
const auto& Vanilla3(const GridCells& cells, std::size_t app) { return Cell3(cells, app, {}); }

// `app` under a hand-set Kivati configuration, without the sync-var whitelist.
exp::RunSpec ConfigSpec(const std::string& app, const KivatiConfig& config) {
  exp::RunSpec spec;
  spec.app = app;
  spec.config_override = config;
  spec.whitelist_sync_vars = false;
  return spec;
}

// Table 6: per corpus bug, base prevention, then the deployed bug-finding configuration
// (pauses sampled aggressively, as beta testers would tolerate) at 20 and 50 ms pauses.
constexpr Cycles kTable6Budget = 120'000'000;  // virtual cycles (24 virtual seconds)

std::vector<exp::RunSpec> Table6Grid() {
  const KivatiConfig bug20 = {
      .mode = kBugFinding, .bugfinding_pause_ms = 20.0, .bugfinding_pause_probability = 0.1};
  KivatiConfig bug50 = bug20;
  bug50.bugfinding_pause_ms = 50.0;
  std::vector<exp::RunSpec> specs;
  for (const apps::BugInfo& bug : apps::BugCorpus()) {
    const auto app = std::make_shared<const apps::App>(apps::MakeBugApp(bug));
    for (const KivatiConfig& config : {KivatiConfig{}, bug20, bug50}) {
      specs.push_back(ConfigSpec("", config));
      specs.back().prebuilt = app;
      specs.back().machine.seed = 17;
      specs.back().budget = kTable6Budget;
    }
  }
  return specs;
}

constexpr unsigned kMinWatchpoints = 2, kMaxWatchpoints = 12;
constexpr std::size_t kWatchpointCounts = kMaxWatchpoints - kMinWatchpoints + 1;

// Table 9: per app, optimized prevention at every register count.
std::vector<exp::RunSpec> Table9Grid() {
  exp::SpecGrid grid;
  grid.apps = Apps();
  for (unsigned n = kMinWatchpoints; n <= kMaxWatchpoints; ++n) grid.watchpoints.push_back(n);
  return grid.Expand();
}

// §3.4's optimizations one at a time. Rows equal to a Table 3 preset in
// prevention mode read its cells; the others run in TogglesGrid.
struct Variant {
  const char* name;
  std::optional<OptimizationPreset> table3;
  KivatiConfig toggles;
};
const Variant kVariants[] = {
    {"base (none)", kBase, {}},
    {"+opt1 fast path", std::nullopt, {.opt_fast_path = true}},
    {"+opt2 lazy free", std::nullopt, {.opt_lazy_free = true}},
    {"+opt1+2", std::nullopt, {.opt_fast_path = true, .opt_lazy_free = true}},
    {"+opt3 local disable", std::nullopt, {.opt_local_disable = true}},
    {"+opt4 sync whitelist", kSyncVars, {}},
    {"all optimizations", kOptimized, {}},
};

// Per toggled variant, in kVariants order, every app.
std::vector<exp::RunSpec> TogglesGrid() {
  std::vector<exp::RunSpec> specs;
  for (const Variant& v : kVariants) {
    if (v.table3.has_value()) continue;
    for (const std::string& app : Apps()) specs.push_back(ConfigSpec(app, v.toggles));
  }
  return specs;
}

// Per app, vanilla and base prevention under trap-before delivery (trap-after is Table 3's).
std::vector<exp::RunSpec> TrapBeforeGrid() {
  exp::SpecGrid grid;
  grid.base.machine.trap_delivery = TrapDelivery::kBefore;
  grid.apps = Apps();
  grid.include_vanilla = true;
  grid.presets = {kBase};
  return grid.Expand();
}

constexpr double kTimeoutsMs[] = {1.0, 2.0, 5.0, 10.0, 20.0, 50.0};

// SPEC OMP vanilla, then the base configuration at every suspension timeout.
std::vector<exp::RunSpec> TimeoutGrid() {
  std::vector<exp::RunSpec> specs = {ConfigSpec("specomp", {})};
  specs[0].vanilla = true;
  for (const double ms : kTimeoutsMs) {
    specs.push_back(ConfigSpec("specomp", {.suspension_timeout_ms = ms}));
  }
  return specs;
}

const std::pair<const char*, AnnotateOptions> kAnnotatorModes[] = {
    {"basic (paper)", {}},
    {"interprocedural", {.interprocedural = true}},
    {"precise aliasing", {.precise_aliasing = true}},
    {"both", {.interprocedural = true, .precise_aliasing = true}},
};
constexpr std::size_t kAnnotatorRunsPerApp = 1 + std::size(kAnnotatorModes);

// Per app, vanilla (basic annotator), then optimized prevention under every
// annotator mode. Prebuilt, so the reducer can read each build's AR count.
std::vector<exp::RunSpec> AnnotatorGrid() {
  std::vector<exp::RunSpec> specs;
  for (const std::string& name : Apps()) {
    for (const auto& [mode, options] : kAnnotatorModes) {
      exp::RunSpec spec;
      spec.scale.annotator = options;
      spec.prebuilt = exp::MakeRegisteredApp(name, spec.scale);
      if (specs.size() % kAnnotatorRunsPerApp == 0) {
        specs.push_back(spec);
        specs.back().vanilla = true;
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

// The survey, then the canonical W..R scenario under both trap deliveries.
void Table1(const GridCells&, Values& values) {
  Emit("Table 1: hardware watchpoint support survey",
       {{"Arch", "Support", "Number", "Type"}, {"x86", "Yes", "4", "After"},
        {"SPARC", "Yes", "2", "Before"}, {"MIPS", "Yes", "1", "Depends on inst."},
        {"ARM", "Yes", "2", "After"}, {"PowerPC", "Yes", "1", ""}},
       "Simulated demonstration (W..R atomic region, remote write mid-region;\n"
       "in both cases the local read must still observe the local value 7):\n");
  for (const TrapDelivery delivery : {TrapDelivery::kAfter, TrapDelivery::kBefore}) {
    ProgramBuilder b;
    auto spin = [&b](std::int64_t iterations) {
      b.LoadImm(7, iterations);
      const auto loop = b.NewLabel();
      b.Bind(loop);
      b.AddI(7, 7, -1);
      b.Bnz(7, loop);
    };
    b.BeginFunction("local");
    b.BeginAtomic(1, MemOperand::Absolute(kDataBase), 8, WatchType::kWrite, AccessType::kWrite);
    b.LoadImm(2, 7);
    b.Store(MemOperand::Absolute(kDataBase), 2);
    spin(3000);
    b.Load(3, MemOperand::Absolute(kDataBase));
    b.EndAtomic(1, AccessType::kRead);
    b.Halt();
    b.EndFunction();
    b.BeginFunction("remote");
    spin(200);
    b.LoadImm(2, 99);
    b.Store(MemOperand::Absolute(kDataBase), 2);
    b.Halt();
    b.EndFunction();
    Machine machine(b.Build(), {.num_cores = 1, .trap_delivery = delivery,
                                .policy = SchedPolicy::kRoundRobin, .quantum = 1000});
    KivatiRuntime runtime(machine, KivatiConfig{});
    machine.SpawnThreadByName("local", 0);
    machine.SpawnThreadByName("remote", 0);
    machine.Run(10'000'000);
    const auto& stats = machine.trace().stats();
    const bool after = delivery == TrapDelivery::kAfter;
    std::printf("  trap %s: traps=%llu, violations=%zu (prevented=%llu), local read saw %llu\n",
                after ? "AFTER (x86-style) " : "BEFORE (SPARC-style)",
                static_cast<unsigned long long>(stats.watchpoint_traps),
                machine.trace().violations().size(),
                static_cast<unsigned long long>(stats.violations_prevented),
                static_cast<unsigned long long>(machine.thread(0).regs[3]));
    values[std::string("table1.") + (after ? "after" : "before") + ".local_read"] =
        static_cast<double>(machine.thread(0).regs[3]);
  }
}

void Table3(const GridCells& cells, Values& values) {
  std::vector<Row> rows = {
      {"Application", "Runtime (virt. s)", "Base", "Null syscall", "SyncVars", "Optimized"}};
  std::map<std::pair<OptimizationPreset, KivatiMode>, std::vector<double>> overheads;
  for (std::size_t a = 0; a < Apps().size(); ++a) {
    rows.push_back({Vanilla3(cells, a).app, Num(Vanilla3(cells, a).virtual_seconds, 3)});
    for (const OptimizationPreset preset : kPresets) {
      std::string cell;  // "prevention / bug-finding"
      for (const KivatiMode mode : kModes) {
        const exp::RunRecord& run = Cell3(cells, a, preset, mode);
        overheads[{preset, mode}].push_back(OverheadPercent(Vanilla3(cells, a), run));
        cell += (cell.empty() ? "" : " / ") + Pct(overheads[{preset, mode}].back()) +
                (run.completed ? "" : "*");
      }
      rows.back().push_back(cell);
    }
  }
  rows.push_back({"geometric mean", ""});
  for (const OptimizationPreset preset : kPresets) {
    std::string cell;
    for (const KivatiMode mode : kModes) {
      const double mean = GeometricMeanOverhead(overheads[{preset, mode}]);
      values[std::string("table3.") + exp::ToString(preset) + "." + exp::ToString(mode) +
             ".geomean"] = mean;
      cell += (cell.empty() ? "" : " / ") + Pct(mean);
    }
    rows.back().push_back(cell);
  }
  Emit("Table 3: run-time overhead vs vanilla (prevention / bug-finding)", rows,
       "Paper shape: base ~30% geo-mean, optimized ~19%; bug-finding adds ~2.5%;\n"
       "SyncVars sits between base and optimized. '*' marks a run that hit its cycle budget.\n");
}

void Table4(const GridCells& cells, Values& values) {
  std::vector<Row> rows = {
      {"App", "Base (K/s)", "SyncVars (K/s)", "Optimized (K/s)", "trap share (base)"}};
  double reduction_sum = 0.0;
  for (std::size_t a = 0; a < Apps().size(); ++a) {
    const RuntimeStats& base = Cell3(cells, a, kBase).stats;
    const double base_total = static_cast<double>(base.kernel_entries_total());
    rows.push_back({Vanilla3(cells, a).app});
    for (const OptimizationPreset preset : {kBase, kSyncVars, kOptimized}) {
      const exp::RunRecord& run = Cell3(cells, a, preset);
      const double total = static_cast<double>(run.stats.kernel_entries_total());
      const double reduction = base_total > 0 ? 100.0 * (1.0 - total / base_total) : 0.0;
      rows.back().push_back(Num(PerSecond(run.stats.kernel_entries_total(), run) / 1000.0) +
                            (preset == kBase ? "" : " (" + Format("%+.0f%%", -reduction) + ")"));
      reduction_sum += preset == kOptimized ? reduction : 0.0;
    }
    rows.back().push_back(
        Pct(100.0 * Per(static_cast<double>(base.kernel_entries_trap), base_total), 2));
  }
  const double average = reduction_sum / static_cast<double>(Apps().size());
  values["table4.avg_reduction"] = average;
  Emit("Table 4: kernel crossings (thousands per virtual second)", rows,
       "Average crossing reduction with all optimizations: " + Pct(average, 0) +
           " (paper: ~41%)\n");
}

// Mean and 95th-percentile request latency of a run, in virtual ms.
std::pair<double, double> Latency(const exp::RunRecord& run) {
  if (run.latencies.empty()) return {0.0, 0.0};
  std::vector<Cycles> sorted = run.latencies;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (const Cycles c : sorted) sum += static_cast<double>(c);
  const CostModel costs = MachineConfig{}.costs;
  return {costs.ToMs(static_cast<Cycles>(sum / static_cast<double>(sorted.size()))),
          costs.ToMs(sorted[sorted.size() * 95 / 100])};
}

void Table5(const GridCells& cells, Values&) {
  std::vector<Row> rows = {
      {"App", "Vanilla mean", "Prevention", "Bug-finding", "p95 van/prev/bug", "requests"}};
  for (const char* server : {"webstone", "tpcw"}) {
    const std::size_t a = std::find(Apps().begin(), Apps().end(), server) - Apps().begin();
    const auto [v_mean, v_p95] = Latency(Vanilla3(cells, a));
    const auto [p_mean, p_p95] = Latency(Cell3(cells, a, kOptimized));
    const auto [b_mean, b_p95] = Latency(Cell3(cells, a, kOptimized, kBugFinding));
    auto over = [&](double mean) {
      return Num(mean, 3) + " (+" + Pct(100.0 * Per(mean - v_mean, v_mean)) + ")";
    };
    rows.push_back({Vanilla3(cells, a).app, Num(v_mean, 3), over(p_mean), over(b_mean),
                    Num(v_p95, 2) + " / " + Num(p_p95, 2) + " / " + Num(b_p95, 2),
                    Str(Vanilla3(cells, a).latencies.size())});
  }
  Emit("Table 5: request latency of the server workloads (virtual ms)", rows,
       "Paper shape: Webstone +6.7%/+9.3%, TPC-W +11.2%/+16.1% over vanilla.\n");
}

void Table6(const GridCells& cells, Values& values) {
  const Cells& t6 = cells.at(Table6Grid);
  const CostModel costs = MachineConfig{}.costs;
  std::vector<Row> rows = {{"App", "Bug ID", "Prevention", "Bug (20ms)", "Bug (50ms)"}};
  int detected_prev = 0, detected_bug = 0;
  for (std::size_t i = 0; i < t6.records.size(); ++i) {
    const apps::BugInfo& bug = apps::BugCorpus()[i / 3];  // three runs per bug
    if (i % 3 == 0) rows.push_back({bug.app, bug.id});
    // The run's first violation of a known-buggy AR is the detection; "-" is none.
    rows.back().push_back("-");
    for (const ViolationRecord& v : t6.records[i].violation_records) {
      if (t6.specs[i].prebuilt->workload.buggy_ars.contains(v.ar_id)) {
        rows.back().back() = Num(costs.ToSeconds(v.when), 2) + "s";
        break;
      }
    }
    if (i % 3 == 2) {
      detected_prev += rows.back()[2] != "-" ? 1 : 0;
      detected_bug += rows.back()[3] != "-" || rows.back()[4] != "-" ? 1 : 0;
    }
  }
  values["table6.detected.prevention"] = detected_prev;
  values["table6.detected.bug-finding"] = detected_bug;
  std::printf("=== Table 6: bug detection & prevention times (virtual seconds) ===\n");
  std::printf("budget per run: %.0f virtual seconds\n\n", costs.ToSeconds(kTable6Budget));
  PrintTable(rows);
  std::printf("\nDetected: %d/11 in prevention mode, %d/11 in bug-finding mode.\n"
              "Paper shape: 8/11 in prevention, 11/11 in bug-finding; bug-finding is\n"
              "consistently faster; 50 ms pauses beat 20 ms only about half the time.\n",
              detected_prev, detected_bug);
}

void Table7(const GridCells& cells, Values&) {
  std::vector<Row> rows = {{"App", "FP (prev)", "Traps/s (prev)", "FP (bug)", "Traps/s (bug)"}};
  for (std::size_t a = 0; a < Apps().size(); ++a) {
    rows.push_back({Vanilla3(cells, a).app});
    for (const KivatiMode mode : kModes) {
      const exp::RunRecord& run = Cell3(cells, a, kOptimized, mode);
      rows.back().push_back(Str(run.false_positive_ars));
      rows.back().push_back(Num(PerSecond(run.stats.watchpoint_traps, run)));
    }
  }
  Emit("Table 7: false positives and watchpoint trap rates", rows,
       "Paper shape: NSS 8, VLC 4, Webstone 12, TPC-W 19, SPEC OMP 5 false positives\n"
       "in prevention mode; bug-finding surfaces a few more per app.\n");
}

void Table8(const GridCells& cells, Values&) {
  std::vector<Row> rows = {{"App", "Missed (K/s)", "Missed (% of ARs)", "ARs entered"}};
  for (std::size_t a = 0; a < Apps().size(); ++a) {
    const exp::RunRecord& run = Cell3(cells, a, kOptimized);
    rows.push_back({run.app, Num(PerSecond(run.stats.ars_missed, run) / 1000.0, 2),
                    Pct(MissedPercent(run), 2), Str(run.stats.ars_entered)});
  }
  Emit("Table 8: ARs missed due to insufficient watchpoint registers", rows,
       "Paper shape: ~5% of ARs go unmonitored with 4 registers.\n");
}

void Table9(const GridCells& cells, Values& values) {
  std::vector<Row> rows = {{"App"}};
  for (unsigned n = kMinWatchpoints; n <= kMaxWatchpoints; ++n) rows[0].push_back(Str(n));
  for (std::size_t a = 0; a < Apps().size(); ++a) {
    const exp::RunRecord* runs = &cells.at(Table9Grid).records[a * kWatchpointCounts];
    rows.push_back({runs[0].app});
    int rises = 0;  // register counts at which one more register missed more ARs
    for (std::size_t i = 0; i < kWatchpointCounts; ++i) {
      rises += i > 0 && MissedPercent(runs[i]) > MissedPercent(runs[i - 1]) ? 1 : 0;
      rows.back().push_back(Pct(MissedPercent(runs[i]), 2));
    }
    values["table9." + Apps()[a] + ".rises"] = rises;
    values["table9." + Apps()[a] + ".w12"] = MissedPercent(runs[kWatchpointCounts - 1]);
  }
  Emit("Table 9: missed ARs vs number of watchpoint registers", rows,
       "Paper shape: monotone decrease, e.g. NSS 57% at 2 registers to 0% by 12.\n");
}

void Fig7(const GridCells&, Values& values) {
  constexpr int kIterations = 8;
  std::vector<Row> rows = {{"App", "Mode"}};
  for (int i = 1; i <= kIterations; ++i) rows[0].push_back("it" + Str(i));
  std::map<KivatiMode, std::vector<std::size_t>> totals;
  for (const apps::App& app : apps::AllPerformanceApps({})) {
    for (const KivatiMode mode : kModes) {
      TrainingOptions options = {.kivati = KivatiConfig::PresetFor(kOptimized, mode),
                                 .whitelist_sync_vars = true, .iterations = kIterations};
      // Training is where aggressive pausing pays off (paper §6).
      if (mode == kBugFinding) options.kivati.bugfinding_pause_probability = 0.05;
      const TrainingResult result = Train(app.workload, options);
      rows.push_back({app.workload.name, exp::ToString(mode)});
      totals[mode].resize(kIterations);
      for (int i = 0; i < kIterations; ++i) {
        rows.back().push_back(Str(result.false_positives[i]));
        totals[mode][i] += result.false_positives[i];
      }
    }
  }
  for (const KivatiMode mode : kModes) {
    rows.push_back({"ALL", exp::ToString(mode)});
    for (const std::size_t fp : totals[mode]) rows.back().push_back(Str(fp));
    values[std::string("fig7.") + exp::ToString(mode) + ".it1"] = totals[mode].front();
    values[std::string("fig7.") + exp::ToString(mode) + ".it8"] = totals[mode].back();
  }
  Emit("Figure 7: false positives over whitelist training iterations", rows,
       "Paper shape: both series decay to ~0; bug-finding starts higher and\n"
       "converges in fewer iterations.\n");
}

void AblationOptimizations(const GridCells& cells, Values&) {
  const std::vector<exp::RunRecord>& toggles = cells.at(TogglesGrid).records;
  std::vector<Row> rows = {{"Variant", "Geo-mean overhead", "Crossings vs base"}};
  double base_crossings = 0;
  std::size_t next_toggle = 0;
  for (const Variant& v : kVariants) {
    std::vector<double> overheads;
    double crossings = 0;
    for (std::size_t a = 0; a < Apps().size(); ++a) {
      const exp::RunRecord& run =
          v.table3.has_value() ? Cell3(cells, a, *v.table3) : toggles[next_toggle++];
      overheads.push_back(OverheadPercent(Vanilla3(cells, a), run));
      crossings += static_cast<double>(run.stats.kernel_entries_total());
    }
    base_crossings = base_crossings == 0 ? crossings : base_crossings;
    rows.push_back({v.name, Pct(GeometricMeanOverhead(overheads)),
                    Format("%+.0f%%", -100.0 * (1.0 - crossings / base_crossings))});
  }
  Emit("Ablation: individual optimization contributions", rows,
       "Expected: every optimization helps individually; the fast path and the\n"
       "whitelist contribute the most, and the full set approaches Table 3's\n"
       "optimized column.\n");
}

void AblationTrapSemantics(const GridCells& cells, Values&) {
  const std::vector<exp::RunRecord>& before = cells.at(TrapBeforeGrid).records;
  std::vector<Row> rows = {{"App", "Overhead after", "Overhead before", "Traps after",
                            "Traps before", "Prevented after/before"}};
  for (std::size_t a = 0; a < Apps().size(); ++a) {
    const exp::RunRecord& after = Cell3(cells, a, kBase);
    const exp::RunRecord& trap_before = before[a * 2 + 1];  // after the app's vanilla run
    rows.push_back({after.app, Pct(OverheadPercent(Vanilla3(cells, a), after)),
                    Pct(OverheadPercent(before[a * 2], trap_before)),
                    Str(after.stats.watchpoint_traps), Str(trap_before.stats.watchpoint_traps),
                    Str(after.stats.violations_prevented) + " / " +
                        Str(trap_before.stats.violations_prevented)});
  }
  Emit("Ablation: trap-after (x86) vs trap-before (SPARC) delivery", rows,
       "Expected: trap-before eliminates the local value-recording traps that\n"
       "write-first ARs need under trap-after delivery, with equal prevention.\n");
}

void AblationTimeout(const GridCells& cells, Values& values) {
  const std::vector<exp::RunRecord>& runs = cells.at(TimeoutGrid).records;
  std::vector<Row> rows = {{"Timeout (ms)", "Overhead", "Timeouts", "Violations (unprevented)"}};
  for (std::size_t t = 0; t < std::size(kTimeoutsMs); ++t) {
    const RuntimeStats& stats = runs[t + 1].stats;
    const double overhead = OverheadPercent(runs[0], runs[t + 1]);
    values["ablation_timeout." + Num(kTimeoutsMs[t], 0) + "ms.overhead"] = overhead;
    rows.push_back({Num(kTimeoutsMs[t], 0), Pct(overhead), Str(stats.suspension_timeouts),
                    Str(stats.violations_detected) + " (" +
                        Str(stats.violations_detected - stats.violations_prevented) + ")"});
  }
  Emit("Ablation: suspension timeout length (SPEC OMP, base config)", rows,
       "Expected: overhead grows with the timeout (each spin-barrier release is\n"
       "delayed by the full timeout); the paper's 10 ms trades bounded delay for\n"
       "prevention of every violation that completes in time.\n");
}

void AblationAnnotator(const GridCells& cells, Values&) {
  const Cells& grid = cells.at(AnnotatorGrid);
  std::vector<Row> rows = {{"App", "Annotator", "ARs", "Overhead", "Crossings", "Missed ARs"}};
  for (std::size_t i = 0; i < grid.records.size(); ++i) {
    const std::size_t m = i % kAnnotatorRunsPerApp;  // 0 is the app's vanilla run
    const exp::RunRecord& run = grid.records[i];
    if (m == 0) continue;
    rows.push_back({run.app, kAnnotatorModes[m - 1].first,
                    Str(grid.specs[i].prebuilt->compiled->num_ars),
                    Pct(OverheadPercent(grid.records[i - m], run)) + (run.completed ? "" : "*"),
                    Str(run.stats.kernel_entries_total()), Str(run.stats.ars_missed)});
  }
  Emit("Ablation: annotator precision", rows,
       "Findings: inter-procedural analysis adds call-spanning regions — more\n"
       "coverage (the paper's §6 motivation) but far more overhead and watchpoint\n"
       "exhaustion, since regions now pin registers across whole calls. Precise\n"
       "aliasing leaves these workloads unchanged (their array indices are\n"
       "run-time values); its wins show up on pointer-copy and constant-index\n"
       "code (see extensions_test.cc).\n");
}

struct Entry {
  const char* name;
  std::vector<GridFn> grids;  // the runs it reads; none for function entries
  void (*reduce)(const GridCells& cells, Values& values);
};
const Entry kEntries[] = {
    {"table1", {}, Table1},
    {"table3", {Table3Grid}, Table3},
    {"table4", {Table3Grid}, Table4},
    {"table5", {Table3Grid}, Table5},
    {"table6", {Table6Grid}, Table6},
    {"table7", {Table3Grid}, Table7},
    {"table8", {Table3Grid}, Table8},
    {"table9", {Table9Grid}, Table9},
    {"fig7", {}, Fig7},
    {"ablation_optimizations", {Table3Grid, TogglesGrid}, AblationOptimizations},
    {"ablation_trap_semantics", {Table3Grid, TrapBeforeGrid}, AblationTrapSemantics},
    {"ablation_timeout", {TimeoutGrid}, AblationTimeout},
    {"ablation_annotator", {AnnotatorGrid}, AblationAnnotator},
};

// Runs each grid the entries read once, all in one RunAll; a failed run aborts.
GridCells RunGrids(const std::set<const Entry*>& entries, unsigned workers) {
  GridCells cells;
  std::vector<GridFn> order;
  std::vector<exp::RunSpec> specs;
  for (const Entry* entry : entries) {
    for (const GridFn grid : entry->grids) {
      if (cells.contains(grid)) continue;
      order.push_back(grid);
      cells[grid].specs = grid();
      specs.insert(specs.end(), cells[grid].specs.begin(), cells[grid].specs.end());
    }
  }
  exp::ExperimentRunner runner({.workers = workers});
  std::vector<exp::RunRecord> records = runner.RunAll(specs);
  auto next = records.begin();
  for (const GridFn grid : order) {
    for (std::size_t i = 0; i < cells[grid].specs.size(); ++i, ++next) {
      if (!next->error.empty()) Fail(1, "run '" + next->label + "' failed: " + next->error);
      cells[grid].records.push_back(std::move(*next));
    }
  }
  return cells;
}

// Checks each `name lo hi` line of the claims file ('#' starts a comment), prints
// one verdict per claim and names the failed ones on stderr. True if all hold.
bool CheckClaims(const std::string& path, const Values& values) {
  std::ifstream in(path);
  std::printf("\n=== Paper claims (%s) ===\n\n", path.c_str());
  int held = 0, failed = 0;
  std::string line, name, extra;
  for (int number = 1; std::getline(in, line); ++number) {
    std::istringstream fields(line.substr(0, line.find('#')));
    double lo = 0.0, hi = 0.0;
    if (!(fields >> name)) continue;
    if (!(fields >> lo >> hi) || (fields >> extra) || lo > hi) {
      Fail(2, path + ":" + Str(number) + ": expected 'name lo hi' with lo <= hi");
    }
    const auto it = values.find(name);
    const bool holds = it != values.end() && it->second >= lo && it->second <= hi;
    const std::string verdict =
        name + " = " + (it == values.end() ? "(not measured)" : Format("%g", it->second)) +
        " in [" + Format("%g", lo) + ", " + Format("%g", hi) + "]";
    std::printf("%s %s\n", holds ? "ok  " : "FAIL", verdict.c_str());
    ++(holds ? held : failed);
    std::fflush(stdout);
    if (!holds) std::fprintf(stderr, "paper_tables: claim failed: %s\n", verdict.c_str());
  }
  if (held + failed == 0) Fail(2, "no claims in '" + path + "'");
  std::printf("\n%d claim(s), %d failed\n", held + failed, failed);
  return failed == 0;
}

int Main(int argc, char** argv) {
  // KIVATI_BENCH_WORKERS: decimal in [0, 1024] like `kivati sweep --jobs`; 0/unset: all cores.
  const char* env = std::getenv("KIVATI_BENCH_WORKERS");
  const std::string workers = env == nullptr ? "0" : env;
  if (workers.empty() || workers.size() > 9 ||
      workers.find_first_not_of("0123456789") != std::string::npos || std::stoul(workers) > 1024) {
    Fail(2, "KIVATI_BENCH_WORKERS: '" + workers + "' is not a worker count in [0, 1024]");
  }
  std::set<const Entry*> selected;  // in table order
  std::string claims_path, known;
  for (const Entry& entry : kEntries) known += std::string(known.empty() ? "" : ", ") + entry.name;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i], value = i + 1 < argc ? argv[i + 1] : "";
    const Entry* entry = std::find_if(std::begin(kEntries), std::end(kEntries),
                                      [&](const Entry& e) { return value == e.name; });
    if (flag == "--check" && std::ifstream(value)) {
      claims_path = value;
    } else if (flag == "--table" && entry != std::end(kEntries)) {
      selected.insert(entry);
    } else {
      Fail(2, flag == "--check"   ? "cannot read claims file '" + value + "'"
              : flag == "--table" ? "unknown table '" + value + "' (known: " + known + ")"
                                  : "usage: paper_tables [--table NAME]... [--check CLAIMS]");
    }
  }
  if (selected.empty()) {
    for (const Entry& entry : kEntries) selected.insert(&entry);
  }
  const GridCells cells = RunGrids(selected, static_cast<unsigned>(std::stoul(workers)));
  Values values;
  for (const Entry* entry : selected) {
    std::printf("%s", entry == *selected.begin() ? "" : "\n");
    entry->reduce(cells, values);
  }
  return claims_path.empty() || CheckClaims(claims_path, values) ? 0 : 1;
}

}  // namespace
}  // namespace kivati

int main(int argc, char** argv) { return kivati::Main(argc, argv); }
