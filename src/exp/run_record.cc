#include "exp/run_record.h"

#include "common/json.h"
#include "common/report_envelope.h"

namespace kivati {
namespace exp {
namespace {

using json::Append;

std::string HistogramJson(const CycleHistogram& hist) {
  std::string out = "{";
  Append(out, "n", hist.count());
  Append(out, "min", static_cast<std::uint64_t>(hist.min()));
  Append(out, "p50", static_cast<std::uint64_t>(hist.Percentile(0.5)));
  Append(out, "p99", static_cast<std::uint64_t>(hist.Percentile(0.99)));
  Append(out, "max", static_cast<std::uint64_t>(hist.max()));
  Append(out, "sum", hist.sum(), /*comma=*/false);
  out += "}";
  return out;
}

std::string StatsJson(const RuntimeStats& stats) {
  std::string out = "{";
  Append(out, "begin_atomic_calls", stats.begin_atomic_calls);
  Append(out, "end_atomic_calls", stats.end_atomic_calls);
  Append(out, "clear_ar_calls", stats.clear_ar_calls);
  Append(out, "kernel_entries_begin", stats.kernel_entries_begin);
  Append(out, "kernel_entries_end", stats.kernel_entries_end);
  Append(out, "kernel_entries_clear", stats.kernel_entries_clear);
  Append(out, "kernel_entries_trap", stats.kernel_entries_trap);
  Append(out, "watchpoint_traps", stats.watchpoint_traps);
  Append(out, "violations_detected", stats.violations_detected);
  Append(out, "violations_prevented", stats.violations_prevented);
  Append(out, "ars_entered", stats.ars_entered);
  Append(out, "ars_missed", stats.ars_missed);
  Append(out, "ars_whitelisted", stats.ars_whitelisted);
  Append(out, "ars_timeout_bypassed", stats.ars_timeout_bypassed);
  Append(out, "remote_suspensions", stats.remote_suspensions);
  Append(out, "suspension_timeouts", stats.suspension_timeouts);
  Append(out, "unreorderable_accesses", stats.unreorderable_accesses);
  Append(out, "bugfinding_pauses", stats.bugfinding_pauses);
  Append(out, "fast_path_begin", stats.fast_path_begin);
  Append(out, "fast_path_end", stats.fast_path_end);
  Append(out, "fast_path_clear", stats.fast_path_clear);
  Append(out, "ars_annotated", stats.ars_annotated);
  Append(out, "ars_no_remote_writer", stats.ars_no_remote_writer);
  Append(out, "ars_lock_protected", stats.ars_lock_protected);
  Append(out, "ars_watch_required", stats.ars_watch_required);
  Append(out, "ars_pruned", stats.ars_pruned);
  out += "\"suspension_latency\":" + HistogramJson(stats.suspension_latency) + ",";
  out += "\"ar_duration\":" + HistogramJson(stats.ar_duration) + ",";
  out += "\"sync_stall\":" + HistogramJson(stats.sync_stall);
  out += "}";
  return out;
}

}  // namespace

const char* ToString(OptimizationPreset preset) {
  switch (preset) {
    case OptimizationPreset::kBase:
      return "base";
    case OptimizationPreset::kNullSyscall:
      return "null";
    case OptimizationPreset::kSyncVars:
      return "syncvars";
    case OptimizationPreset::kOptimized:
      return "optimized";
  }
  return "?";
}

const char* ToString(KivatiMode mode) {
  return mode == KivatiMode::kBugFinding ? "bug-finding" : "prevention";
}

bool ParsePreset(const std::string& text, OptimizationPreset* out) {
  if (text == "base") {
    *out = OptimizationPreset::kBase;
  } else if (text == "null") {
    *out = OptimizationPreset::kNullSyscall;
  } else if (text == "syncvars") {
    *out = OptimizationPreset::kSyncVars;
  } else if (text == "optimized") {
    *out = OptimizationPreset::kOptimized;
  } else {
    return false;
  }
  return true;
}

bool ParseMode(const std::string& text, KivatiMode* out) {
  if (text == "prevention") {
    *out = KivatiMode::kPrevention;
  } else if (text == "bug-finding" || text == "bugfinding") {
    *out = KivatiMode::kBugFinding;
  } else {
    return false;
  }
  return true;
}

namespace {

// The record's fields without the surrounding braces, shared by the plain
// object form (ToJson — sweep rows) and the enveloped report (RunReportJson).
std::string RecordBodyJson(const RunRecord& record, bool include_wall_clock) {
  std::string out;
  Append(out, "label", record.label);
  Append(out, "app", record.app);
  Append(out, "config", record.vanilla ? "vanilla" : ToString(record.preset));
  Append(out, "mode", ToString(record.mode));
  Append(out, "cores", static_cast<std::uint64_t>(record.cores));
  Append(out, "watchpoints", static_cast<std::uint64_t>(record.watchpoints));
  Append(out, "seed", record.seed);
  if (!record.error.empty()) {
    Append(out, "error", record.error, /*comma=*/false);
    return out;
  }
  Append(out, "cycles", static_cast<std::uint64_t>(record.cycles));
  Append(out, "virtual_seconds", record.virtual_seconds);
  Append(out, "instructions", record.instructions);
  Append(out, "completed", record.completed);
  Append(out, "deadlocked", record.deadlocked);
  Append(out, "hit_limit", record.hit_limit);
  Append(out, "violations", static_cast<std::uint64_t>(record.violations));
  Append(out, "violations_prevented", static_cast<std::uint64_t>(record.violations_prevented));
  Append(out, "unique_violating_ars", static_cast<std::uint64_t>(record.unique_violating_ars));
  Append(out, "false_positive_ars", static_cast<std::uint64_t>(record.false_positive_ars));
  if (!record.latencies.empty()) {
    out += "\"latencies\":[";
    for (std::size_t i = 0; i < record.latencies.size(); ++i) {
      if (i != 0) {
        out += ",";
      }
      out += std::to_string(record.latencies[i]);
    }
    out += "],";
  }
  if (record.hb_attached) {
    out += "\"hb\":{";
    Append(out, "races", static_cast<std::uint64_t>(record.hb_races));
    Append(out, "lockset_only", static_cast<std::uint64_t>(record.hb_lockset_only));
    Append(out, "accesses", record.hb_stats.accesses_observed);
    Append(out, "shadow_ops", record.hb_stats.shadow_ops);
    Append(out, "sync_ops", record.hb_stats.sync_ops);
    Append(out, "overhead_ops", record.hb_stats.overhead_ops, /*comma=*/false);
    out += "},";
  }
  if (include_wall_clock) {
    Append(out, "wall_ms", record.wall_ms);
  }
  out += "\"stats\":" + StatsJson(record.stats);
  return out;
}

}  // namespace

std::string ToJson(const RunRecord& record, bool include_wall_clock) {
  return "{" + RecordBodyJson(record, include_wall_clock) + "}";
}

std::string RunReportJson(const RunRecord& record, bool include_wall_clock) {
  return report::EnvelopePrefix({"kivati_run", 1}) +
         RecordBodyJson(record, include_wall_clock) + "}";
}

std::string SweepReportJson(const std::vector<RunRecord>& records, unsigned workers,
                            double total_wall_ms, bool include_wall_clock) {
  std::string out = report::EnvelopePrefix({"kivati_sweep", 2});
  Append(out, "runs_total", static_cast<std::uint64_t>(records.size()));
  if (include_wall_clock) {
    Append(out, "workers", static_cast<std::uint64_t>(workers));
    Append(out, "wall_ms", total_wall_ms);
  }
  out += "\"runs\":[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += ToJson(records[i], include_wall_clock);
    if (i + 1 < records.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace exp
}  // namespace kivati
