#include "analysis/conflict.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "analysis/lockset.h"
#include "common/json.h"
#include "common/report_envelope.h"

namespace kivati {
namespace {

// One static thread population: `count` threads whose entry point is
// `function`, able to execute everything `reach` (call-graph closure).
struct ThreadClass {
  int function = -1;
  int count = 1;
  std::set<int> reach;
};

int IndexOf(const MirModule& module, const MirFunction* function) {
  return static_cast<int>(function - module.functions.data());
}

std::set<int> Reachable(const MirModule& module, int root) {
  std::set<int> seen{root};
  std::vector<int> work{root};
  while (!work.empty()) {
    const int f = work.back();
    work.pop_back();
    for (const MirOp& op : module.functions[static_cast<std::size_t>(f)].ops) {
      if (op.kind != MirOp::Kind::kCall) {
        continue;
      }
      const MirFunction* callee = module.FindFunction(op.callee);
      if (callee != nullptr && seen.insert(IndexOf(module, callee)).second) {
        work.push_back(IndexOf(module, callee));
      }
    }
  }
  return seen;
}

// Roots plus every (transitively) reachable spawn target. A spawn target
// gets count 2: the spawn site may execute more than once, so the target
// must be assumed concurrent with itself.
std::vector<ThreadClass> BuildClasses(const MirModule& module, const ConflictOptions& options) {
  std::vector<ThreadClass> classes;
  std::set<int> have_root;
  if (options.roots.empty()) {
    // Thread structure unknown: every function may run on 2+ threads.
    for (std::size_t f = 0; f < module.functions.size(); ++f) {
      classes.push_back({static_cast<int>(f), 2, Reachable(module, static_cast<int>(f))});
    }
    return classes;
  }
  for (const auto& [name, count] : options.roots) {
    const MirFunction* fn = module.FindFunction(name);
    if (fn == nullptr) {
      continue;
    }
    const int index = IndexOf(module, fn);
    if (have_root.insert(index).second) {
      classes.push_back({index, count, Reachable(module, index)});
    } else {
      for (ThreadClass& c : classes) {
        if (c.function == index) {
          c.count += count;
        }
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    // Collect first, append after: pushing into `classes` mid-iteration
    // would invalidate the references being walked.
    std::vector<int> pending;
    for (const ThreadClass& c : classes) {
      for (const int f : c.reach) {
        for (const MirOp& op : module.functions[static_cast<std::size_t>(f)].ops) {
          if (op.kind != MirOp::Kind::kSpawn) {
            continue;
          }
          const MirFunction* target = module.FindFunction(op.callee);
          if (target == nullptr) {
            continue;
          }
          const int index = IndexOf(module, target);
          if (have_root.insert(index).second) {
            pending.push_back(index);
          }
        }
      }
    }
    for (const int index : pending) {
      classes.push_back({index, 2, Reachable(module, index)});
      changed = true;
    }
  }
  return classes;
}

// Globals whose address escapes: a pointer dereference anywhere may reach
// them (the module's aliasing assumption — pointers only target
// address-taken objects).
std::set<int> AddressTakenGlobals(const MirModule& module) {
  std::set<int> taken;
  for (const MirFunction& function : module.functions) {
    for (const MirOp& op : function.ops) {
      if (op.kind == MirOp::Kind::kAddrGlobal) {
        taken.insert(op.global);
      } else if (op.kind == MirOp::Kind::kAddrIndex && op.array.space == VarRef::Space::kGlobal) {
        taken.insert(op.array.index);
      }
    }
  }
  return taken;
}

std::string PairCase(const FunctionAr& ar) {
  WatchType seconds = WatchType::kNone;
  for (const auto& [op, type] : ar.ends) {
    seconds = Union(seconds, ToWatchType(type));
  }
  std::string out = ar.first_type == AccessType::kRead ? "R.." : "W..";
  out += seconds == WatchType::kReadWrite ? "RW" : (seconds == WatchType::kWrite ? "W" : "R");
  out += " watches remote ";
  out += ar.watch == WatchType::kReadWrite ? "RW" : (ar.watch == WatchType::kWrite ? "W" : "R");
  return out;
}

class Analyzer {
 public:
  Analyzer(const MirModule& module, const ModuleAnnotations& annotations,
           const ConflictOptions& options)
      : module_(module),
        annotations_(annotations),
        options_(options),
        classes_(BuildClasses(module, options)),
        taken_globals_(AddressTakenGlobals(module)),
        locks_(ComputeLockSummaries(module)),
        must_held_(module.functions.size()) {}

  ConflictReport Run() {
    ConflictReport report;
    report.ars.resize(annotations_.infos.size());
    ComputeRemoteFunctions();
    for (std::size_t f = 0; f < module_.functions.size(); ++f) {
      for (const FunctionAr& ar : annotations_.functions[f].ars) {
        ArConflict conflict = Classify(static_cast<int>(f), ar);
        switch (conflict.verdict) {
          case ArVerdict::kNoRemoteWriter:
            ++report.no_remote_writer;
            break;
          case ArVerdict::kLockProtected:
            ++report.lock_protected;
            break;
          case ArVerdict::kWatchRequired:
            ++report.watch_required;
            break;
        }
        if (options_.prune && conflict.verdict != ArVerdict::kWatchRequired) {
          report.pruned.insert(conflict.id);
        }
        report.ars[conflict.id - 1] = std::move(conflict);
      }
    }
    return report;
  }

 private:
  // remote_fns_[f] = functions whose code may execute on a thread running
  // concurrently with a thread that is executing f.
  void ComputeRemoteFunctions() {
    remote_fns_.assign(module_.functions.size(), {});
    std::vector<std::vector<std::size_t>> classes_of(module_.functions.size());
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      for (const int f : classes_[c].reach) {
        classes_of[static_cast<std::size_t>(f)].push_back(c);
      }
    }
    for (std::size_t f = 0; f < module_.functions.size(); ++f) {
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        bool concurrent = false;
        for (const std::size_t c0 : classes_of[f]) {
          if (c0 != c || classes_[c].count >= 2) {
            concurrent = true;
            break;
          }
        }
        if (concurrent) {
          remote_fns_[f].insert(classes_[c].reach.begin(), classes_[c].reach.end());
        }
      }
    }
  }

  const std::vector<std::set<int>>& MustHeldFor(int f) {
    auto& cached = must_held_[static_cast<std::size_t>(f)];
    if (!cached.has_value()) {
      cached = ComputeMustHeld(module_, module_.functions[static_cast<std::size_t>(f)], locks_);
    }
    return *cached;
  }

  // Locks certainly still held while the access hosted by op `index` runs:
  // must-held at entry, minus everything a call op's callee may release (the
  // access then happens inside the callee, possibly after those unlocks).
  std::set<int> HeldDuring(int f, int index, std::set<int> held) {
    const MirOp& op = module_.functions[static_cast<std::size_t>(f)].ops[static_cast<std::size_t>(index)];
    if (op.kind == MirOp::Kind::kCall) {
      const MirFunction* callee = module_.FindFunction(op.callee);
      if (callee == nullptr) {
        return {};
      }
      for (const int lock : locks_.may_unlock[static_cast<std::size_t>(IndexOf(module_, callee))]) {
        held.erase(lock);
      }
    }
    return held;
  }

  ArConflict Classify(int f, const FunctionAr& ar) {
    ArConflict conflict;
    conflict.id = ar.id;
    conflict.pair_case = PairCase(ar);
    CollectRemoteSites(f, ar, conflict.remote_sites);
    if (conflict.remote_sites.empty()) {
      conflict.verdict = ArVerdict::kNoRemoteWriter;
      return conflict;
    }
    const int lock = FindProtectingLock(f, ar, conflict.remote_sites);
    if (lock >= 0) {
      conflict.verdict = ArVerdict::kLockProtected;
      conflict.lock = module_.globals[static_cast<std::size_t>(lock)].name;
      conflict.remote_sites.clear();
      return conflict;
    }
    conflict.verdict = ArVerdict::kWatchRequired;
    return conflict;
  }

  // All concurrently-reachable accesses the AR's watchpoint would trap on.
  // `site_ops` (parallel to the output) keeps the op indices for the lockset
  // queries.
  void CollectRemoteSites(int f, const FunctionAr& ar, std::vector<RemoteSite>& out) {
    site_fn_op_.clear();
    const bool local_identity = ar.var.space == VarRef::Space::kLocal;
    const bool via_pointer_reachable =
        local_identity || taken_globals_.contains(ar.var.index);
    for (const int g : remote_fns_[static_cast<std::size_t>(f)]) {
      const MirFunction& fn = module_.functions[static_cast<std::size_t>(g)];
      for (std::size_t i = 0; i < fn.ops.size(); ++i) {
        const auto access = SharedAccessOf(fn.ops[i]);
        if (!access.has_value() || !Matches(ar.watch, access->type)) {
          continue;
        }
        const bool is_ptr_deref = fn.ops[i].kind == MirOp::Kind::kLoadPtr ||
                                  fn.ops[i].kind == MirOp::Kind::kStorePtr;
        bool aliases = false;
        bool via_pointer = false;
        if (local_identity) {
          // A pointer-identified (or address-taken-local) region may alias
          // any concurrent memory access: stay maximally conservative.
          aliases = true;
          via_pointer = true;
        } else if (access->base.space == VarRef::Space::kGlobal &&
                   access->base.index == ar.var.index) {
          aliases = true;
        } else if (via_pointer_reachable && is_ptr_deref) {
          aliases = true;
          via_pointer = true;
        }
        if (!aliases) {
          continue;
        }
        RemoteSite site;
        site.function = fn.name;
        site.op = static_cast<int>(i);
        site.line = fn.ops[i].line;
        site.type = access->type;
        site.via_pointer = via_pointer;
        out.push_back(std::move(site));
        site_fn_op_.emplace_back(g, static_cast<int>(i));
      }
    }
  }

  // A trusted sync lock held continuously across the local pair and at every
  // dangerous remote site, or -1.
  int FindProtectingLock(int f, const FunctionAr& ar, const std::vector<RemoteSite>& sites) {
    const MirFunction& fn = module_.functions[static_cast<std::size_t>(f)];
    std::vector<int> ends;
    ends.reserve(ar.ends.size());
    for (const auto& [op, type] : ar.ends) {
      ends.push_back(op);
    }
    std::set<int> held =
        LocksHeldAcross(module_, fn, locks_, MustHeldFor(f), ar.first_op, ends);
    held = HeldDuring(f, ar.first_op, std::move(held));
    for (const int end : ends) {
      held = HeldDuring(f, end, std::move(held));
    }
    // Only sync-qualified lock words count (the language's locking
    // discipline; see docs/language.md).
    for (auto it = held.begin(); it != held.end();) {
      if (!module_.globals[static_cast<std::size_t>(*it)].is_sync) {
        it = held.erase(it);
      } else {
        ++it;
      }
    }
    for (std::size_t s = 0; s < sites.size() && !held.empty(); ++s) {
      const auto [g, op] = site_fn_op_[s];
      std::set<int> at_site = MustHeldFor(g)[static_cast<std::size_t>(op)];
      at_site = HeldDuring(g, op, std::move(at_site));
      for (auto it = held.begin(); it != held.end();) {
        if (!at_site.contains(*it)) {
          it = held.erase(it);
        } else {
          ++it;
        }
      }
    }
    return held.empty() ? -1 : *held.begin();
  }

  const MirModule& module_;
  const ModuleAnnotations& annotations_;
  const ConflictOptions& options_;
  std::vector<ThreadClass> classes_;
  std::set<int> taken_globals_;
  LockSummaries locks_;
  std::vector<std::optional<std::vector<std::set<int>>>> must_held_;
  std::vector<std::set<int>> remote_fns_;
  std::vector<std::pair<int, int>> site_fn_op_;  // parallel to CollectRemoteSites output
};

const char* AccessLetter(AccessType type) { return type == AccessType::kRead ? "R" : "W"; }

}  // namespace

const char* ToString(ArVerdict verdict) {
  switch (verdict) {
    case ArVerdict::kNoRemoteWriter:
      return "no-remote-writer";
    case ArVerdict::kLockProtected:
      return "lock-protected";
    case ArVerdict::kWatchRequired:
      return "watch-required";
  }
  return "?";
}

ConflictReport AnalyzeConflicts(const MirModule& module, const ModuleAnnotations& annotations,
                                const ConflictOptions& options) {
  return Analyzer(module, annotations, options).Run();
}

std::string FormatConflictReport(const ConflictReport& report,
                                 const std::vector<ArDebugInfo>& infos) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "conflict analysis: %zu ARs: %zu watch-required, %zu lock-protected, "
                "%zu no-remote-writer (%zu pruned)\n",
                report.ars.size(), report.watch_required, report.lock_protected,
                report.no_remote_writer, report.pruned.size());
  out += buf;

  std::vector<const ArConflict*> ranked;
  for (const ArConflict& ar : report.ars) {
    if (ar.verdict == ArVerdict::kWatchRequired) {
      ranked.push_back(&ar);
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(), [](const ArConflict* a, const ArConflict* b) {
    return a->remote_sites.size() > b->remote_sites.size();
  });
  if (!ranked.empty()) {
    out += "watch-required (most conflicting sites first):\n";
    for (const ArConflict* ar : ranked) {
      const ArDebugInfo& info = infos[ar->id - 1];
      std::snprintf(buf, sizeof(buf), "  AR %-4u %-20s %s:%d  [%s]  %zu remote site%s:",
                    ar->id, info.variable.c_str(), info.function.c_str(), info.line,
                    ar->pair_case.c_str(), ar->remote_sites.size(),
                    ar->remote_sites.size() == 1 ? "" : "s");
      out += buf;
      const std::size_t shown = std::min<std::size_t>(ar->remote_sites.size(), 4);
      for (std::size_t i = 0; i < shown; ++i) {
        const RemoteSite& site = ar->remote_sites[i];
        std::snprintf(buf, sizeof(buf), " %s:%d(%s%s)", site.function.c_str(), site.line,
                      AccessLetter(site.type), site.via_pointer ? " via *" : "");
        out += buf;
      }
      if (ar->remote_sites.size() > shown) {
        std::snprintf(buf, sizeof(buf), " +%zu more", ar->remote_sites.size() - shown);
        out += buf;
      }
      out += "\n";
    }
  }
  bool header = false;
  for (const ArConflict& ar : report.ars) {
    if (ar.verdict != ArVerdict::kLockProtected) {
      continue;
    }
    if (!header) {
      out += "lock-protected:\n";
      header = true;
    }
    const ArDebugInfo& info = infos[ar.id - 1];
    std::snprintf(buf, sizeof(buf), "  AR %-4u %-20s %s:%d  guarded by %s\n", ar.id,
                  info.variable.c_str(), info.function.c_str(), info.line, ar.lock.c_str());
    out += buf;
  }
  header = false;
  for (const ArConflict& ar : report.ars) {
    if (ar.verdict != ArVerdict::kNoRemoteWriter) {
      continue;
    }
    if (!header) {
      out += "no-remote-writer:\n";
      header = true;
    }
    const ArDebugInfo& info = infos[ar.id - 1];
    std::snprintf(buf, sizeof(buf), "  AR %-4u %-20s %s:%d\n", ar.id, info.variable.c_str(),
                  info.function.c_str(), info.line);
    out += buf;
  }
  return out;
}

std::string ConflictReportJson(const ConflictReport& report,
                               const std::vector<ArDebugInfo>& infos) {
  char buf[128];
  std::string out = report::EnvelopePrefix({"kivati_analyze", 1});
  std::snprintf(buf, sizeof(buf),
                "\"ars_total\":%zu,\"watch_required\":%zu,\"lock_protected\":%zu,"
                "\"no_remote_writer\":%zu,\"pruned\":%zu,\"ars\":[\n",
                report.ars.size(), report.watch_required, report.lock_protected,
                report.no_remote_writer, report.pruned.size());
  out += buf;
  for (std::size_t i = 0; i < report.ars.size(); ++i) {
    const ArConflict& ar = report.ars[i];
    const ArDebugInfo& info = infos[i];
    out += "{\"id\":" + std::to_string(ar.id);
    out += ",\"function\":" + json::Quote(info.function);
    out += ",\"variable\":" + json::Quote(info.variable);
    out += ",\"line\":" + std::to_string(info.line);
    out += ",\"verdict\":\"";
    out += ToString(ar.verdict);
    out += "\",\"case\":" + json::Quote(ar.pair_case);
    out += ",\"pruned\":";
    out += report.pruned.contains(ar.id) ? "true" : "false";
    if (!ar.lock.empty()) {
      out += ",\"lock\":" + json::Quote(ar.lock);
    }
    if (!ar.remote_sites.empty()) {
      out += ",\"remote_sites\":[";
      for (std::size_t s = 0; s < ar.remote_sites.size(); ++s) {
        const RemoteSite& site = ar.remote_sites[s];
        if (s != 0) {
          out += ",";
        }
        out += "{\"function\":" + json::Quote(site.function);
        out += ",\"line\":" + std::to_string(site.line);
        out += ",\"type\":\"";
        out += AccessLetter(site.type);
        out += "\",\"via_pointer\":";
        out += site.via_pointer ? "true" : "false";
        out += "}";
      }
      out += "]";
    }
    out += "}";
    if (i + 1 < report.ars.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace kivati
