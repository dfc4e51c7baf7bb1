#include "analysis/correlation.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "analysis/lockset.h"
#include "analysis/lsv.h"
#include "common/json.h"

namespace kivati {
namespace {

// Release points end the co-access window: control leaves the straight-line
// group update (a call may block or touch arbitrary state; lock/unlock marks
// a synchronization boundary; sleep/io/yield/ret/exit give up the region).
bool IsReleasePoint(MirOp::Kind kind) {
  switch (kind) {
    case MirOp::Kind::kCall:
    case MirOp::Kind::kSpawn:
    case MirOp::Kind::kLock:
    case MirOp::Kind::kUnlock:
    case MirOp::Kind::kSleep:
    case MirOp::Kind::kIo:
    case MirOp::Kind::kYield:
    case MirOp::Kind::kExitSys:
    case MirOp::Kind::kRet:
      return true;
    default:
      return false;
  }
}

// The hardware watch condition that joint evaluation needs: the Figure-2
// rule over the member access mask. A member read makes remote writes
// dangerous; a member write makes remote reads dangerous.
WatchType JointWatch(WatchType joint_types) {
  WatchType watch = WatchType::kNone;
  if (Matches(joint_types, AccessType::kRead)) {
    watch = Union(watch, WatchType::kWrite);
  }
  if (Matches(joint_types, AccessType::kWrite)) {
    watch = Union(watch, WatchType::kRead);
  }
  return watch;
}

// One member access inside a window.
struct WindowEntry {
  int global = -1;
  std::size_t op = 0;
  AccessType type = AccessType::kRead;
  int line = 0;
};

// A maximal release-point-free run of member accesses in one function.
struct Window {
  std::size_t function = 0;
  std::vector<WindowEntry> entries;
};

struct PairData {
  std::vector<CoAccessSite> sites;
  std::set<std::size_t> functions;  // distinct functions with a co-access
};

using PairKey = std::pair<int, int>;  // global indices, first < second

// The direct global access an op performs, if it is eligible for
// correlation: a named scalar or array access to a non-sync global. Pointer
// and local accesses keep their single-variable treatment — name-based
// identity (§3.5) is what makes the set inference whole-module sound.
std::optional<std::pair<int, AccessType>> MemberAccessOf(const MirOp& op,
                                                         const MirModule& module) {
  const auto access = SharedAccessOf(op);
  if (!access.has_value() || access->base.space != VarRef::Space::kGlobal) {
    return std::nullopt;
  }
  switch (op.kind) {
    case MirOp::Kind::kLoadGlobal:
    case MirOp::Kind::kStoreGlobal:
    case MirOp::Kind::kLoadIndex:
    case MirOp::Kind::kStoreIndex:
      break;
    default:
      return std::nullopt;  // lock words and pointer traffic never correlate
  }
  if (module.globals[static_cast<std::size_t>(access->base.index)].is_sync) {
    return std::nullopt;
  }
  return std::make_pair(access->base.index, access->type);
}

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      x = parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
    }
    return x;
  }
  void Merge(int a, int b) { parent_[static_cast<std::size_t>(Find(a))] = Find(b); }

 private:
  std::vector<int> parent_;
};

const char* TypeChar(AccessType type) { return type == AccessType::kRead ? "R" : "W"; }

}  // namespace

const char* ToString(PairPruneReason reason) {
  switch (reason) {
    case PairPruneReason::kNone: return "kept";
    case PairPruneReason::kLockProtected: return "lock-protected";
    case PairPruneReason::kLowSupport: return "low-support";
  }
  return "?";
}

CorrelationReport CorrelateAndFuse(const MirModule& module, ModuleAnnotations& annotations,
                                   const ConflictReport& conflict,
                                   const CorrelationOptions& options) {
  CorrelationReport report;

  // --- 1. Co-access windows ------------------------------------------------
  std::vector<Window> windows;
  const LockSummaries lock_summaries = ComputeLockSummaries(module);
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    const MirFunction& fn = module.functions[f];
    const LsvResult lsv = ComputeLsv(fn);
    Window current{f, {}};
    const auto flush = [&] {
      std::set<int> distinct;
      for (const WindowEntry& e : current.entries) {
        distinct.insert(e.global);
      }
      if (distinct.size() >= 2) {
        windows.push_back(current);
      }
      current.entries.clear();
    };
    for (std::size_t i = 0; i < fn.ops.size(); ++i) {
      const MirOp& op = fn.ops[i];
      if (IsReleasePoint(op.kind)) {
        flush();
        continue;
      }
      const auto member = MemberAccessOf(op, module);
      if (member.has_value() && lsv.Shared(VarRef::Global(member->first))) {
        current.entries.push_back(WindowEntry{member->first, i, member->second, op.line});
      }
    }
    flush();
  }

  // --- 2. Candidate pairs with evidence ------------------------------------
  std::map<PairKey, PairData> candidates;
  for (const Window& window : windows) {
    const MirFunction& fn = module.functions[window.function];
    // First access of each member in the window.
    std::map<int, const WindowEntry*> first_of;
    for (const WindowEntry& e : window.entries) {
      first_of.emplace(e.global, &e);
    }
    std::set<PairKey> seen;  // one site per (pair, window)
    for (const auto& [a, ea] : first_of) {
      for (const auto& [b, eb] : first_of) {
        if (a >= b || !seen.insert({a, b}).second) {
          continue;
        }
        PairData& data = candidates[{a, b}];
        CoAccessSite site;
        site.function = fn.name;
        site.op_a = static_cast<int>(std::min(ea->op, eb->op));
        site.op_b = static_cast<int>(std::max(ea->op, eb->op));
        site.line = fn.ops[static_cast<std::size_t>(site.op_a)].line;
        site.a_type = ea->type;
        site.b_type = eb->type;
        data.sites.push_back(site);
        data.functions.insert(window.function);
      }
    }
  }

  // --- 3. Pruning: conflict verdicts, locksets, support --------------------
  // A variable whose every AR the conflict analysis proved lock-protected is
  // already serialized; it never correlates.
  std::map<int, std::pair<std::size_t, std::size_t>> ar_counts;  // global -> (ars, lock_protected)
  for (const FunctionAnnotations& fa : annotations.functions) {
    for (const FunctionAr& ar : fa.ars) {
      if (ar.var.space != VarRef::Space::kGlobal || ar.id == kInvalidAr ||
          ar.id > conflict.ars.size()) {
        continue;
      }
      auto& counts = ar_counts[ar.var.index];
      ++counts.first;
      if (conflict.ars[ar.id - 1].verdict == ArVerdict::kLockProtected) {
        ++counts.second;
      }
    }
  }
  const auto var_protected = [&](int global) {
    const auto it = ar_counts.find(global);
    return it != ar_counts.end() && it->second.first > 0 &&
           it->second.first == it->second.second;
  };

  // Per-function must-held locksets, computed lazily.
  std::map<std::string, std::vector<std::set<int>>> must_held_cache;
  const auto must_held_of = [&](const MirFunction& fn) -> const std::vector<std::set<int>>& {
    auto it = must_held_cache.find(fn.name);
    if (it == must_held_cache.end()) {
      it = must_held_cache.emplace(fn.name, ComputeMustHeld(module, fn, lock_summaries)).first;
    }
    return it->second;
  };

  std::vector<CorrelatedPair> kept;
  for (auto& [key, data] : candidates) {
    CorrelatedPair pair;
    pair.a = key.first;
    pair.b = key.second;
    pair.a_name = module.globals[static_cast<std::size_t>(key.first)].name;
    pair.b_name = module.globals[static_cast<std::size_t>(key.second)].name;
    pair.sites = std::move(data.sites);
    pair.support = static_cast<int>(data.functions.size());

    // Common trusted lock held continuously across every co-access window?
    std::set<int> common;
    bool first_site = true;
    for (const CoAccessSite& site : pair.sites) {
      const MirFunction* fn = module.FindFunction(site.function);
      const std::set<int> held =
          LocksHeldAcross(module, *fn, lock_summaries, must_held_of(*fn), site.op_a, {site.op_b});
      if (first_site) {
        common = held;
        first_site = false;
      } else {
        std::set<int> next;
        std::set_intersection(common.begin(), common.end(), held.begin(), held.end(),
                              std::inserter(next, next.begin()));
        common = std::move(next);
      }
      if (common.empty()) {
        break;
      }
    }
    if (!common.empty()) {
      pair.pruned = PairPruneReason::kLockProtected;
      pair.lock = module.globals[static_cast<std::size_t>(*common.begin())].name;
    } else if (var_protected(pair.a) || var_protected(pair.b)) {
      pair.pruned = PairPruneReason::kLockProtected;
    } else if (pair.support < options.min_support) {
      pair.pruned = PairPruneReason::kLowSupport;
    }
    if (pair.pruned == PairPruneReason::kNone) {
      kept.push_back(std::move(pair));
    } else {
      report.rejected.push_back(std::move(pair));
    }
  }

  // --- 4. Union surviving pairs into sets ----------------------------------
  UnionFind uf(module.globals.size());
  for (const CorrelatedPair& pair : kept) {
    uf.Merge(pair.a, pair.b);
  }
  std::map<int, CorrelatedSet> by_root;
  for (const CorrelatedPair& pair : kept) {
    CorrelatedSet& set = by_root[uf.Find(pair.a)];
    set.members.push_back(pair.a);
    set.members.push_back(pair.b);
    set.support = std::max(set.support, pair.support);
    set.pairs.push_back(pair);
  }
  for (auto& [root, set] : by_root) {
    std::sort(set.members.begin(), set.members.end());
    set.members.erase(std::unique(set.members.begin(), set.members.end()), set.members.end());
    for (const int member : set.members) {
      set.member_names.push_back(module.globals[static_cast<std::size_t>(member)].name);
    }
    report.sets.push_back(std::move(set));
  }
  std::sort(report.sets.begin(), report.sets.end(),
            [](const CorrelatedSet& x, const CorrelatedSet& y) {
              if (x.support != y.support) {
                return x.support > y.support;
              }
              if (x.members.size() != y.members.size()) {
                return x.members.size() > y.members.size();
              }
              return x.members < y.members;
            });
  for (std::size_t i = 0; i < report.sets.size(); ++i) {
    report.sets[i].id = static_cast<int>(i + 1);
  }

  if (!options.fuse || report.sets.empty()) {
    return report;
  }

  // --- 5. Fusion: rewrite the annotator output -----------------------------
  std::map<int, int> set_of;  // global -> set id
  for (const CorrelatedSet& set : report.sets) {
    for (const int member : set.members) {
      set_of[member] = set.id;
    }
  }
  const auto member_names = [&](const CorrelatedSet& set, int self) {
    std::vector<std::string> names;
    for (const int member : set.members) {
      if (member != self) {
        names.push_back(module.globals[static_cast<std::size_t>(member)].name);
      }
    }
    return names;
  };

  ArId next_id = static_cast<ArId>(annotations.infos.size() + 1);
  for (const Window& window : windows) {
    const MirFunction& fn = module.functions[window.function];
    FunctionAnnotations& fa = annotations.functions[window.function];

    // Group the window's member accesses by set.
    std::map<int, std::vector<const WindowEntry*>> by_set;
    for (const WindowEntry& e : window.entries) {
      const auto it = set_of.find(e.global);
      if (it != set_of.end()) {
        by_set[it->second].push_back(&e);
      }
    }
    for (const auto& [set_id, entries] : by_set) {
      std::set<int> vars_here;
      for (const WindowEntry* e : entries) {
        vars_here.insert(e->global);
      }
      if (vars_here.size() < 2) {
        continue;  // only one member of the set in this window
      }
      CorrelatedSet& set = report.sets[static_cast<std::size_t>(set_id - 1)];

      // Per member: first/last access and type mask inside the window.
      struct MemberSpan {
        std::size_t first_op = 0, last_op = 0;
        AccessType first_type = AccessType::kRead, last_type = AccessType::kRead;
        WatchType types = WatchType::kNone;
      };
      std::map<int, MemberSpan> spans;
      for (const WindowEntry* e : entries) {
        auto [it, inserted] = spans.emplace(e->global, MemberSpan{e->op, e->op, e->type, e->type,
                                                                  ToWatchType(e->type)});
        if (!inserted) {
          it->second.last_op = e->op;
          it->second.last_type = e->type;
          it->second.types = Union(it->second.types, ToWatchType(e->type));
        }
      }
      std::size_t region_end = 0;
      for (const auto& [global, span] : spans) {
        region_end = std::max(region_end, span.last_op);
      }
      const auto joint_for = [&](int self) {
        WatchType mask = WatchType::kNone;
        for (const auto& [global, span] : spans) {
          if (global != self) {
            mask = Union(mask, span.types);
          }
        }
        return mask;
      };

      // Extend every host AR anchored inside the window; remember which
      // members found one.
      std::set<int> hosted;
      bool any_host = false;
      for (FunctionAr& ar : fa.ars) {
        if (ar.var.space != VarRef::Space::kGlobal) {
          continue;
        }
        const auto span_it = spans.find(ar.var.index);
        if (span_it == spans.end()) {
          continue;
        }
        const MemberSpan& span = span_it->second;
        const std::size_t first = static_cast<std::size_t>(ar.first_op);
        if (first < span.first_op || first > region_end) {
          continue;  // anchored outside this window
        }
        const WatchType joint = joint_for(ar.var.index);
        // The region must stay open until the group's last access: drop end
        // sites inside the region, close at its boundary with the member's
        // own last access type (the pairwise Figure-6 decision is preserved;
        // the joint mask carries the rest).
        ar.ends.erase(std::remove_if(ar.ends.begin(), ar.ends.end(),
                                     [&](const std::pair<int, AccessType>& end) {
                                       return static_cast<std::size_t>(end.first) < region_end;
                                     }),
                      ar.ends.end());
        const auto boundary = std::make_pair(static_cast<int>(region_end), span.last_type);
        if (std::find(ar.ends.begin(), ar.ends.end(), boundary) == ar.ends.end()) {
          ar.ends.push_back(boundary);
          std::sort(ar.ends.begin(), ar.ends.end());
        }
        ar.group = set_id;
        ar.joint_types = joint;
        ar.watch = Union(ar.watch, JointWatch(joint));
        hosted.insert(ar.var.index);
        any_host = true;

        ArDebugInfo& info = annotations.infos[ar.id - 1];
        info.watch = ar.watch;
        info.num_ends = static_cast<int>(ar.ends.size());
        info.group = set_id;
        info.correlated = member_names(set, ar.var.index);
        info.joint_types = joint;
        ++set.fused_ars;
        ++report.fused_ars;
        report.changed = true;
      }
      if (!any_host) {
        continue;  // fusion only widens existing regions; it never invents one
      }

      // Members with accesses in the window but no AR of their own: arm a
      // watchpoint for them too (one slot per member variable).
      for (const auto& [global, span] : spans) {
        if (hosted.contains(global)) {
          continue;
        }
        const WatchType joint = joint_for(global);
        FunctionAr ar;
        ar.id = next_id++;
        ar.var = VarRef::Global(global);
        ar.first_op = static_cast<int>(span.first_op);
        ar.first_type = span.first_type;
        ar.watch = Union(RemoteWatchFor(span.first_type, span.last_type), JointWatch(joint));
        ar.ends.emplace_back(static_cast<int>(region_end), span.last_type);
        ar.needs_replica = span.first_type == AccessType::kWrite;
        ar.group = set_id;
        ar.joint_types = joint;
        ar.synthesized = true;

        ArDebugInfo info;
        info.id = ar.id;
        info.function = fn.name;
        info.variable = module.globals[static_cast<std::size_t>(global)].name;
        info.line = fn.ops[span.first_op].line;
        info.first_type = ar.first_type;
        info.watch = ar.watch;
        info.num_ends = 1;
        info.group = set_id;
        info.correlated = member_names(set, global);
        info.joint_types = joint;
        info.synthesized = true;
        annotations.infos.push_back(std::move(info));
        fa.ars.push_back(std::move(ar));
        ++set.synthesized_ars;
        ++report.synthesized_ars;
        report.changed = true;
      }
    }
  }
  return report;
}

std::string FormatCorrelationReport(const CorrelationReport& report) {
  std::string out = "correlated sets: " + std::to_string(report.sets.size()) + " kept, " +
                    std::to_string(report.rejected.size()) + " pair(s) rejected\n";
  for (const CorrelatedSet& set : report.sets) {
    out += "  set " + std::to_string(set.id) + "  {";
    for (std::size_t i = 0; i < set.member_names.size(); ++i) {
      out += (i > 0 ? ", " : "") + set.member_names[i];
    }
    out += "}  support " + std::to_string(set.support) + "  fused " +
           std::to_string(set.fused_ars) + " AR(s), synthesized " +
           std::to_string(set.synthesized_ars) + "\n";
    for (const CorrelatedPair& pair : set.pairs) {
      out += "    " + pair.a_name + " + " + pair.b_name + "  co-accessed in:";
      for (const CoAccessSite& site : pair.sites) {
        out += " " + site.function + ":" + std::to_string(site.line) + "(" +
               TypeChar(site.a_type) + TypeChar(site.b_type) + ")";
      }
      out += "\n";
    }
  }
  for (const CorrelatedPair& pair : report.rejected) {
    out += "  rejected " + pair.a_name + " + " + pair.b_name + ": " + ToString(pair.pruned);
    if (!pair.lock.empty()) {
      out += " (lock " + pair.lock + ")";
    }
    if (pair.pruned == PairPruneReason::kLowSupport) {
      out += " (support " + std::to_string(pair.support) + ")";
    }
    out += "\n";
  }
  return out;
}

std::string CorrelationReportJson(const CorrelationReport& report) {
  const auto pair_json = [&](const CorrelatedPair& pair) {
    std::string out = "{\"a\":" + json::Quote(pair.a_name) + ",\"b\":" +
                      json::Quote(pair.b_name) + ",\"support\":" + std::to_string(pair.support);
    if (pair.pruned != PairPruneReason::kNone) {
      out += ",\"pruned\":\"" + std::string(ToString(pair.pruned)) + "\"";
      if (!pair.lock.empty()) {
        out += ",\"lock\":" + json::Quote(pair.lock);
      }
    }
    out += ",\"sites\":[";
    for (std::size_t i = 0; i < pair.sites.size(); ++i) {
      const CoAccessSite& site = pair.sites[i];
      out += std::string(i > 0 ? "," : "") + "{\"function\":" + json::Quote(site.function) +
             ",\"line\":" + std::to_string(site.line) + ",\"types\":\"" +
             TypeChar(site.a_type) + TypeChar(site.b_type) + "\"}";
    }
    out += "]}";
    return out;
  };
  std::string out = "{\"kept\":" + std::to_string(report.sets.size()) +
                    ",\"rejected_pairs\":" + std::to_string(report.rejected.size()) +
                    ",\"fused_ars\":" + std::to_string(report.fused_ars) +
                    ",\"synthesized_ars\":" + std::to_string(report.synthesized_ars) +
                    ",\"sets\":[";
  for (std::size_t s = 0; s < report.sets.size(); ++s) {
    const CorrelatedSet& set = report.sets[s];
    out += std::string(s > 0 ? "," : "") + "{\"id\":" + std::to_string(set.id) + ",\"members\":[";
    for (std::size_t i = 0; i < set.member_names.size(); ++i) {
      out += std::string(i > 0 ? "," : "") + json::Quote(set.member_names[i]);
    }
    out += "],\"support\":" + std::to_string(set.support) +
           ",\"fused_ars\":" + std::to_string(set.fused_ars) +
           ",\"synthesized_ars\":" + std::to_string(set.synthesized_ars) + ",\"pairs\":[";
    for (std::size_t i = 0; i < set.pairs.size(); ++i) {
      out += std::string(i > 0 ? "," : "") + pair_json(set.pairs[i]);
    }
    out += "]}";
  }
  out += "],\"rejected\":[";
  for (std::size_t i = 0; i < report.rejected.size(); ++i) {
    out += std::string(i > 0 ? "," : "") + pair_json(report.rejected[i]);
  }
  out += "]}";
  return out;
}

}  // namespace kivati
