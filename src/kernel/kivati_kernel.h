// The Kivati kernel component (paper §3.2-§3.3).
//
// Owns the canonical watchpoint image, the per-watchpoint metadata (active
// ARs, recorded trigger accesses, suspended threads), the per-thread AR
// tables, the cross-core opportunistic register synchronization, the trap
// handler with the undo engine, and the suspension timeout.
//
// Layering note: the paper replicates the AR table and watchpoint metadata
// into a user-space library so that begin/end_atomic can often avoid the
// kernel crossing. We model that replication as shared state inside this
// class; the *runtime* layer (src/runtime) decides per call whether the
// operation stayed in user space or crossed into the kernel, and charges
// virtual cycles accordingly. Methods here return which path was required so
// the runtime can account for it — the split the experiments measure is the
// cost split, which this preserves exactly.
#ifndef KIVATI_KERNEL_KIVATI_KERNEL_H_
#define KIVATI_KERNEL_KIVATI_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kernel/config.h"
#include "sched/machine.h"

namespace kivati {

// Why a thread is parked on a watchpoint's suspended list.
enum class SuspendReason : std::uint8_t {
  kTrap,         // made a remote access that was undone
  kBeginAtomic,  // tried to begin an AR on a variable watched by another thread
  kGuard,        // touched a guarded (leaked-value) location
};

// A remote access observed during an AR (not yet known to be a violation).
struct TriggerRecord {
  ThreadId remote = kInvalidThread;
  AccessType type = AccessType::kRead;
  ProgramCounter remote_pc = 0;
  Cycles when = 0;
  // False if the remote access could not be reordered (no spare watchpoint
  // for a leaked read, detection-only mode, or suspension timeout).
  bool prevented = true;
};

// One active atomic region registered on a watchpoint.
struct ArInstance {
  ArId id = kInvalidAr;
  ThreadId owner = kInvalidThread;
  std::uint32_t depth = 0;               // owner's call depth at begin (for clear_ar)
  AccessType first = AccessType::kRead;  // first local access type
  WatchType remote_watch = WatchType::kNone;
  // Multi-variable region membership: the access types the other member
  // variables perform inside the region (analysis/correlation.h). kNone for
  // single-variable ARs.
  WatchType joint = WatchType::kNone;
  ProgramCounter begin_pc = 0;
  Cycles begin_at = 0;

  // Value of the shared variable after the first local access, used to undo
  // remote writes. With opt_local_disable the authoritative copy lives in
  // the shared page instead (see SharedPageSlot).
  std::uint64_t recorded_value = 0;
  // True while waiting for the local first write to trap so its value can
  // be recorded (base configuration, first access = write).
  bool pending_write_record = false;
};

struct SuspendedThread {
  ThreadId tid = kInvalidThread;
  SuspendReason reason = SuspendReason::kTrap;
  Cycles since = 0;  // when the suspension began (latency histogram)
};

// Metadata for one (system-wide) watchpoint register.
struct WatchpointMeta {
  enum class HwState : std::uint8_t {
    kFree,        // register disabled
    kArmed,       // register armed and metadata live
    kStaleArmed,  // lazily freed: hardware armed, metadata dead (opt. 2)
  };

  HwState hw = HwState::kFree;
  Addr addr = 0;
  unsigned size = 0;
  WatchType watch = WatchType::kNone;

  std::vector<ArInstance> ars;
  std::vector<TriggerRecord> triggers;
  std::vector<SuspendedThread> suspended;

  // Guard watchpoints protect a memory location into which a remote read
  // leaked a mid-AR value (paper §3.3). `guard_for` is the suspended remote
  // thread whose re-execution overwrites the leak and releases the guard.
  bool guard = false;
  ThreadId guard_for = kInvalidThread;

  bool live() const { return !ars.empty() || guard; }
};

// Which path an annotation took; the runtime charges cycles accordingly.
enum class PathTaken : std::uint8_t {
  kWhitelisted,  // returned from user space before any metadata work
  kUserFast,     // handled entirely from the replicated user-space metadata
  kKernel,       // required a kernel crossing
};

class KivatiKernel {
 public:
  KivatiKernel(Machine& machine, const KivatiConfig& config);

  KivatiKernel(const KivatiKernel&) = delete;
  KivatiKernel& operator=(const KivatiKernel&) = delete;

  // --- Annotation entry points (called by the runtime layer) ---------------
  // `fast_ok` is whether the user-space fast path may be used (optimization 1
  // enabled). EndAtomic/ClearAr report the cheapest path that *could* have
  // handled them; the runtime charges a crossing anyway when the fast path
  // is disabled.
  PathTaken BeginAtomic(ThreadId tid, const Instruction& instr, Addr ea, bool fast_ok);
  PathTaken EndAtomic(ThreadId tid, const Instruction& instr);
  PathTaken ClearAr(ThreadId tid, std::uint32_t depth);

  // --- Machine event handlers ----------------------------------------------
  // Returns true (trap-before only) if the access must be cancelled.
  bool HandleTrap(ThreadId tid, CoreId core, unsigned slot, const MemAccess& access,
                  ProgramCounter trap_pc);
  void HandleSuspensionTimeout(ThreadId tid);
  void HandleThreadExit(ThreadId tid);
  void SyncCore(CoreId core);
  void HandleContextSwitch(CoreId core, ThreadId prev, ThreadId next);
  // True when SyncCore(core) would provably change nothing: the core's
  // applied register image is already the canonical one, and no sync waiter
  // is satisfiable right now. A waiter blocked on some *other* core's lagging
  // generation stays unsatisfiable until that core enters the kernel itself,
  // which is a hook the machine sees.
  bool SyncCoreIsNoOp(CoreId core) const {
    if (core_generation_[core] < canonical_.generation()) {
      return false;
    }
    if (sync_waiters_.empty()) {
      return true;
    }
    std::uint64_t min_gen = ~std::uint64_t{0};
    for (const std::uint64_t gen : core_generation_) {
      min_gen = std::min(min_gen, gen);
    }
    for (const SyncWaiter& waiter : sync_waiters_) {
      if (waiter.generation <= min_gen) {
        return false;  // CheckSyncWaiters would wake it
      }
    }
    return true;
  }

  // --- Introspection (tests, stats) ----------------------------------------
  const std::vector<WatchpointMeta>& watchpoints() const { return wps_; }
  const KivatiConfig& config() const { return config_; }
  // Number of ARs the given thread currently has open.
  std::size_t OpenArs(ThreadId tid) const;
  bool ThreadHasArsAtDepth(ThreadId tid, std::uint32_t depth) const;

 private:
  struct ThreadAr {
    ArId ar = kInvalidAr;
    unsigned slot = 0;
    std::uint32_t depth = 0;
  };

  // Shared tail of EndAtomic and ClearAr; `from_clear` suppresses violation
  // evaluation (clear_ar discards triggers, §3.2).
  PathTaken EndAtomicImpl(ThreadId tid, ArId ar_id, AccessType second, bool from_clear);

  // In bug-finding mode, occasionally stall the local thread inside its AR.
  // Returns true if a pause was issued.
  bool MaybePauseForBugFinding(ThreadId tid);
  // Ends the pauses of `wp`'s AR owners once a remote access has been
  // caught, so the region completes before the remote's suspension timeout.
  void EndPausesOnWatchpoint(const WatchpointMeta& wp);

  RuntimeStats& stats() { return machine_.trace().stats(); }
  // All kernel emit sites stream through the hub so every attached sink
  // (EventLog ring, detector backends) observes them.
  TraceHub& events() { return machine_.trace().hub(); }
  Cycles TimeoutAt() const {
    return machine_.now() + machine_.costs().FromMs(config_.suspension_timeout_ms);
  }

  // Finds the armed, live watchpoint covering exactly `addr`, if any.
  std::optional<unsigned> FindLiveWatchpoint(Addr addr) const;
  // Finds a slot to arm: a free one, else (with lazy free) a stale one that
  // is reconciled first. Returns nullopt when every slot is live.
  std::optional<unsigned> AcquireSlot();

  // Canonical-image mutation. The hardware image is written through to
  // every core immediately; the *logical* sync protocol (per-core
  // generations, begin_atomic blocking, opportunistic refresh costs) is
  // still modelled, but its race window is not: the paper's recorded-value
  // undo is only sound if no access commits unseen, an assumption the real
  // system gets from sub-microsecond windows and we get by construction.
  void ArmSlot(unsigned slot, Addr addr, unsigned size, WatchType watch);
  void DisarmSlot(unsigned slot);
  // Writes the canonical image (minus per-thread suppression) to `core`'s
  // registers without touching the logical sync generation.
  void WriteHardwareImage(CoreId core);
  // WriteHardwareImage + marks the core logically synced.
  void ApplyImageToCore(CoreId core);
  // Wakes sync waiters whose required generation has propagated everywhere.
  void CheckSyncWaiters();
  // Blocks `tid` until every core has applied the current canonical image.
  // No-op if all cores are already in sync.
  void BlockForSyncIfNeeded(ThreadId tid);

  // The required hardware watch condition for `wp` given its ARs.
  WatchType RequiredWatch(const WatchpointMeta& wp) const;

  // Records the post-first-access value for undo (paper §3.3).
  void RecordValueAtBegin(WatchpointMeta& wp, ArInstance& ar, Addr ea);

  // Undo engine: rolls back the committed remote access described by
  // `access`/`trap_pc` made by `tid`. Returns false if the access could not
  // be reordered (logged, thread continues).
  bool UndoRemoteAccess(ThreadId tid, WatchpointMeta& wp, const MemAccess& access,
                        ProgramCounter trap_pc);

  // Resolves the PC of the instruction that performed a trap-after access,
  // using the rollback table and the call-entry special case.
  std::optional<ProgramCounter> ResolveAccessPc(ThreadId tid, ProgramCounter trap_pc) const;

  void SuspendRemote(ThreadId tid, unsigned slot, SuspendReason reason);
  // Re-records the watchpoint's rollback values from memory after a remote
  // access has been allowed to commit (timeout release, unreorderable
  // access): the "value after the first local access" is stale once any
  // other access legitimately lands, and undoing a later remote access to
  // it would resurrect dead state.
  void RefreshRecordedValues(WatchpointMeta& wp);
  void RemoveArFromThreadTable(ThreadId owner, ArId ar);
  void WakeAllSuspended(WatchpointMeta& wp);
  // Emits the guard-release event for `wp` (a guard watchpoint) in `slot`.
  void EmitGuardRelease(const WatchpointMeta& wp, unsigned slot);

  // Evaluates the triggers of `wp` against the completed AR `ar` whose
  // second access type is `second`; logs violations.
  void EvaluateViolations(const WatchpointMeta& wp, const ArInstance& ar, AccessType second,
                          ProgramCounter second_pc);
  void LogViolation(const ArInstance& ar, Addr addr, unsigned size, const TriggerRecord& trigger,
                    AccessType second, ProgramCounter second_pc);

  Machine& machine_;
  KivatiConfig config_;
  Cycles pause_cycles_ = 0;

  // Canonical (kernel-owned) register image; cores copy it opportunistically.
  DebugRegisterFile canonical_;
  std::vector<std::uint64_t> core_generation_;  // applied generation per core

  struct SyncWaiter {
    ThreadId tid = kInvalidThread;
    std::uint64_t generation = 0;
    Cycles blocked_at = 0;  // when the stall began (sync-stall histogram)
  };
  std::vector<SyncWaiter> sync_waiters_;

  std::vector<WatchpointMeta> wps_;
  std::unordered_map<ThreadId, std::vector<ThreadAr>> thread_ars_;

  // Triggers of ARs that were torn down by a timeout before their
  // end_atomic executed; the violation is still evaluated (and reported as
  // not prevented) when the end_atomic arrives. Keyed by owner and AR id.
  std::unordered_map<std::uint64_t, std::vector<TriggerRecord>> pending_unprevented_;
  std::unordered_map<std::uint64_t, ArInstance> pending_ar_info_;
  std::unordered_map<std::uint64_t, std::pair<Addr, unsigned>> pending_addr_;

  Rng pause_rng_;
  // Threads currently inside a bug-finding pause.
  std::unordered_set<ThreadId> paused_threads_;
  // Threads released by a suspension timeout: their next conflicting access
  // (or begin_atomic) must proceed rather than re-suspend, or a persistent
  // waiter could re-arm its region faster than the released thread can
  // commit, livelocking it. One-shot; the access is logged as unprevented.
  std::unordered_set<ThreadId> timeout_immune_;
  // The timeout is per *delayed access*: a thread woken early and re-trapped
  // at the same PC keeps its original deadline, otherwise repeated
  // re-suspensions would reset the clock forever and starve it.
  struct RetryAnchor {
    ProgramCounter pc = 0;
    Cycles first_suspended = 0;
  };
  std::unordered_map<ThreadId, RetryAnchor> retry_anchor_;

  static std::uint64_t Key(ThreadId tid, ArId ar) {
    return (static_cast<std::uint64_t>(tid) << 32) | ar;
  }
};

}  // namespace kivati

#endif  // KIVATI_KERNEL_KIVATI_KERNEL_H_
