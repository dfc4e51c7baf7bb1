// The simulated multicore machine.
//
// A Machine executes one Program over a shared AddressSpace on `num_cores`
// simulated cores, each with its own bank of hardware watchpoint registers.
// Scheduling is discrete-event: each core has its own clock; the core with
// the smallest clock executes the next instruction of its current thread and
// advances by that instruction's cost. Preemption happens on quantum expiry
// (modelled as a timer interrupt — a kernel entry) and whenever a thread
// blocks. All scheduling randomness comes from a seeded RNG, so runs are
// fully reproducible.
//
// The machine knows nothing about atomicity violations: it raises the
// KivatiHooks callbacks at the architectural events (annotations, watchpoint
// matches, kernel entries, context switches) and exposes the control surface
// (suspend/resume/pc rollback/extra cycle charges) that the Kivati kernel
// component needs. With no hooks installed it behaves as the paper's vanilla
// system.
#ifndef KIVATI_SCHED_MACHINE_H_
#define KIVATI_SCHED_MACHINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "exec/block_translate.h"
#include "hw/debug_registers.h"
#include "isa/program.h"
#include "isa/rollback_table.h"
#include "mem/address_space.h"
#include "sched/cost_model.h"
#include "sched/hooks.h"
#include "sched/schedule_trace.h"
#include "sched/thread.h"
#include "trace/trace.h"

namespace kivati {

// PC value that a thread returns to when its entry function returns.
inline constexpr ProgramCounter kThreadExitPc = 0xDEAD0000;

enum class SchedPolicy : std::uint8_t {
  kRoundRobin,  // FIFO ready queue
  kRandom,      // uniformly random runnable thread (seeded)
};

struct MachineConfig {
  unsigned num_cores = 2;                       // the paper's Core 2 Duo
  unsigned watchpoints_per_core = kDefaultWatchpointCount;
  TrapDelivery trap_delivery = TrapDelivery::kAfter;
  SchedPolicy policy = SchedPolicy::kRandom;
  Cycles quantum = 4000;
  std::uint64_t seed = 1;
  CostModel costs;
  // Execute through the basic-block translation engine (exec/
  // block_translate.h): predecoded fused superinstructions with the
  // per-instruction watchpoint filter and scheduler poll hoisted to block
  // boundaries. Off selects the per-instruction engine, which executes the
  // same predecoded ops one at a time with the full access-list and trap
  // machinery and is the block engine's differential reference. No
  // ScheduleController call happens inside a fused op, so recording,
  // replaying and guided controllers need no deopt; the block engine
  // deoptimizes to per-instruction execution only while an access-level
  // trace sink listens, and must be byte-identical either way (`kivati run
  // --engine interp`, block_translate_test, tests/golden/engine_digests.txt).
  bool block_translate = true;
};

// The immutable per-program state a Machine executes: the program plus its
// derived rollback table. Building a RollbackTable scans the whole program,
// so harnesses that construct many engines for one workload (the shrinker's
// ddmin candidates, sweep grids) share one image instead of re-deriving it
// per run (docs/performance.md).
struct ProgramImage {
  Program program;
  RollbackTable rollback;
  // Basic-block translation (exec/block_translate.h), derived once here so
  // every machine sharing the image — sweep grids, fuzz and shrink workers
  // — shares the translation instead of re-deriving it per run.
  exec::BlockTranslation blocks;

  explicit ProgramImage(Program p)
      : program(std::move(p)), rollback(program), blocks(program) {}
};

std::shared_ptr<const ProgramImage> MakeProgramImage(Program program);

struct RunResult {
  Cycles cycles = 0;               // virtual time when the run ended
  std::uint64_t instructions = 0;  // total instructions executed
  bool all_done = false;           // every thread reached kDone
  bool deadlocked = false;         // nothing runnable and no pending wake
  bool hit_limit = false;          // stopped at the cycle limit
};

class Machine {
 public:
  // Convenience: wraps `program` in a private ProgramImage.
  Machine(Program program, MachineConfig config);
  // Shares an immutable image across machines (see ProgramImage).
  Machine(std::shared_ptr<const ProgramImage> image, MachineConfig config);

  // Installs the Kivati runtime (may be null for vanilla runs). Must be
  // called before Run.
  void set_hooks(KivatiHooks* hooks) { hooks_ = hooks; }

  // Installs the schedule record/replay controller (may be null; owned by
  // the caller — see docs/replay.md). Must be set before Run; the kernel's
  // pause sampling reads it back through schedule_controller().
  void set_schedule_controller(ScheduleController* controller) { sched_ctl_ = controller; }
  ScheduleController* schedule_controller() const { return sched_ctl_; }

  std::uint64_t instructions_executed() const { return instructions_executed_; }

  // --- Setup ---------------------------------------------------------------

  // Creates a thread starting at `entry` with `arg` in r0. Threads may also
  // be created by the running program via the spawn syscall.
  ThreadId SpawnThread(ProgramCounter entry, std::uint64_t arg);
  ThreadId SpawnThreadByName(const std::string& function, std::uint64_t arg);

  // --- Execution -----------------------------------------------------------

  // Runs until every thread is done, deadlock, or `max_cycles` of virtual
  // time. May be called repeatedly to continue a stopped run.
  RunResult Run(Cycles max_cycles = ~Cycles{0});

  // --- State access (used by the Kivati kernel & runtime, and by tests) ----

  AddressSpace& memory() { return memory_; }
  const Program& program() const { return image_->program; }
  const RollbackTable& rollback_table() const { return image_->rollback; }
  Trace& trace() { return trace_; }
  const CostModel& costs() const { return config_.costs; }
  const MachineConfig& config() const { return config_; }

  Cycles now() const { return now_; }
  unsigned num_cores() const { return config_.num_cores; }
  DebugRegisterFile& core_debug_regs(CoreId core) { return cores_[core].debug_regs; }

  std::size_t num_threads() const { return threads_.size(); }
  ThreadContext& thread(ThreadId tid) { return *threads_[tid]; }
  const ThreadContext& thread(ThreadId tid) const { return *threads_[tid]; }

  // The core / thread / instruction PC of the instruction currently being
  // executed. Valid only inside hook callbacks.
  CoreId executing_core() const { return executing_core_; }
  ThreadId current_thread_on(CoreId core) const { return cores_[core].current; }
  ProgramCounter current_instruction_pc() const { return current_instruction_pc_; }

  // --- Control surface for Kivati -----------------------------------------

  // Suspends `tid` until ResumeThread, or until `timeout_at` (absolute time)
  // if given, in which case OnSuspensionTimeout fires before the wake.
  void SuspendThread(ThreadId tid, std::optional<Cycles> timeout_at);
  // Wakes a kSuspended or kBlockedSync thread.
  void ResumeThread(ThreadId tid);
  // Blocks `tid` until UnblockSyncThread (the cross-core register sync wait).
  void BlockThreadForSync(ThreadId tid);
  void UnblockSyncThread(ThreadId tid);
  // Timed sleep (used for the bug-finding pause); auto-wakes.
  void SleepThread(ThreadId tid, Cycles duration);
  // Ends a timed sleep early (no-op unless the thread is sleeping).
  void CancelSleep(ThreadId tid);
  // Overwrites a thread's PC (undo engine rollback).
  void SetThreadPc(ThreadId tid, ProgramCounter pc) { thread(tid).pc = pc; }

  // Adds `cycles` to the cost of the instruction currently executing (how
  // hooks charge kernel crossings, trap handling and fast-path work).
  void ChargeExtra(Cycles cycles) { pending_extra_ += cycles; }

  // Block-cache invalidation hook: drops every memoized block check-free
  // verdict. The kernel fires it whenever it arms or disarms a watchpoint
  // slot or installs a multi-variable joint mask (kivati_kernel.cc), so a
  // stale "this block cannot touch an armed range" proof can never outlive
  // the registers it was proven against. Per-core register generations
  // already key the memo exactly; the epoch is the explicit cross-layer
  // contract (docs/performance.md).
  void InvalidateBlockChecks() { ++block_epoch_; }

  // Number of threads not yet done (for workload harnesses).
  std::size_t live_threads() const;

 private:
  struct Core {
    Cycles clock = 0;  // while parked: the clock of the pick that parked it
    Cycles quantum_left = 0;
    ThreadId current = kInvalidThread;
    bool parked = false;
    DebugRegisterFile debug_regs;

    explicit Core(unsigned watchpoints) : debug_regs(watchpoints) {}
  };

  // Ready-queue helpers. The queue may hold stale entries; Pop purges them
  // before picking so each scheduling decision is a pure function of the
  // runnable set.
  void MakeRunnable(ThreadId tid);
  ThreadId PopRunnable();

  void WakeExpiredTimers();
  // Inline cached-hit path: the per-iteration expiry check must not cost a
  // function call. The slow path rescans and refreshes the cache.
  Cycles EarliestDeadline() const {
    if (earliest_valid_) {
      return earliest_deadline_;
    }
    return EarliestDeadlineSlow();
  }
  Cycles EarliestDeadlineSlow() const;
  bool AnyDeadline() const;

  // --- Timed-wait bookkeeping (docs/performance.md) -------------------------
  // `timed_waiters_` counts threads in a timed wait (sleeping, or suspended
  // with a deadline); `earliest_deadline_` caches their minimum wake time so
  // the hot loop's expiry check is O(1) in the no-expiry common case. The
  // cache is exact while `earliest_valid_`; removing the cached minimum
  // invalidates it and the next EarliestDeadline() rescans. Every state
  // transition in or out of a timed wait must go through these helpers.
  static bool IsTimedWait(const ThreadContext& t) {
    return t.state == ThreadState::kSleeping ||
           (t.state == ThreadState::kSuspended && t.has_deadline);
  }
  void EnterTimedWait(Cycles wake_at);
  void LeaveTimedWait(Cycles wake_at);

  // --- Pick order and parked idle cores (docs/performance.md) ---------------
  // The per-cycle loop runs the core with the smallest (clock, id) pair, so
  // its picks are strictly increasing in that order. `order_` holds every
  // core that is not parked, sorted by (clock, id); the pick is its front.
  //
  // An idle core whose kernel entry is a no-op (KivatiHooks::IdleSyncIsNoOp)
  // while no thread is ready only ever advances its clock when picked: to
  // the smallest busy clock, capped by the earliest deadline. Such a core is
  // *parked*: taken out of the order with its clock frozen at the pick that
  // parked it, because every later idle step is a closed-form function of
  // the busy cores. Any event — a hook, a change to the runnable set, a
  // timer or the cycle cap coming due — first unparks every core at the
  // exact clock the per-cycle loop would have given it (UnparkCores).
  struct Pick {
    Cycles clock = 0;
    CoreId core = 0;
  };
  static bool Less(Pick a, Pick b) {
    return a.clock < b.clock || (a.clock == b.clock && a.core < b.core);
  }
  // Restores the (clock, id) order after clocks advanced.
  void SortOrder();
  // The same after only the front core's clock advanced: inline, since the
  // per-instruction loop runs it once per instruction.
  void RequeueFront() {
    const CoreId core = order_.front();
    const Pick key{cores_[core].clock, core};
    std::size_t i = 1;
    for (; i < order_.size() && Less({cores_[order_[i]].clock, order_[i]}, key); ++i) {
      order_[i - 1] = order_[i];
    }
    order_[i - 1] = core;
  }
  // The smallest clock of a core running a thread; ~0 when none is.
  Cycles BusyMinClock() const;
  // Whether the idle core at the front of the order may be parked instead
  // of taking its idle step: no thread is ready, its kernel entry would
  // change nothing, and a busy core will be picked before any timer or the
  // cycle cap comes due.
  bool CanPark(CoreId core, Cycles max_cycles) const;
  void Park(CoreId core);
  // Puts every parked core back into the order with the clock the
  // per-cycle loop would give it just before the pick `next` — that is,
  // after all the idle steps it would have taken since the last real pick,
  // `last_pick_` — and leaves executing_core_ at the core of the latest of
  // those steps. UnparkCores(last_pick_) yields the state right after the
  // last real pick.
  void UnparkCores(Pick next);

  // Assigns a thread to `core`, firing context-switch hooks.
  void Reschedule(CoreId core, bool timer_interrupt);

  // One scheduling step of a core with no current thread (after Reschedule
  // found nothing): gives the hooks their kernel-idle sync opportunity,
  // picks up any thread that wakes, otherwise jumps the core's clock to the
  // next time anything can happen.
  enum class IdleOutcome : std::uint8_t { kProgress, kDeadlock };
  IdleOutcome IdleCoreStep(CoreId core);

  // The per-instruction engine: executes one instruction of core's current
  // thread — a predecoded op through exec::ExecFusedOp, or a barrier
  // through ExecBarrier — with the full access-list, trap and access-event
  // machinery, and advances the clock. Returns true when the instruction
  // may have fired a hook or changed the runnable set (a barrier, a thread
  // exit, a delivered trap): an event after which parked cores must be
  // re-evaluated.
  bool ExecuteOne(CoreId core);

  // The block-translation engine's fused loop (exec/block_exec.cc): runs
  // predecoded ops of the busy cores in N-way rounds, in the exact
  // (clock, id) interleaving of Run, hoisting the per-instruction dispatch
  // and watchpoint filtering, and returns to Run at the first op it cannot
  // fuse (barriers, traps that may fire, scheduling decisions, idle cores).
  // `entry_core` is the core Run picked *this iteration*: Run commits to
  // executing one instruction of that core's thread before re-deriving
  // anything — even when the Reschedule it just ran charged context-switch
  // cost that pushed the core's clock past another's — so the fused loop
  // must execute that one op first (or return 0 for ExecuteOne to do it)
  // before its own rounds. Returns the number of instructions executed; 0
  // means no progress was possible and the caller must take the generic
  // path.
  std::uint64_t RunTranslated(Cycles max_cycles, CoreId entry_core);

  // The accesses of op `index` for thread `t`, in program order, into `out`:
  // derived from exec::AccessShapes, or listed word by word for kRepMovs.
  // `filter` skips the old-value capture for accesses no armed watchpoint
  // can match — old values are only ever consumed for the trapped access.
  void CollectAccesses(const ThreadContext& t, std::uint32_t index,
                       std::vector<MemAccess>& out,
                       const DebugRegisterFile* filter = nullptr) const;
  // Executes a barrier instruction (kHalt, kRepMovs, kSyscall, kABegin,
  // kAEnd, kAClear): the instructions that end a thread, enter the kernel
  // or fire hooks. Every other instruction runs through exec::ExecFusedOp.
  void ExecBarrier(CoreId core, ThreadContext& t, const Instruction& instr,
                   ProgramCounter next_pc);

  void DoSyscall(CoreId core, ThreadContext& t, const Instruction& instr);
  void ExitThread(ThreadId tid, std::uint64_t status);

  // Streams the committed shared-data accesses of the current instruction
  // (`op`) as kSharedRead/kSharedWrite events (trace/sink.h; only called
  // when a sink wants access-level kinds).
  void EmitAccessEvents(const ThreadContext& t, const exec::TransOp& op);

  Addr EffectiveAddress(const ThreadContext& t, const MemOperand& mem) const {
    const std::uint64_t base = mem.base == kNoReg ? 0 : ReadReg(t, mem.base);
    return base + static_cast<std::uint64_t>(mem.offset);
  }

  std::shared_ptr<const ProgramImage> image_;
  MachineConfig config_;
  AddressSpace memory_;
  Trace trace_;
  Rng rng_;
  KivatiHooks* hooks_ = nullptr;
  ScheduleController* sched_ctl_ = nullptr;

  std::vector<std::unique_ptr<ThreadContext>> threads_;
  std::vector<bool> queued_;
  // Contiguous so the purged runnable set can be handed to the schedule
  // controller (guided strategies pick by thread id; docs/fuzzing.md).
  std::vector<ThreadId> ready_;
  std::vector<Core> cores_;

  Cycles now_ = 0;
  CoreId executing_core_ = 0;
  ProgramCounter current_instruction_pc_ = 0;
  Cycles pending_extra_ = 0;
  std::uint64_t instructions_executed_ = 0;

  // Scratch reused across ExecuteOne calls.
  std::vector<MemAccess> access_scratch_;

  // --- Scheduler caches (exact; see docs/performance.md) -------------------
  std::size_t live_count_ = 0;       // threads not yet kDone
  std::size_t timed_waiters_ = 0;    // threads in a timed wait
  mutable Cycles earliest_deadline_ = ~Cycles{0};
  mutable bool earliest_valid_ = true;
  std::vector<CoreId> order_;        // unparked cores by (clock, id)
  std::size_t parked_ = 0;           // cores parked outside the order
  Pick last_pick_;                   // the last pick Run acted on

  // --- Block-translation state (exec/block_exec.cc) ------------------------
  // Per-core memoized check-free verdict for the block the core is
  // executing, keyed on (block, register generation, invalidation epoch).
  struct BlockVerdict {
    std::uint32_t block = exec::BlockTranslation::kNoOp;
    std::uint64_t generation = ~std::uint64_t{0};
    std::uint64_t epoch = ~std::uint64_t{0};
    bool check_free = false;
  };
  std::vector<BlockVerdict> block_verdicts_;
  // Per-core cursor into the translated op array, valid only within one
  // RunTranslated call (kNoOp = re-derive from the thread's PC).
  std::vector<std::uint32_t> block_cursors_;
  // One busy core of an N-way round: its thread, cursor and — when a
  // watchpoint is armed on it — registers and check-free verdict.
  struct Lane {
    CoreId core = 0;
    ThreadContext* thread = nullptr;
    std::uint32_t cursor = exec::BlockTranslation::kNoOp;
    const DebugRegisterFile* armed = nullptr;
    BlockVerdict* verdict = nullptr;
  };
  std::vector<Lane> lanes_;
  std::uint64_t block_epoch_ = 0;  // bumped by InvalidateBlockChecks
};

}  // namespace kivati

#endif  // KIVATI_SCHED_MACHINE_H_
