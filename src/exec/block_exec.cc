// The block-translation engine's fused execution loop (Machine member; see
// exec/block_translate.h for the translation itself).
//
// Byte-identity with the per-instruction engine (Run + ExecuteOne) is the
// design constraint: with the default cost model every user instruction
// costs one cycle, so busy cores leapfrog each other every instruction and
// the *global* interleaving — which racy shared-memory values and
// ScheduleTrace instruction stamps depend on — cannot be reordered. Both
// engines execute ops through the same exec::ExecFusedOp (exec/fused_op.h);
// the fused loop replicates Run's discrete-event iteration exactly as N-way
// rounds over the busy cores ((clock, id) order, deadline and cap budget,
// preemption poll; idle cores are Run's, parked or stepped — see
// docs/performance.md) and hoists only the per-instruction *overhead*: the
// PC->index lookup, the access-list
// build, the trap Match scans, the trace/event mask tests, and the
// pending-extra accounting — none of which can observe anything for ops
// proven unable to trap.
//
// Every iteration boundary leaves the machine in exactly the state the
// per-instruction engine would have at the same point, so the engine may
// bail at any iteration: barriers (syscalls, annotations, halt,
// rep-movs), possible watchpoint hits (the outer ExecuteOne redoes the
// access with the full Match/undo machinery), quantum expiry and blocked
// threads (outer Reschedule), timer deadlines (outer WakeExpiredTimers),
// and invalid PCs (outer error/exit handling). Deoptimization triggers
// that hold for a whole Run call (replaying/guided controller, address
// tracing) are decided in Run, which also re-checks the access-level sink
// mask before every entry because sinks may subscribe between Run calls.
#include <algorithm>

#include "exec/fused_op.h"
#include "sched/machine.h"

namespace kivati {

namespace {

// Conservative pre-execution filter for ops inside non-check-free blocks:
// true when some access of `op` might overlap an armed watchpoint range
// (superset of DebugRegisterFile::Match, so a false return proves no trap
// — and no old-value capture — can be needed).
bool MayTouchArmed(const exec::TransOp& op, const ThreadContext& t,
                   const DebugRegisterFile& regs) {
  bool may = false;
  exec::AccessShapes(op, [&](const exec::AccessShape& shape) {
    may = may || regs.MayMatch(exec::AccessAddr(shape, t), shape.size);
  });
  return may;
}

}  // namespace

std::uint64_t Machine::RunTranslated(Cycles max_cycles, CoreId entry_core) {
  const exec::BlockTranslation& trans = image_->blocks;
  const exec::TransOp* const ops = trans.ops();
  const Cycles ucost = config_.costs.user_instruction;
  constexpr std::uint32_t kNoOp = exec::BlockTranslation::kNoOp;
  if (block_cursors_.size() != cores_.size()) {
    block_cursors_.assign(cores_.size(), kNoOp);
    block_verdicts_.assign(cores_.size(), BlockVerdict{});
    lanes_.resize(cores_.size());
  } else {
    std::fill(block_cursors_.begin(), block_cursors_.end(), kNoOp);
  }

  // Within one RunTranslated call nothing enters the kernel (syscalls,
  // traps, idle steps and timer expiries all return to Run first), so the
  // debug registers, the thread<->core assignment, the timed-wait set and
  // the parked cores are run-constants. A lane of a core with a watchpoint
  // armed carries its registers and its memoized check-free verdict: one
  // verdict per (block, register generation, invalidation epoch) instead of
  // a per-access scan; ops in non-check-free blocks fall back to the per-op
  // conservative test. True means the op must go to the outer ExecuteOne,
  // which redoes the access with exact Match and trap delivery
  // (MayTouchArmed is a superset of Match, so a fused-executed op provably
  // traps nothing).
  const auto make_lane = [&](CoreId core, ThreadContext& t, std::uint32_t cursor) {
    Core& c = cores_[core];
    Lane lane{core, &t, cursor, nullptr, nullptr};
    if (hooks_ != nullptr && c.debug_regs.any_armed()) {
      BlockVerdict& v = block_verdicts_[core];
      if (v.generation != c.debug_regs.generation() || v.epoch != block_epoch_) {
        v = BlockVerdict{exec::BlockTranslation::kNoOp, c.debug_regs.generation(),
                         block_epoch_, false};
      }
      lane.armed = &c.debug_regs;
      lane.verdict = &v;
    }
    return lane;
  };
  const auto may_trap = [&](const Lane& lane, const exec::TransOp& op) {
    BlockVerdict& v = *lane.verdict;
    if (v.block != op.block) {
      v.block = op.block;
      v.check_free = trans.BlockCheckFree(op.block, *lane.armed);
    }
    return !v.check_free && MayTouchArmed(op, *lane.thread, *lane.armed);
  };

  // Run has already committed to one instruction of `entry_core`'s thread:
  // the pick, the timer wake and the cycle-cap check all happened *before*
  // its Reschedule charged any context-switch cost, and ExecuteOne would
  // run without re-deriving anything — even if that charge pushed this
  // core's clock past another's. Execute exactly that one op here (or hand
  // the whole call back for the generic path), then restore the order.
  {
    Core& c = cores_[entry_core];
    ThreadContext& t = *threads_[c.current];
    if (t.state != ThreadState::kRunnable || c.quantum_left == 0) {
      return 0;
    }
    const std::uint32_t cur = trans.OpIndexOfPc(t.pc);
    if (cur == kNoOp) {
      return 0;  // thread-exit PC or invalid PC: generic handling
    }
    const Lane lane = make_lane(entry_core, t, cur);
    const exec::TransOp& op = ops[cur];
    if (op.kind == exec::FusedKind::kBarrier || (lane.armed != nullptr && may_trap(lane, op))) {
      return 0;
    }
    now_ = c.clock;
    executing_core_ = entry_core;
    block_cursors_[entry_core] = exec::ExecFusedOp(ops, cur, t, memory_, trans);
    c.clock += ucost;
    t.cpu_cycles += ucost;
    c.quantum_left -= std::min(ucost, c.quantum_left);
    ++t.instructions;
    ++instructions_executed_;
    RequeueFront();
  }
  std::uint64_t steps = 1;
  if (ucost != 1) {
    return steps;  // the rounds below rely on unit cost: single-op steps
  }

  // N-way rounds. With the one-cycle instruction cost, the (clock, id) pick
  // runs, at each clock T, every busy core whose clock has reached T, in id
  // order. The busy cores tied at the front clock are the round's lanes;
  // each round runs one op per lane and advances them all by one cycle, so
  // they stay tied and in id order. Parked cores never interleave (their
  // steps are closed-form), and a round may start at clock T only while T
  // is short of the earliest deadline, the cycle cap, every lane's quantum
  // and the clock of the next core in the order — past that, the order is
  // re-derived, or Run takes over.
  const Cycles limit = std::min(EarliestDeadline(), max_cycles);
  while (true) {
    const Cycles t0 = cores_[order_.front()].clock;
    if (t0 >= limit) {
      break;
    }
    Cycles rounds = limit - t0;
    std::size_t n = 0;
    for (; n < order_.size(); ++n) {
      const CoreId core = order_[n];
      Core& c = cores_[core];
      if (c.clock != t0 || c.current == kInvalidThread) {
        break;
      }
      ThreadContext& t = *threads_[c.current];
      if (t.state != ThreadState::kRunnable || c.quantum_left == 0) {
        break;  // preemption or a blocked thread: Run's Reschedule
      }
      std::uint32_t cur = block_cursors_[core];
      if (cur == kNoOp) {
        cur = trans.OpIndexOfPc(t.pc);
        if (cur == kNoOp) {
          break;  // thread-exit PC or invalid PC: Run's handling
        }
      }
      lanes_[n] = make_lane(core, t, cur);
      rounds = std::min(rounds, c.quantum_left);
    }
    if (n == 0) {
      break;
    }
    if (n < order_.size()) {
      // The next core is picked after this round's lanes when tied with
      // them, else at its own clock.
      const Cycles next = cores_[order_[n]].clock;
      rounds = std::min(rounds, next == t0 ? Cycles{1} : next - t0);
    }

    // A barrier, a possible trap or an untranslated PC stops the round at
    // exactly that lane: the lanes before it ran round r, the rest did not.
    Cycles r = 0;
    std::size_t stop = 0;
    bool stopped = false;
    for (; r < rounds && !stopped; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        Lane& lane = lanes_[i];
        if (lane.cursor == kNoOp) {
          stopped = true;
        } else {
          const exec::TransOp& op = ops[lane.cursor];
          stopped = op.kind == exec::FusedKind::kBarrier ||
                    (lane.armed != nullptr && may_trap(lane, op));
        }
        if (stopped) {
          stop = i;
          break;
        }
        lane.cursor = exec::ExecFusedOp(ops, lane.cursor, *lane.thread, memory_, trans);
        if (lane.cursor == kNoOp) {
          // A dynamic target left the cached cursor chain: re-derive by PC.
          lane.cursor = trans.OpIndexOfPc(lane.thread->pc);
        }
      }
    }
    if (stopped) {
      --r;  // round r ran only for the lanes before `stop`
    }
    // Identical accounting to ExecuteOne with no hooks fired, batched to the
    // round exit: fused ops cannot ChargeExtra, nothing inside the rounds
    // reads the counters, and the budget kept every lane within its quantum.
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Lane& lane = lanes_[i];
      const Cycles ran = r + (stopped && i < stop ? 1 : 0);
      Core& c = cores_[lane.core];
      c.clock += ran;
      c.quantum_left -= ran;
      lane.thread->cpu_cycles += ran;
      lane.thread->instructions += ran;
      block_cursors_[lane.core] = lane.cursor;
      done += ran;
    }
    if (done == 0) {
      break;
    }
    steps += done;
    instructions_executed_ += done;
    // The last op ran on lane stop-1 in round r, or on the last lane in
    // round r-1. Hooks fired from outside any instruction
    // (WakeExpiredTimers' OnSuspensionTimeout) read executing_core() as the
    // core last seen running, and UnparkCores orders idle steps after it.
    const bool mid = stopped && stop != 0;
    const Lane& last = lanes_[mid ? stop - 1 : n - 1];
    executing_core_ = last.core;
    last_pick_ = {t0 + (mid ? r : r - 1), last.core};
    SortOrder();
    if (stopped) {
      break;
    }
  }
  return steps;
}

}  // namespace kivati
