// The block-translation engine's fused execution loop (Machine member; see
// exec/block_translate.h for the translation itself).
//
// Byte-identity with the per-instruction engine (Run + ExecuteOne) is the
// design constraint: with the default cost model every user instruction
// costs one cycle, so two busy cores leapfrog each other every instruction
// and the *global* interleaving — which racy shared-memory values and
// ScheduleTrace instruction stamps depend on — cannot be reordered. Both
// engines execute ops through the same exec::ExecFusedOp (exec/fused_op.h);
// the fused loop replicates Run's discrete-event iteration exactly
// (min-clock core pick, deadline check, preemption poll) and hoists only
// the per-instruction *overhead*: the PC->index lookup, the access-list
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
// tracing) are decided in Run; the access-level sink mask is re-checked
// here on every entry because sinks may subscribe between Run calls.
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
  // Access-level sinks (the HB oracle, --trace-events=access) need every
  // instruction's access list: mandatory per-instruction deoptimization.
  if ((trace_.hub().mask() & kAccessEventKinds) != 0) {
    return 0;
  }
  const exec::BlockTranslation& trans = image_->blocks;
  const exec::TransOp* const ops = trans.ops();
  const Cycles ucost = config_.costs.user_instruction;
  constexpr std::uint32_t kNoOp = exec::BlockTranslation::kNoOp;
  if (block_cursors_.size() != cores_.size()) {
    block_cursors_.assign(cores_.size(), kNoOp);
    block_verdicts_.assign(cores_.size(), BlockVerdict{});
  } else {
    std::fill(block_cursors_.begin(), block_cursors_.end(), kNoOp);
  }

  // The hoisted watchpoint filter, memoized per core: one check-free verdict
  // per (block, register generation, invalidation epoch) instead of a
  // per-access scan; non-check-free blocks fall back to the per-op
  // conservative test. True means the op must go to the outer ExecuteOne,
  // which redoes the access with exact Match and trap delivery
  // (MayTouchArmed is a superset of Match, so a fused-executed op provably
  // traps nothing).
  const auto may_trap = [&](CoreId core, Core& c, const exec::TransOp& op,
                            const ThreadContext& t) {
    BlockVerdict& v = block_verdicts_[core];
    const std::uint64_t gen = c.debug_regs.generation();
    if (v.block != op.block || v.generation != gen || v.epoch != block_epoch_) {
      v.block = op.block;
      v.generation = gen;
      v.epoch = block_epoch_;
      v.check_free = trans.BlockCheckFree(op.block, c.debug_regs);
    }
    return !v.check_free && MayTouchArmed(op, t, c.debug_regs);
  };

  // Two-core lockstep eligibility. Within one RunTranslated call nothing can
  // enter the kernel (syscalls, traps, idle steps and timer expiries all
  // bail first), so the debug registers, the thread<->core assignment and
  // the timed-wait set are run-constants. With the one-cycle instruction
  // cost, two busy cores at equal clocks provably alternate c0,c1,c0,c1
  // (the min-clock pick with ties to the lowest id), which lets the chunk
  // below execute op *pairs* under a precomputed budget instead of paying
  // the scheduler checks per op.
  const bool lockstep = cores_.size() == 2 && ucost == 1;

  std::uint64_t steps = 0;

  // Run has already committed to one instruction of `entry_core`'s thread:
  // the pick, the timer wake and the cycle-cap check all happened *before*
  // its Reschedule charged any context-switch cost, and ExecuteOne would
  // run without re-deriving anything — even if that charge pushed this
  // core's clock past another's. Execute exactly that one op here (or hand
  // the whole call back for the generic path), then invalidate the cached
  // pick: it may be arbitrarily stale relative to the post-charge clocks,
  // and the loop below depends on the pick being the true (clock, id)
  // minimum.
  {
    Core& c = cores_[entry_core];
    if (c.current == kInvalidThread) {
      return 0;
    }
    ThreadContext& t = *threads_[c.current];
    if (t.state != ThreadState::kRunnable || c.quantum_left == 0) {
      return 0;
    }
    const std::uint32_t cur = trans.OpIndexOfPc(t.pc);
    if (cur == kNoOp) {
      return 0;  // thread-exit PC or invalid PC: generic handling
    }
    const exec::TransOp& op = ops[cur];
    if (op.kind == exec::FusedKind::kBarrier ||
        (hooks_ != nullptr && c.debug_regs.any_armed() && may_trap(entry_core, c, op, t))) {
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
    ++steps;
    min_core_valid_ = false;
  }

  while (true) {
    if (live_count_ == 0) {
      return steps;
    }
    if (lockstep) {
      Core& c0 = cores_[0];
      Core& c1 = cores_[1];
      if (c0.clock == c1.clock && c0.clock < max_cycles &&
          c0.current != kInvalidThread && c1.current != kInvalidThread &&
          c0.quantum_left != 0 && c1.quantum_left != 0) {
        ThreadContext& t0 = *threads_[c0.current];
        ThreadContext& t1 = *threads_[c1.current];
        if (t0.state == ThreadState::kRunnable && t1.state == ThreadState::kRunnable) {
          // Budget: pairs start at clock T and advance both cores by one
          // cycle, so the pair starting at T may run iff T is short of the
          // quanta, the cycle cap and the earliest timer deadline — the
          // general iteration below re-derives the exact bail for whichever
          // limit ended the chunk.
          Cycles pairs = std::min(c0.quantum_left, c1.quantum_left);
          pairs = std::min(pairs, max_cycles - c0.clock);
          const Cycles deadline = EarliestDeadline();
          if (deadline != ~Cycles{0}) {
            pairs = deadline > c0.clock ? std::min(pairs, deadline - c0.clock) : 0;
          }
          std::uint32_t cur0 = block_cursors_[0];
          if (cur0 == kNoOp) {
            cur0 = trans.OpIndexOfPc(t0.pc);
          }
          std::uint32_t cur1 = block_cursors_[1];
          if (cur1 == kNoOp) {
            cur1 = trans.OpIndexOfPc(t1.pc);
          }
          if (pairs != 0 && cur0 != kNoOp && cur1 != kNoOp) {
            const bool armed0 = hooks_ != nullptr && c0.debug_regs.any_armed();
            const bool armed1 = hooks_ != nullptr && c1.debug_regs.any_armed();
            // Per-op accounting (clocks, quanta, instruction counts) is
            // batched to the chunk exit: nothing inside the loop reads it,
            // and no hook can fire that would observe it mid-chunk. The
            // check-free verdict is likewise cached per *block run* in
            // locals — the debug registers cannot change inside the chunk,
            // so a verdict holds until control moves to another block.
            std::uint64_t done0 = 0;
            std::uint64_t done1 = 0;
            std::uint32_t blk0 = ~std::uint32_t{0};
            std::uint32_t blk1 = ~std::uint32_t{0};
            bool free0 = false;
            bool free1 = false;
            while (pairs != 0) {
              const exec::TransOp& o0 = ops[cur0];
              if (o0.kind == exec::FusedKind::kBarrier) {
                break;  // clocks stay tied; the general pick lands on c0
              }
              if (armed0) {
                if (o0.block != blk0) {
                  blk0 = o0.block;
                  free0 = trans.BlockCheckFree(blk0, c0.debug_regs);
                }
                if (!free0 && MayTouchArmed(o0, t0, c0.debug_regs)) {
                  break;
                }
              }
              cur0 = exec::ExecFusedOp(ops, cur0, t0, memory_, trans);
              ++done0;
              const exec::TransOp& o1 = ops[cur1];
              if (o1.kind == exec::FusedKind::kBarrier) {
                break;  // c1 lags by one cycle now; the general pick is c1
              }
              if (armed1) {
                if (o1.block != blk1) {
                  blk1 = o1.block;
                  free1 = trans.BlockCheckFree(blk1, c1.debug_regs);
                }
                if (!free1 && MayTouchArmed(o1, t1, c1.debug_regs)) {
                  break;
                }
              }
              cur1 = exec::ExecFusedOp(ops, cur1, t1, memory_, trans);
              ++done1;
              if (cur0 == kNoOp || cur1 == kNoOp) {
                break;  // dynamic target left translated code: re-derive by PC
              }
              --pairs;
            }
            if (done0 != 0) {
              c0.clock += done0;
              t0.cpu_cycles += done0;
              c0.quantum_left -= done0;
              t0.instructions += done0;
              c1.clock += done1;
              t1.cpu_cycles += done1;
              c1.quantum_left -= done1;
              t1.instructions += done1;
              steps += done0 + done1;
              instructions_executed_ += done0 + done1;
              // The core whose op ran last is the one the hooks last saw.
              executing_core_ = done1 == done0 ? 1 : 0;
              block_cursors_[0] = cur0;
              block_cursors_[1] = cur1;
              min_core_valid_ = false;  // clocks advanced without per-op fixup
              continue;  // the general iteration handles whatever ended the chunk
            }
          }
        }
      }
    }
    const CoreId core = MinClockCore();
    Core& c = cores_[core];
    if (c.clock >= max_cycles) {
      return steps;
    }
    now_ = c.clock;
    if (EarliestDeadline() <= now_) {
      return steps;  // a timer expired: the outer loop wakes it
    }
    if (c.current == kInvalidThread) {
      if (!ready_.empty()) {
        // A real scheduling decision (possibly over stale queue entries):
        // the outer loop's Reschedule purges and picks exactly as always.
        return steps;
      }
      if (IdleCoreStep(core) == IdleOutcome::kDeadlock) {
        return steps;  // no state was changed; the outer loop re-derives it
      }
      // The idle step may have scheduled a thread or run hooks; the cursor
      // no longer matches the core's thread.
      block_cursors_[core] = kNoOp;
      continue;
    }
    ThreadContext& t = *threads_[c.current];
    if (t.state != ThreadState::kRunnable || c.quantum_left == 0) {
      return steps;  // preemption or a blocked thread: outer Reschedule
    }
    std::uint32_t cur = block_cursors_[core];
    if (cur == kNoOp) {
      cur = trans.OpIndexOfPc(t.pc);
      if (cur == kNoOp) {
        return steps;  // thread-exit PC or invalid PC: outer handling
      }
    }
    const exec::TransOp& op = ops[cur];
    if (op.kind == exec::FusedKind::kBarrier) {
      block_cursors_[core] = kNoOp;
      return steps;
    }
    if (hooks_ != nullptr && c.debug_regs.any_armed() && may_trap(core, c, op, t)) {
      block_cursors_[core] = kNoOp;
      return steps;
    }

    // Solo streak: with the discrete-event (clock, id) pick, `core` keeps
    // being chosen while its clock is below every other core's (at equal
    // clocks the lower id wins) — common right after another core paid a
    // kernel-crossing cost. All scheduler checks above were just validated
    // and cannot change while this core runs user ops, so a whole budget of
    // ops needs only the per-op barrier/trap/translation tests. With a
    // non-unit instruction cost the budget degenerates to a single op
    // (exactly the pre-streak behavior); real cost models use 1.
    Cycles budget = 1;
    bool chase = false;
    if (ucost == 1) {
      budget = std::min(c.quantum_left, max_cycles - c.clock);
      const Cycles deadline = EarliestDeadline();
      if (deadline != ~Cycles{0}) {
        budget = std::min(budget, deadline - c.clock);  // deadline > now_ held above
      }
      for (CoreId j = 0; j < cores_.size(); ++j) {
        if (j == core) {
          continue;
        }
        // Idle companion (two-core machines only): with no runnable thread
        // waiting and an idle kernel entry proven to be a no-op, every pick
        // of core j is a pure clock jump chasing this core — IdleCoreStep
        // jumps j to max(clock_j + 1, our clock), capped by the deadline we
        // already bounded the budget with. Eliding those jumps can't be
        // observed (no hooks fire, ready_ can't grow while this core runs
        // user ops), so don't let j's clock cap the streak; the closed-form
        // final clock is restored below.
        if (cores_.size() == 2 && cores_[j].current == kInvalidThread && ready_.empty() &&
            (hooks_ == nullptr || hooks_->IdleSyncIsNoOp(j))) {
          chase = true;
          continue;
        }
        // Ops run at clocks T, T+1, ...; op k is still the pick while
        // T+k <= clock_j for higher-id cores (we win ties) and T+k < clock_j
        // for lower-id ones.
        budget = std::min(budget, cores_[j].clock - c.clock + (j > core ? 1 : 0));
      }
    }
    // Hooks fired from *outside* any instruction (WakeExpiredTimers'
    // OnSuspensionTimeout) read executing_core() as "the core last seen
    // running"; the kernel syncs register generations against it. Keep it
    // as current as ExecuteOne would.
    executing_core_ = core;
    const bool armed = hooks_ != nullptr && c.debug_regs.any_armed();
    std::uint32_t cu = cur;
    std::uint64_t done = 0;
    std::uint32_t blk = ~std::uint32_t{0};
    bool blk_free = false;
    while (true) {
      cu = exec::ExecFusedOp(ops, cu, t, memory_, trans);
      ++done;
      if (--budget == 0 || cu == kNoOp) {
        break;
      }
      const exec::TransOp& nxt = ops[cu];
      if (nxt.kind == exec::FusedKind::kBarrier) {
        break;
      }
      if (armed) {
        // Same per-block-run verdict caching as the lockstep chunk: the
        // registers are streak-constants.
        if (nxt.block != blk) {
          blk = nxt.block;
          blk_free = trans.BlockCheckFree(blk, c.debug_regs);
        }
        if (!blk_free && MayTouchArmed(nxt, t, c.debug_regs)) {
          break;
        }
      }
    }
    // Identical accounting to ExecuteOne with no hooks fired, batched to the
    // streak exit: fused ops cannot ChargeExtra, so the cost is exactly one
    // user instruction each, and nothing inside the streak reads the
    // counters. The budget kept ucost * done within the quantum.
    c.clock += ucost * done;
    t.cpu_cycles += ucost * done;
    c.quantum_left -= std::min(ucost * done, c.quantum_left);
    t.instructions += done;
    block_cursors_[core] = cu;
    steps += done;
    instructions_executed_ += done;
    if (chase) {
      Core& o = cores_[core == 0 ? 1 : 0];
      if (c.clock > o.clock) {
        // Replay the companion's elided chase steps in closed form. With the
        // companion on the higher id, the generic order is "our op at the
        // tie, then its jump to equal" — its jump is the last elided action,
        // so it is also the core the hooks last saw. On the lower id its
        // order is "jump past us, then our op": at this exit state the
        // generic interleaving has it tied with us, and its one pending jump
        // is exactly the idle iteration the loop above will now run for real.
        o.clock = c.clock;
        if ((core == 0 ? 1u : 0u) > core) {
          executing_core_ = core == 0 ? 1 : 0;
        }
      }
      min_core_valid_ = false;
    } else {
      FixMinCoreAfterAdvance(core);
    }
  }
}

}  // namespace kivati
