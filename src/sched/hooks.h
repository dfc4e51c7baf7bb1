// Interface between the simulated machine and the Kivati runtime.
//
// The machine raises these callbacks at the architectural events Kivati
// hooks in the real system: annotation instructions (which the annotated
// binary executes as calls into the user-space library), watchpoint traps,
// kernel entries (the opportunistic cross-core sync points) and context
// switches (where per-thread debug-register state is swapped, as Linux does).
//
// A machine with no hooks installed behaves like the paper's "vanilla"
// system: annotations fall through as cheap no-ops and watchpoints never
// fire because nothing programs them.
#ifndef KIVATI_SCHED_HOOKS_H_
#define KIVATI_SCHED_HOOKS_H_

#include "common/types.h"
#include "isa/instruction.h"

namespace kivati {

// One memory access performed by an instruction. `old_value` is the
// memory content before the instruction executed: the undo engine restores
// trapped writes from it. (The paper instead restores the value recorded
// after the first local access; that recording is still performed and
// costed, but it is unsound under sustained contention — see DESIGN.md.)
struct MemAccess {
  Addr addr = 0;
  unsigned size = 0;
  AccessType type = AccessType::kRead;
  std::uint64_t old_value = 0;
};

class KivatiHooks {
 public:
  virtual ~KivatiHooks() = default;

  // begin_atomic executed by `thread`. `ea` is the resolved address of the
  // shared variable; the static fields (AR id, size, watch type, first local
  // access type) are in `instr`.
  virtual void OnBeginAtomic(ThreadId thread, const Instruction& instr, Addr ea) = 0;

  // end_atomic executed by `thread`.
  virtual void OnEndAtomic(ThreadId thread, const Instruction& instr) = 0;

  // clear_ar executed by `thread` at subroutine exit; `call_depth` is the
  // depth of the exiting frame.
  virtual void OnClearAr(ThreadId thread, std::uint32_t call_depth) = 0;

  // A watchpoint in `slot` on `core` matched `access` made by `thread`.
  // With trap-after delivery the access has already committed and `trap_pc`
  // is the PC of the *next* instruction (or of the callee's first instruction
  // for indirect calls); the handler must use the rollback table to undo.
  // With trap-before delivery `trap_pc` is the accessing instruction itself
  // and the access has NOT committed; returning true cancels it (the thread
  // stays at `trap_pc` and re-executes when resumed).
  // Return value is ignored for trap-after delivery.
  virtual bool OnWatchpointTrap(ThreadId thread, CoreId core, unsigned slot,
                                const MemAccess& access, ProgramCounter trap_pc) = 0;

  // Any entry into the kernel from `core` (syscall, timer interrupt, trap).
  // This is where cores opportunistically refresh their watchpoint registers
  // from the canonical image.
  virtual void OnKernelEntry(CoreId core) = 0;

  // True when an *idle-loop* OnKernelEntry on `core` would provably change
  // nothing right now: the core already runs the canonical register image,
  // no periodic kernel work is due, and no sync waiter would be released.
  // Waiters may exist: one blocked until some *busy* core catches up with
  // the canonical image stays blocked until that core's own kernel entry,
  // which no idle core's entry can stand in for. The answer may change only
  // inside a hook or a kernel entry. The machine parks idle cores while it
  // holds (docs/performance.md) and asks again after every hook or change
  // to the runnable set. The conservative answer is false, which merely
  // keeps the core stepping through the idle loop.
  virtual bool IdleSyncIsNoOp(CoreId /*core*/) const { return false; }

  // Core `core` switches from `prev` to `next` (either may be kInvalidThread).
  // Kivati swaps per-thread watchpoint suppression here (optimization 3).
  virtual void OnContextSwitch(CoreId core, ThreadId prev, ThreadId next) = 0;

  // A thread suspended by Kivati hit its suspension timeout and is about to
  // be made runnable again; the kernel must clean up the ARs that timed out.
  virtual void OnSuspensionTimeout(ThreadId thread) = 0;

  // A thread exited while possibly holding ARs or being tracked.
  virtual void OnThreadExit(ThreadId thread) = 0;
};

}  // namespace kivati

#endif  // KIVATI_SCHED_HOOKS_H_
