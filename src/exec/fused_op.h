// The ISA semantics of every non-barrier instruction, over predecoded
// TransOps (exec/block_translate.h). Both execution engines call this one
// definition: the block engine's fused loop (exec/block_exec.cc) and the
// per-instruction loop (Machine::ExecuteOne). Barriers — the instructions
// that enter the kernel or fire hooks — are executed by the Machine itself.
//
// Header-only and inline because it sits in both engines' hot loops; it
// operates on Machine state (thread contexts, the address space), so only
// the Machine includes it.
#ifndef KIVATI_EXEC_FUSED_OP_H_
#define KIVATI_EXEC_FUSED_OP_H_

#include <cstdint>

#include "exec/block_translate.h"
#include "mem/address_space.h"
#include "sched/thread.h"

namespace kivati {
namespace exec {

// The address an access shape resolves to for thread `t` before its op
// executes.
inline Addr AccessAddr(const AccessShape& shape, const ThreadContext& t) {
  const std::uint64_t base = shape.base == kNoReg ? 0 : ReadReg(t, shape.base);
  return base + static_cast<std::uint64_t>(shape.offset);
}

// Executes op `cur` (anything but kBarrier) for thread `t` and returns the
// index of the next op — kNoOp when a dynamic target (indirect call,
// return) has no translation, in which case the caller re-derives state
// from the PC.
inline std::uint32_t ExecFusedOp(const TransOp* ops, std::uint32_t cur, ThreadContext& t,
                                 AddressSpace& memory, const BlockTranslation& trans) {
  const TransOp& op = ops[cur];
  const auto ea = [&t](RegId base, std::int64_t offset) {
    return (base == kNoReg ? 0 : ReadReg(t, base)) + static_cast<std::uint64_t>(offset);
  };
  std::uint32_t next = cur + 1;
  switch (op.kind) {
    case FusedKind::kNop:
      t.pc = op.next_pc;
      break;
    case FusedKind::kLoadImm:
      WriteReg(t, op.rd, static_cast<std::uint64_t>(op.a));
      t.pc = op.next_pc;
      break;
    case FusedKind::kMov:
      WriteReg(t, op.rd, ReadReg(t, op.rs1));
      t.pc = op.next_pc;
      break;
    case FusedKind::kLoad:
      WriteReg(t, op.rd, memory.Read(ea(op.base, op.a), op.size));
      t.pc = op.next_pc;
      break;
    case FusedKind::kStore:
      memory.Write(ea(op.base, op.a), op.size, ReadReg(t, op.rs1));
      t.pc = op.next_pc;
      break;
    case FusedKind::kMovM: {
      const Addr src = ea(op.base2, op.b);
      memory.Write(ea(op.base, op.a), op.size, memory.Read(src, op.size));
      t.pc = op.next_pc;
      break;
    }
    case FusedKind::kXchg: {
      const Addr addr = ea(op.base, op.a);
      const std::uint64_t old = memory.Read(addr, op.size);
      memory.Write(addr, op.size, ReadReg(t, op.rs1));
      WriteReg(t, op.rd, old);
      t.pc = op.next_pc;
      break;
    }
    case FusedKind::kAdd:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) + ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case FusedKind::kSub:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) - ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case FusedKind::kMul:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) * ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case FusedKind::kDiv: {
      const std::uint64_t divisor = ReadReg(t, op.rs2);
      WriteReg(t, op.rd, divisor == 0 ? 0 : ReadReg(t, op.rs1) / divisor);
      t.pc = op.next_pc;
      break;
    }
    case FusedKind::kMod: {
      const std::uint64_t divisor = ReadReg(t, op.rs2);
      WriteReg(t, op.rd, divisor == 0 ? 0 : ReadReg(t, op.rs1) % divisor);
      t.pc = op.next_pc;
      break;
    }
    case FusedKind::kAnd:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) & ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case FusedKind::kOr:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) | ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case FusedKind::kXor:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) ^ ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case FusedKind::kAddI:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) + static_cast<std::uint64_t>(op.a));
      t.pc = op.next_pc;
      break;
    case FusedKind::kCmpEq:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) == ReadReg(t, op.rs2) ? 1 : 0);
      t.pc = op.next_pc;
      break;
    case FusedKind::kCmpNe:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) != ReadReg(t, op.rs2) ? 1 : 0);
      t.pc = op.next_pc;
      break;
    case FusedKind::kCmpLt:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) < ReadReg(t, op.rs2) ? 1 : 0);
      t.pc = op.next_pc;
      break;
    case FusedKind::kCmpLe:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) <= ReadReg(t, op.rs2) ? 1 : 0);
      t.pc = op.next_pc;
      break;
    case FusedKind::kJmp:
      t.pc = static_cast<ProgramCounter>(op.a);
      next = op.target_op;
      break;
    case FusedKind::kBnz:
      if (ReadReg(t, op.rs1) != 0) {
        t.pc = static_cast<ProgramCounter>(op.a);
        next = op.target_op;
      } else {
        t.pc = op.next_pc;
      }
      break;
    case FusedKind::kBz:
      if (ReadReg(t, op.rs1) == 0) {
        t.pc = static_cast<ProgramCounter>(op.a);
        next = op.target_op;
      } else {
        t.pc = op.next_pc;
      }
      break;
    case FusedKind::kCall:
      t.sp -= 8;
      memory.Write(t.sp, 8, op.next_pc);
      t.pc = static_cast<ProgramCounter>(op.a);
      next = op.target_op;
      ++t.call_depth;
      break;
    case FusedKind::kCallInd: {
      const ProgramCounter target = memory.Read(ea(op.base, op.a), 8);
      t.sp -= 8;
      memory.Write(t.sp, 8, op.next_pc);
      t.pc = target;
      ++t.call_depth;
      next = trans.OpIndexOfPc(target);
      break;
    }
    case FusedKind::kRet:
      t.pc = memory.Read(t.sp, 8);
      t.sp += 8;
      if (t.call_depth > 0) {
        --t.call_depth;
      }
      next = trans.OpIndexOfPc(t.pc);
      break;
    case FusedKind::kPush:
      t.sp -= 8;
      memory.Write(t.sp, 8, ReadReg(t, op.rs1));
      t.pc = op.next_pc;
      break;
    case FusedKind::kPushM: {
      const std::uint64_t value = memory.Read(ea(op.base, op.a), op.size);
      t.sp -= 8;
      memory.Write(t.sp, 8, value);
      t.pc = op.next_pc;
      break;
    }
    case FusedKind::kPop:
      WriteReg(t, op.rd, memory.Read(t.sp, 8));
      t.sp += 8;
      t.pc = op.next_pc;
      break;
    case FusedKind::kBarrier:
      break;  // unreachable: callers execute barriers themselves
  }
  return next;
}

}  // namespace exec
}  // namespace kivati

#endif  // KIVATI_EXEC_FUSED_OP_H_
