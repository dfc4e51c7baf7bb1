#include "exec/block_translate.h"

#include <algorithm>

namespace kivati {
namespace exec {
namespace {

FusedKind KindOf(Opcode op) {
  switch (op) {
    case Opcode::kNop: return FusedKind::kNop;
    case Opcode::kLoadImm: return FusedKind::kLoadImm;
    case Opcode::kMov: return FusedKind::kMov;
    case Opcode::kLoad: return FusedKind::kLoad;
    case Opcode::kStore: return FusedKind::kStore;
    case Opcode::kMovM: return FusedKind::kMovM;
    case Opcode::kXchg: return FusedKind::kXchg;
    case Opcode::kAdd: return FusedKind::kAdd;
    case Opcode::kSub: return FusedKind::kSub;
    case Opcode::kMul: return FusedKind::kMul;
    case Opcode::kDiv: return FusedKind::kDiv;
    case Opcode::kMod: return FusedKind::kMod;
    case Opcode::kAnd: return FusedKind::kAnd;
    case Opcode::kOr: return FusedKind::kOr;
    case Opcode::kXor: return FusedKind::kXor;
    case Opcode::kAddI: return FusedKind::kAddI;
    case Opcode::kCmpEq: return FusedKind::kCmpEq;
    case Opcode::kCmpNe: return FusedKind::kCmpNe;
    case Opcode::kCmpLt: return FusedKind::kCmpLt;
    case Opcode::kCmpLe: return FusedKind::kCmpLe;
    case Opcode::kJmp: return FusedKind::kJmp;
    case Opcode::kBnz: return FusedKind::kBnz;
    case Opcode::kBz: return FusedKind::kBz;
    case Opcode::kCall: return FusedKind::kCall;
    case Opcode::kCallInd: return FusedKind::kCallInd;
    case Opcode::kRet: return FusedKind::kRet;
    case Opcode::kPush: return FusedKind::kPush;
    case Opcode::kPushM: return FusedKind::kPushM;
    case Opcode::kPop: return FusedKind::kPop;
    // Kernel entries, annotations, thread termination and the multi-word
    // kRepMovs are barriers (Machine::ExecBarrier): they fire hooks, enter
    // the kernel, or need the unbounded access-list machinery.
    case Opcode::kHalt:
    case Opcode::kRepMovs:
    case Opcode::kSyscall:
    case Opcode::kABegin:
    case Opcode::kAEnd:
    case Opcode::kAClear:
      return FusedKind::kBarrier;
  }
  return FusedKind::kBarrier;
}

bool IsControlTransfer(FusedKind kind) {
  switch (kind) {
    case FusedKind::kJmp:
    case FusedKind::kBnz:
    case FusedKind::kBz:
    case FusedKind::kCall:
    case FusedKind::kCallInd:
    case FusedKind::kRet:
      return true;
    default:
      return false;
  }
}

bool HasStaticTarget(FusedKind kind) {
  return kind == FusedKind::kJmp || kind == FusedKind::kBnz || kind == FusedKind::kBz ||
         kind == FusedKind::kCall;
}

}  // namespace

BlockTranslation::BlockTranslation(const Program& program) {
  const std::size_t n = program.size();
  ops_.resize(n);
  pc_to_op_.assign(static_cast<std::size_t>(program.text_end()), kNoOp);

  // Predecode every instruction into its compact op.
  for (std::size_t i = 0; i < n; ++i) {
    const Instruction& instr = program.At(i);
    TransOp& op = ops_[i];
    op.kind = KindOf(instr.op);
    op.rd = instr.rd;
    op.rs1 = instr.rs1;
    op.rs2 = instr.rs2;
    op.size = static_cast<std::uint8_t>(instr.size);
    op.next_pc = program.PcOf(i) + program.LengthAt(i);
    op.target_op = kNoOp;
    switch (op.kind) {
      case FusedKind::kLoadImm:
      case FusedKind::kAddI:
        op.a = instr.imm;
        break;
      case FusedKind::kJmp:
      case FusedKind::kBnz:
      case FusedKind::kBz:
      case FusedKind::kCall:
        op.a = instr.target;
        break;
      case FusedKind::kMovM:
        op.base = instr.mem.base;
        op.a = instr.mem.offset;
        op.base2 = instr.mem2.base;
        op.b = instr.mem2.offset;
        break;
      default:
        op.base = instr.mem.base;
        op.a = instr.mem.offset;
        break;
    }
    pc_to_op_[static_cast<std::size_t>(program.PcOf(i))] = static_cast<std::uint32_t>(i);
  }

  // Leader analysis: block boundaries fall at function entries, static
  // branch/call targets, every instruction following a control transfer,
  // and around barriers (which form singleton blocks).
  std::vector<bool> leader(n, false);
  if (n > 0) {
    leader[0] = true;
  }
  for (const FunctionInfo& f : program.functions()) {
    if (f.first_index < n) {
      leader[f.first_index] = true;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const FusedKind kind = ops_[i].kind;
    if (HasStaticTarget(kind)) {
      const std::uint32_t target = OpIndexOfPc(static_cast<ProgramCounter>(ops_[i].a));
      ops_[i].target_op = target;
      if (target != kNoOp) {
        leader[target] = true;
      }
    }
    if ((IsControlTransfer(kind) || kind == FusedKind::kBarrier) && i + 1 < n) {
      leader[i + 1] = true;
    }
    if (kind == FusedKind::kBarrier) {
      leader[i] = true;
    }
  }

  // Form blocks and derive each block's static footprint.
  for (std::size_t i = 0; i < n;) {
    std::size_t end = i + 1;
    while (end < n && !leader[end]) {
      ++end;
    }
    TransBlock block;
    block.first_op = static_cast<std::uint32_t>(i);
    block.end_op = static_cast<std::uint32_t>(end);
    block.fp_first = static_cast<std::uint32_t>(footprint_.size());
    block.all_static = true;
    block.hull_lo = ~Addr{0};
    block.hull_hi = 0;
    for (std::size_t j = i; j < end; ++j) {
      ops_[j].block = static_cast<std::uint32_t>(blocks_.size());
      if (ops_[j].kind == FusedKind::kBarrier) {
        // Accesses unknown at translation time.
        block.all_static = false;
        block.has_mem = true;
        continue;
      }
      AccessShapes(ops_[j], [this, &block](const AccessShape& shape) {
        block.has_mem = true;
        if (shape.base != kNoReg) {
          block.all_static = false;
          return;
        }
        const Addr addr = static_cast<Addr>(shape.offset);
        footprint_.push_back({addr, shape.size});
        block.hull_lo = std::min(block.hull_lo, addr);
        block.hull_hi = std::max(block.hull_hi, addr + shape.size);
      });
    }
    block.fp_end = static_cast<std::uint32_t>(footprint_.size());
    if (block.fp_first == block.fp_end) {
      block.hull_lo = 0;
      block.hull_hi = 0;
    }
    blocks_.push_back(block);
    i = end;
  }
}

bool BlockTranslation::BlockCheckFree(std::uint32_t block_id,
                                      const DebugRegisterFile& regs) const {
  if (!regs.any_armed()) {
    return true;
  }
  const TransBlock& b = blocks_[block_id];
  if (!b.has_mem) {
    return true;
  }
  if (!b.all_static) {
    // Dynamic addresses (register-indirect or stack traffic): the footprint
    // is incomplete, so no whole-block proof exists — the engine falls back
    // to per-access MayMatch filtering inside this block.
    return false;
  }
  for (std::uint32_t i = b.fp_first; i < b.fp_end; ++i) {
    const StaticAccess& access = footprint_[i];
    if (regs.AnyEnabledOverlap(access.addr, access.addr + access.size)) {
      return false;
    }
  }
  return true;
}

}  // namespace exec
}  // namespace kivati
