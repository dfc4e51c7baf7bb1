// Basic-block translation of a Program (docs/performance.md).
//
// A one-time leader analysis over the program discovers basic blocks, each
// instruction is predecoded into a compact TransOp specialized by
// addressing mode, and static branch/call targets are resolved to op
// indices so the block engine chains ops without touching the PC->index
// table. Both execution engines run these ops (exec/fused_op.h): the block
// engine a block at a time, the per-instruction engine one op at a time.
// Per-block *static footprints* (the accesses performed through absolute
// operands) let the block engine prove at translation time that a whole
// block can never touch an armed watchpoint range — such blocks run
// check-free, hoisting the per-access watchpoint filter to the block
// boundary (the check-hoisting idea of "Fast Atomicity Monitoring"; the
// translation tier itself follows Valgrind's ucode playbook).
//
// The translation is derived once per ProgramImage, so sweep, fuzz and
// shrink workers sharing an image share the translation. It is purely
// structural: PCs, instruction indices and per-instruction costs are
// preserved exactly, which is what keeps block runs byte-identical to
// per-instruction runs and to the engine goldens (block_translate_test),
// and keeps `kivati annotate`/`analyze` line attribution untouched.
#ifndef KIVATI_EXEC_BLOCK_TRANSLATE_H_
#define KIVATI_EXEC_BLOCK_TRANSLATE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "hw/debug_registers.h"
#include "isa/program.h"

namespace kivati {
namespace exec {

// Predecoded operation kinds. kBarrier marks instructions the block engine
// never executes itself — syscalls, annotations (kABegin/kAEnd/kAClear),
// kHalt and kRepMovs — because they enter the kernel, fire hooks, or need
// the full access-list machinery; the engine bails out and the
// per-instruction engine executes them (Machine::ExecBarrier). Barriers
// always form singleton blocks.
enum class FusedKind : std::uint8_t {
  kBarrier,
  kNop,
  kLoadImm,
  kMov,
  kLoad,
  kStore,
  kMovM,
  kXchg,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kAnd,
  kOr,
  kXor,
  kAddI,
  kCmpEq,
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kJmp,
  kBnz,
  kBz,
  kCall,
  kCallInd,
  kRet,
  kPush,
  kPushM,
  kPop,
};

// One predecoded instruction (40 bytes vs the fat Instruction's ~100).
// Field use by kind:
//   a          immediate (kLoadImm/kAddI), primary memory offset, or the
//              static branch/call target PC (kJmp/kBnz/kBz/kCall)
//   b          secondary memory offset (kMovM source)
//   base/base2 memory operand base registers; kNoReg = absolute operand
//   target_op  op index of the static branch/call target (kNoOp if the
//              target PC is not an instruction start)
//   next_pc    PC of the next sequential instruction
struct TransOp {
  FusedKind kind = FusedKind::kBarrier;
  RegId rd = 0;
  RegId rs1 = 0;
  RegId rs2 = 0;
  std::uint8_t size = 8;
  RegId base = kNoReg;
  RegId base2 = kNoReg;
  std::uint32_t block = 0;
  std::uint32_t target_op = 0;
  ProgramCounter next_pc = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

// One memory access an op performs, as known at translation time: the
// address is the value of `base` before the op executes plus `offset`.
// base == kNoReg is an absolute operand (the address is `offset`, known
// statically); base == kRegSp is stack traffic, so pushes and calls write at
// offset -8 (the pre-decrement) and pops and returns read at offset 0. A
// kReadWrite access is an atomic read-modify-write (kXchg): a read and then
// a write of the same bytes.
struct AccessShape {
  RegId base = kNoReg;
  std::uint8_t size = 0;
  WatchType type = WatchType::kRead;  // kRead, kWrite or kReadWrite
  std::int64_t offset = 0;
};

// The one per-op access descriptor: calls `visit(shape)` for each memory
// access of `op`, in program order. The translator's static footprint, the
// block engine's may-trap filter and the per-instruction engine's access
// list (old values, trap matching, access events) are all derived from it.
// Barriers have no accesses here: kRepMovs's word-by-word accesses depend
// on registers and are listed on the barrier path
// (Machine::CollectAccesses), and the other barriers access no memory. A
// visitor rather than a returned list keeps the per-op filter in the block
// engine's hot loop as cheap as a hand-written switch.
template <typename Visit>
inline void AccessShapes(const TransOp& op, Visit&& visit) {
  const auto shape = [](RegId base, std::int64_t offset, unsigned size, WatchType type) {
    return AccessShape{base, static_cast<std::uint8_t>(size), type, offset};
  };
  switch (op.kind) {
    case FusedKind::kLoad:
      visit(shape(op.base, op.a, op.size, WatchType::kRead));
      break;
    case FusedKind::kStore:
      visit(shape(op.base, op.a, op.size, WatchType::kWrite));
      break;
    case FusedKind::kXchg:
      visit(shape(op.base, op.a, op.size, WatchType::kReadWrite));
      break;
    case FusedKind::kMovM:
      visit(shape(op.base2, op.b, op.size, WatchType::kRead));
      visit(shape(op.base, op.a, op.size, WatchType::kWrite));
      break;
    case FusedKind::kPushM:
      visit(shape(op.base, op.a, op.size, WatchType::kRead));
      visit(shape(kRegSp, -8, 8, WatchType::kWrite));
      break;
    case FusedKind::kCallInd:
      visit(shape(op.base, op.a, 8, WatchType::kRead));
      visit(shape(kRegSp, -8, 8, WatchType::kWrite));
      break;
    case FusedKind::kPush:
    case FusedKind::kCall:
      visit(shape(kRegSp, -8, 8, WatchType::kWrite));
      break;
    case FusedKind::kPop:
    case FusedKind::kRet:
      visit(shape(kRegSp, 0, 8, WatchType::kRead));
      break;
    default:
      break;  // no memory access, or a barrier
  }
}

// One access from a block's static footprint: performed through an absolute
// memory operand, so its address is known at translation time.
struct StaticAccess {
  Addr addr = 0;
  std::uint32_t size = 0;
};

struct TransBlock {
  std::uint32_t first_op = 0;
  std::uint32_t end_op = 0;  // one past the last op
  // Range into BlockTranslation::static_footprint().
  std::uint32_t fp_first = 0;
  std::uint32_t fp_end = 0;
  // Hull of the static footprint, [hull_lo, hull_hi); empty when no static
  // accesses.
  Addr hull_lo = 0;
  Addr hull_hi = 0;
  // True when *every* memory access any op of this block can perform is
  // static (no register-indirect or stack-pointer operands): the footprint
  // is then complete and a disjointness proof against the armed watchpoints
  // covers the whole block.
  bool all_static = false;
  bool has_mem = false;  // any op accesses memory at all
};

class BlockTranslation {
 public:
  static constexpr std::uint32_t kNoOp = 0xffffffffu;

  explicit BlockTranslation(const Program& program);

  std::size_t num_ops() const { return ops_.size(); }
  const TransOp* ops() const { return ops_.data(); }
  const TransOp& op(std::uint32_t index) const { return ops_[index]; }

  std::size_t num_blocks() const { return blocks_.size(); }
  const TransBlock& block(std::uint32_t id) const { return blocks_[id]; }
  const std::vector<StaticAccess>& static_footprint() const { return footprint_; }

  // Op index of the instruction whose first byte is at `pc`; kNoOp when the
  // PC is invalid (mid-instruction, past text_end, kThreadExitPc).
  std::uint32_t OpIndexOfPc(ProgramCounter pc) const {
    if (pc >= pc_to_op_.size()) {
      return kNoOp;
    }
    return pc_to_op_[static_cast<std::size_t>(pc)];
  }

  // The hoisting proof: true when no enabled watchpoint in `regs` can
  // overlap any access the block performs, so every op of the block may
  // execute without per-access checks. Exact for all_static blocks (the
  // footprint is complete); conservatively false otherwise. Callers memoize
  // the verdict keyed on the register file's generation() plus the
  // machine's invalidation epoch (Machine::InvalidateBlockChecks).
  bool BlockCheckFree(std::uint32_t block_id, const DebugRegisterFile& regs) const;

 private:
  std::vector<TransOp> ops_;          // one per instruction index
  std::vector<TransBlock> blocks_;
  std::vector<StaticAccess> footprint_;
  std::vector<std::uint32_t> pc_to_op_;  // dense, sized text_end
};

}  // namespace exec
}  // namespace kivati

#endif  // KIVATI_EXEC_BLOCK_TRANSLATE_H_
