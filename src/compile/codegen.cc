#include "compile/codegen.h"

#include <cassert>
#include <vector>

#include "kernel/config.h"

namespace kivati {
namespace {

// Scratch registers used by the stack-slot code generator. Locals live in
// stack slots; registers only carry values within one MIR op, so calls need
// no save/restore discipline.
constexpr RegId kS0 = 8;
constexpr RegId kS1 = 9;

Opcode OpcodeFor(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return Opcode::kAdd;
    case BinOp::kSub: return Opcode::kSub;
    case BinOp::kMul: return Opcode::kMul;
    case BinOp::kDiv: return Opcode::kDiv;
    case BinOp::kMod: return Opcode::kMod;
    case BinOp::kAnd: return Opcode::kAnd;
    case BinOp::kOr: return Opcode::kOr;
    case BinOp::kXor: return Opcode::kXor;
    case BinOp::kEq: return Opcode::kCmpEq;
    case BinOp::kNe: return Opcode::kCmpNe;
    case BinOp::kLt: return Opcode::kCmpLt;
    case BinOp::kLe: return Opcode::kCmpLe;
    case BinOp::kGt: return Opcode::kCmpLt;  // swapped operands
    case BinOp::kGe: return Opcode::kCmpLe;  // swapped operands
  }
  return Opcode::kAdd;
}

bool SwapsOperands(BinOp op) { return op == BinOp::kGt || op == BinOp::kGe; }

class FunctionCodegen {
 public:
  FunctionCodegen(ProgramBuilder& builder, const MirModule& module, const MirFunction& function,
                  const FunctionAnnotations* annotations, bool emit_replica_stores,
                  const std::unordered_set<ArId>* pruned)
      : b_(builder),
        module_(module),
        f_(function),
        annotations_(annotations),
        emit_replica_(emit_replica_stores),
        pruned_(pruned) {}

  void Run() {
    LayoutFrame();
    IndexAnnotations();

    b_.BeginFunction(f_.name);
    // Prologue: allocate the frame, home the parameters.
    if (frame_size_ > 0) {
      b_.AddI(kRegSp, kRegSp, -static_cast<std::int64_t>(frame_size_));
    }
    for (unsigned i = 0; i < f_.num_params; ++i) {
      b_.Store(Slot(static_cast<int>(i)), static_cast<RegId>(i));
    }

    op_labels_.resize(f_.ops.size() + 1);
    for (auto& label : op_labels_) {
      label = b_.NewLabel();
    }
    for (std::size_t i = 0; i < f_.ops.size(); ++i) {
      b_.Bind(op_labels_[i]);
      EmitBegins(i);
      EmitOp(i);
      EmitReplicas(i);
      EmitEnds(i);
    }
    // Branches may target one-past-the-end; give them an epilogue.
    b_.Bind(op_labels_[f_.ops.size()]);
    EmitEpilogue();
    b_.EndFunction();
  }

 private:
  void LayoutFrame() {
    slot_off_.resize(f_.locals.size());
    std::int64_t offset = 0;
    for (std::size_t i = 0; i < f_.locals.size(); ++i) {
      slot_off_[i] = offset;
      const std::int64_t words =
          f_.locals[i].array_size > 0 ? f_.locals[i].array_size : 1;
      offset += 8 * words;
    }
    frame_size_ = static_cast<std::uint64_t>(offset);
  }

  void IndexAnnotations() {
    begins_at_.assign(f_.ops.size(), {});
    ends_at_.assign(f_.ops.size(), {});
    replicas_at_.assign(f_.ops.size(), {});
    if (annotations_ == nullptr) {
      return;
    }
    for (const FunctionAr& ar : annotations_->ars) {
      if (pruned_ != nullptr && pruned_->contains(ar.id)) {
        continue;  // statically proven unviolable: drop all its annotations
      }
      begins_at_[static_cast<std::size_t>(ar.first_op)].push_back(&ar);
      if (emit_replica_ && ar.needs_replica) {
        replicas_at_[static_cast<std::size_t>(ar.first_op)].push_back(&ar);
      }
      for (const auto& [op, type] : ar.ends) {
        ends_at_[static_cast<std::size_t>(op)].emplace_back(ar.id, type);
        // A write-type second access also refreshes the AR's shared-page
        // value: a remote access trapped between this write and the
        // end_atomic must be rolled back to the post-write value. Fused
        // multi-variable regions may end after *another* member's access;
        // that op's value belongs to the other variable, so only ops that
        // touch this AR's own variable (or calls, which reload it) refresh.
        if (emit_replica_ && type == AccessType::kWrite && EndAccessesOwnVar(ar, op)) {
          replicas_at_[static_cast<std::size_t>(op)].push_back(&ar);
        }
      }
    }
  }

  // Whether the end op at `op_index` performs an access to `ar`'s own
  // variable. Single-variable AR ends always do (pairs are same-variable);
  // a call end stands for a callee access to the variable.
  bool EndAccessesOwnVar(const FunctionAr& ar, int op_index) const {
    const MirOp& op = f_.ops[static_cast<std::size_t>(op_index)];
    if (op.kind == MirOp::Kind::kCall) {
      return true;
    }
    const auto access = SharedAccessOf(op);
    return access.has_value() && access->base.space == ar.var.space &&
           access->base.index == ar.var.index;
  }

  MemOperand Slot(int local) const {
    return MemOperand::Indirect(kRegSp, slot_off_[static_cast<std::size_t>(local)]);
  }

  Addr GlobalAddr(int global) const {
    return module_.globals[static_cast<std::size_t>(global)].addr;
  }

  // Computes the address of arr[index_local] into `dst`.
  void EmitElementAddress(RegId dst, const VarRef& array, int index_local) {
    b_.Load(dst, Slot(index_local));
    b_.LoadImm(kS1, 8);
    b_.Alu(Opcode::kMul, dst, dst, kS1);
    if (array.space == VarRef::Space::kGlobal) {
      b_.LoadImm(kS1, static_cast<std::int64_t>(GlobalAddr(array.index)));
      b_.Alu(Opcode::kAdd, dst, dst, kS1);
    } else {
      b_.AddI(kS1, kRegSp, slot_off_[static_cast<std::size_t>(array.index)]);
      b_.Alu(Opcode::kAdd, dst, dst, kS1);
    }
  }

  // Materializes the begin_atomic for `ar` (paper §3.1: five arguments —
  // AR id, shared variable address, size, remote watch type, first access
  // type — the address possibly computed at run time).
  void EmitBegins(std::size_t op_index) {
    for (const FunctionAr* ar : begins_at_[op_index]) {
      const MirOp& op = f_.ops[static_cast<std::size_t>(ar->first_op)];
      MemOperand address;
      switch (op.kind) {
        case MirOp::Kind::kLoadGlobal:
        case MirOp::Kind::kStoreGlobal:
        case MirOp::Kind::kLock:
        case MirOp::Kind::kUnlock:
          address = MemOperand::Absolute(GlobalAddr(op.global));
          break;
        case MirOp::Kind::kLoadIndex:
        case MirOp::Kind::kStoreIndex:
          EmitElementAddress(kS0, op.array, op.a);
          address = MemOperand::Indirect(kS0);
          break;
        case MirOp::Kind::kLoadPtr:
        case MirOp::Kind::kStorePtr:
          b_.Load(kS0, Slot(op.a));
          address = MemOperand::Indirect(kS0);
          break;
        case MirOp::Kind::kLoadLocalMem:
        case MirOp::Kind::kStoreLocalMem:
          address = MemOperand::Indirect(kRegSp,
                                         slot_off_[static_cast<std::size_t>(op.local_mem)]);
          break;
        case MirOp::Kind::kCall:
          // Inter-procedural AR starting at a call site: the annotator only
          // creates these for globals the callee may access.
          assert(ar->var.space == VarRef::Space::kGlobal);
          address = MemOperand::Absolute(GlobalAddr(ar->var.index));
          break;
        default:
          assert(false && "AR first op is not a shared access");
          continue;
      }
      // kABegin carries the joint mask to the kernel, which installs it at
      // region entry and fires Machine::InvalidateBlockChecks so the block
      // engine's hoisted check-free verdicts never outlive a mask change.
      // Annotations are also translation barriers (exec/block_translate.h):
      // every AR boundary hands control to the per-instruction engine.
      b_.BeginAtomic(ar->id, address, 8, ar->watch, ar->first_type, ar->joint_types);
    }
  }

  // Shared-page replica of the value just written by a local write that
  // opens or closes an AR (optimization 3). Reads the value from the
  // private slot, never from the shared variable, so it adds no watched
  // access.
  void EmitReplicas(std::size_t op_index) {
    for (const FunctionAr* ar : replicas_at_[op_index]) {
      const MirOp& op = f_.ops[op_index];
      switch (op.kind) {
        case MirOp::Kind::kStoreGlobal:
        case MirOp::Kind::kStoreLocalMem:
          b_.Load(kS0, Slot(op.a));
          break;
        case MirOp::Kind::kStoreIndex:
        case MirOp::Kind::kStorePtr:
          b_.Load(kS0, Slot(op.b));
          break;
        case MirOp::Kind::kLock:
          b_.LoadImm(kS0, 1);
          break;
        case MirOp::Kind::kUnlock:
          b_.LoadImm(kS0, 0);
          break;
        case MirOp::Kind::kCall:
          // The write happened somewhere inside the callee: reload the
          // variable itself (a local access — suppressed for the owner
          // under optimization 3, so it adds no trap).
          b_.Load(kS0, MemOperand::Absolute(GlobalAddr(ar->var.index)));
          break;
        default:
          continue;
      }
      b_.Store(MemOperand::Absolute(SharedPageSlot(ar->id)), kS0);
    }
  }

  void EmitEnds(std::size_t op_index) {
    for (const auto& [ar, type] : ends_at_[op_index]) {
      b_.EndAtomic(ar, type);
    }
  }

  void EmitEpilogue() {
    if (annotations_ != nullptr) {
      b_.ClearAr();
    }
    if (frame_size_ > 0) {
      b_.AddI(kRegSp, kRegSp, static_cast<std::int64_t>(frame_size_));
    }
    b_.Ret();
  }

  void EmitOp(std::size_t index) {
    const MirOp& op = f_.ops[index];
    switch (op.kind) {
      case MirOp::Kind::kConst:
        b_.LoadImm(kS0, op.imm);
        b_.Store(Slot(op.dst), kS0);
        break;
      case MirOp::Kind::kCopy:
      case MirOp::Kind::kStoreLocalMem: {
        const int dst = op.kind == MirOp::Kind::kCopy ? op.dst : op.local_mem;
        b_.Load(kS0, Slot(op.a));
        b_.Store(Slot(dst), kS0);
        break;
      }
      case MirOp::Kind::kLoadLocalMem:
        b_.Load(kS0, Slot(op.local_mem));
        b_.Store(Slot(op.dst), kS0);
        break;
      case MirOp::Kind::kBin: {
        const int lhs = SwapsOperands(op.bin_op) ? op.b : op.a;
        const int rhs = SwapsOperands(op.bin_op) ? op.a : op.b;
        b_.Load(kS0, Slot(lhs));
        b_.Load(kS1, Slot(rhs));
        b_.Alu(OpcodeFor(op.bin_op), kS0, kS0, kS1);
        b_.Store(Slot(op.dst), kS0);
        break;
      }
      case MirOp::Kind::kLoadGlobal:
        b_.Load(kS0, MemOperand::Absolute(GlobalAddr(op.global)));
        b_.Store(Slot(op.dst), kS0);
        break;
      case MirOp::Kind::kStoreGlobal:
        b_.Load(kS0, Slot(op.a));
        b_.Store(MemOperand::Absolute(GlobalAddr(op.global)), kS0);
        break;
      case MirOp::Kind::kLoadIndex:
        EmitElementAddress(kS0, op.array, op.a);
        b_.Load(kS1, MemOperand::Indirect(kS0));
        b_.Store(Slot(op.dst), kS1);
        break;
      case MirOp::Kind::kStoreIndex:
        EmitElementAddress(kS0, op.array, op.a);
        b_.Load(kS1, Slot(op.b));
        b_.Store(MemOperand::Indirect(kS0), kS1);
        break;
      case MirOp::Kind::kLoadPtr:
        b_.Load(kS0, Slot(op.a));
        b_.Load(kS1, MemOperand::Indirect(kS0));
        b_.Store(Slot(op.dst), kS1);
        break;
      case MirOp::Kind::kStorePtr:
        b_.Load(kS0, Slot(op.a));
        b_.Load(kS1, Slot(op.b));
        b_.Store(MemOperand::Indirect(kS0), kS1);
        break;
      case MirOp::Kind::kAddrGlobal:
        b_.LoadImm(kS0, static_cast<std::int64_t>(GlobalAddr(op.global)));
        b_.Store(Slot(op.dst), kS0);
        break;
      case MirOp::Kind::kAddrLocal:
        b_.AddI(kS0, kRegSp, slot_off_[static_cast<std::size_t>(op.local_mem)]);
        b_.Store(Slot(op.dst), kS0);
        break;
      case MirOp::Kind::kAddrIndex:
        EmitElementAddress(kS0, op.array, op.a);
        b_.Store(Slot(op.dst), kS0);
        break;
      case MirOp::Kind::kCall: {
        for (std::size_t j = 0; j < op.args.size(); ++j) {
          b_.Load(static_cast<RegId>(j), Slot(op.args[j]));
        }
        b_.Call(op.callee);
        if (op.dst >= 0) {
          b_.Store(Slot(op.dst), 0);
        }
        break;
      }
      case MirOp::Kind::kSpawn:
        b_.LoadFunctionAddress(0, op.callee);
        if (!op.args.empty()) {
          b_.Load(1, Slot(op.args[0]));
        } else {
          b_.LoadImm(1, 0);
        }
        b_.SyscallOp(Syscall::kSpawn);
        break;
      case MirOp::Kind::kLock: {
        // Test-and-set spin lock with a short sleep backoff between
        // attempts (as futex-style locks do); the lock word accesses are
        // real shared accesses the annotator sees.
        const auto retry = b_.NewLabel();
        const auto done = b_.NewLabel();
        b_.Bind(retry);
        b_.LoadImm(kS0, 1);
        b_.Xchg(kS1, MemOperand::Absolute(GlobalAddr(op.global)), kS0);
        b_.Bz(kS1, done);
        b_.LoadImm(0, 200);
        b_.SyscallOp(Syscall::kSleep);
        b_.Jmp(retry);
        b_.Bind(done);
        break;
      }
      case MirOp::Kind::kUnlock:
        b_.LoadImm(kS0, 0);
        b_.Store(MemOperand::Absolute(GlobalAddr(op.global)), kS0);
        break;
      case MirOp::Kind::kSleep:
        b_.Load(0, Slot(op.a));
        b_.SyscallOp(Syscall::kSleep);
        break;
      case MirOp::Kind::kIo:
        b_.Load(0, Slot(op.a));
        b_.SyscallOp(Syscall::kIo);
        break;
      case MirOp::Kind::kYield:
        b_.SyscallOp(Syscall::kYield);
        break;
      case MirOp::Kind::kMark:
        b_.Load(0, Slot(op.a));
        b_.Load(1, Slot(op.b));
        b_.SyscallOp(Syscall::kMark);
        break;
      case MirOp::Kind::kNow:
        b_.SyscallOp(Syscall::kNow);
        b_.Store(Slot(op.dst), 0);
        break;
      case MirOp::Kind::kExitSys:
        b_.Load(0, Slot(op.a));
        b_.SyscallOp(Syscall::kExit);
        break;
      case MirOp::Kind::kBr:
        b_.Load(kS0, Slot(op.a));
        b_.Bnz(kS0, op_labels_[static_cast<std::size_t>(op.target)]);
        if (static_cast<std::size_t>(op.target2) != index + 1) {
          b_.Jmp(op_labels_[static_cast<std::size_t>(op.target2)]);
        }
        break;
      case MirOp::Kind::kJmp:
        if (static_cast<std::size_t>(op.target) != index + 1) {
          b_.Jmp(op_labels_[static_cast<std::size_t>(op.target)]);
        }
        break;
      case MirOp::Kind::kRet:
        if (op.a >= 0) {
          b_.Load(0, Slot(op.a));
        }
        EmitEpilogue();
        break;
    }
  }

  ProgramBuilder& b_;
  const MirModule& module_;
  const MirFunction& f_;
  const FunctionAnnotations* annotations_;
  const bool emit_replica_;
  const std::unordered_set<ArId>* pruned_;

  std::vector<std::int64_t> slot_off_;
  std::uint64_t frame_size_ = 0;
  std::vector<ProgramBuilder::Label> op_labels_;
  std::vector<std::vector<const FunctionAr*>> begins_at_;
  std::vector<std::vector<std::pair<ArId, AccessType>>> ends_at_;
  std::vector<std::vector<const FunctionAr*>> replicas_at_;
};

}  // namespace

Program GenerateCode(const MirModule& module, const ModuleAnnotations* annotations,
                     bool emit_replica_stores, const std::unordered_set<ArId>* pruned) {
  ProgramBuilder builder;
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    const FunctionAnnotations* fa =
        annotations != nullptr ? &annotations->functions[i] : nullptr;
    FunctionCodegen(builder, module, module.functions[i], fa, emit_replica_stores, pruned).Run();
  }
  return builder.Build();
}

}  // namespace kivati
