#include "sched/machine.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "exec/fused_op.h"

namespace kivati {

const char* ToString(ThreadState state) {
  switch (state) {
    case ThreadState::kRunnable: return "runnable";
    case ThreadState::kSleeping: return "sleeping";
    case ThreadState::kSuspended: return "suspended";
    case ThreadState::kBlockedSync: return "blocked-sync";
    case ThreadState::kJoining: return "joining";
    case ThreadState::kDone: return "done";
  }
  return "?";
}

std::shared_ptr<const ProgramImage> MakeProgramImage(Program program) {
  return std::make_shared<const ProgramImage>(std::move(program));
}

Machine::Machine(Program program, MachineConfig config)
    : Machine(MakeProgramImage(std::move(program)), config) {}

Machine::Machine(std::shared_ptr<const ProgramImage> image, MachineConfig config)
    : image_(std::move(image)), config_(config), rng_(config.seed) {
  cores_.reserve(config_.num_cores);
  for (unsigned i = 0; i < config_.num_cores; ++i) {
    cores_.emplace_back(config_.watchpoints_per_core);
    order_.push_back(i);
  }
}

ThreadId Machine::SpawnThread(ProgramCounter entry, std::uint64_t arg) {
  const ThreadId tid = static_cast<ThreadId>(threads_.size());
  auto t = std::make_unique<ThreadContext>();
  t->tid = tid;
  t->pc = entry;
  t->sp = AddressSpace::StackTop(tid);
  t->sp -= 8;
  memory_.Write(t->sp, 8, kThreadExitPc);
  t->regs[0] = arg;
  threads_.push_back(std::move(t));
  queued_.push_back(false);
  ++live_count_;
  MakeRunnable(tid);
  return tid;
}

ThreadId Machine::SpawnThreadByName(const std::string& function, std::uint64_t arg) {
  const FunctionInfo* info = image_->program.FindFunction(function);
  assert(info != nullptr && "SpawnThreadByName: unknown function");
  return SpawnThread(info->entry, arg);
}

std::size_t Machine::live_threads() const {
  std::size_t live = 0;
  for (const auto& t : threads_) {
    if (t->state != ThreadState::kDone) {
      ++live;
    }
  }
  return live;
}

void Machine::EnterTimedWait(Cycles wake_at) {
  ++timed_waiters_;
  if (earliest_valid_ && wake_at < earliest_deadline_) {
    earliest_deadline_ = wake_at;
  }
}

void Machine::LeaveTimedWait(Cycles wake_at) {
  assert(timed_waiters_ > 0);
  --timed_waiters_;
  if (timed_waiters_ == 0) {
    earliest_deadline_ = ~Cycles{0};
    earliest_valid_ = true;
  } else if (earliest_valid_ && wake_at <= earliest_deadline_) {
    // The cached minimum (or a tie of it) left; rescan lazily.
    earliest_valid_ = false;
  }
}

void Machine::SuspendThread(ThreadId tid, std::optional<Cycles> timeout_at) {
  ThreadContext& t = thread(tid);
  if (IsTimedWait(t)) {
    LeaveTimedWait(t.wake_at);
  }
  t.state = ThreadState::kSuspended;
  t.has_deadline = timeout_at.has_value();
  if (timeout_at.has_value()) {
    t.wake_at = *timeout_at;
    EnterTimedWait(t.wake_at);
  }
}

void Machine::ResumeThread(ThreadId tid) {
  ThreadContext& t = thread(tid);
  if (t.state == ThreadState::kSuspended || t.state == ThreadState::kBlockedSync) {
    MakeRunnable(tid);
  }
}

void Machine::BlockThreadForSync(ThreadId tid) {
  ThreadContext& t = thread(tid);
  if (IsTimedWait(t)) {
    LeaveTimedWait(t.wake_at);
  }
  t.state = ThreadState::kBlockedSync;
  t.has_deadline = false;
}

void Machine::UnblockSyncThread(ThreadId tid) {
  if (thread(tid).state == ThreadState::kBlockedSync) {
    MakeRunnable(tid);
  }
}

void Machine::SleepThread(ThreadId tid, Cycles duration) {
  ThreadContext& t = thread(tid);
  if (IsTimedWait(t)) {
    LeaveTimedWait(t.wake_at);
  }
  t.state = ThreadState::kSleeping;
  t.wake_at = now_ + duration;
  t.has_deadline = true;
  EnterTimedWait(t.wake_at);
}

void Machine::CancelSleep(ThreadId tid) {
  if (thread(tid).state == ThreadState::kSleeping) {
    MakeRunnable(tid);
  }
}

void Machine::MakeRunnable(ThreadId tid) {
  ThreadContext& t = thread(tid);
  if (IsTimedWait(t)) {
    LeaveTimedWait(t.wake_at);
  }
  t.state = ThreadState::kRunnable;
  t.has_deadline = false;
  if (!queued_[tid] && !t.on_core) {
    queued_[tid] = true;
    ready_.push_back(tid);
  }
}

ThreadId Machine::PopRunnable() {
  // Purge entries that are no longer runnable (done, sleeping, suspended, or
  // already on a core) *before* drawing, so each random pick consumes
  // exactly one RNG draw and is a pure function of the runnable set. Drawing
  // over stale entries would make the schedule depend on dead queue contents
  // and burn a variable number of draws per logical decision — which is what
  // schedule recording (docs/replay.md) must rule out.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    const ThreadId tid = ready_[i];
    const ThreadContext& t = thread(tid);
    if (t.state == ThreadState::kRunnable && !t.on_core) {
      ready_[kept++] = tid;
    } else {
      queued_[tid] = false;
    }
  }
  ready_.resize(kept);
  if (ready_.empty()) {
    return kInvalidThread;
  }
  std::size_t pick = 0;
  if (config_.policy == SchedPolicy::kRandom && ready_.size() > 1) {
    if (sched_ctl_ != nullptr && sched_ctl_->replaying()) {
      pick = sched_ctl_->ReplayPick(ready_.data(), ready_.size(), instructions_executed_);
    } else {
      pick = rng_.NextBelow(ready_.size());
    }
    if (sched_ctl_ != nullptr) {
      sched_ctl_->CommitPick(ready_.size(), pick, ready_[pick], instructions_executed_);
    }
  }
  const ThreadId tid = ready_[pick];
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(pick));
  queued_[tid] = false;
  return tid;
}

void Machine::WakeExpiredTimers() {
  for (auto& tp : threads_) {
    ThreadContext& t = *tp;
    if (t.state == ThreadState::kSleeping && t.wake_at <= now_) {
      MakeRunnable(t.tid);
    } else if (t.state == ThreadState::kSuspended && t.has_deadline && t.wake_at <= now_) {
      if (hooks_ != nullptr) {
        hooks_->OnSuspensionTimeout(t.tid);
      }
      MakeRunnable(t.tid);
    }
  }
}

Cycles Machine::EarliestDeadlineSlow() const {
  Cycles earliest = ~Cycles{0};
  for (const auto& tp : threads_) {
    if (IsTimedWait(*tp)) {
      earliest = std::min(earliest, tp->wake_at);
    }
  }
  earliest_deadline_ = earliest;
  earliest_valid_ = true;
  return earliest_deadline_;
}

bool Machine::AnyDeadline() const { return EarliestDeadline() != ~Cycles{0}; }

void Machine::SortOrder() {
  // Insertion sort: the order is nearly sorted after any advance.
  for (std::size_t i = 1; i < order_.size(); ++i) {
    const CoreId core = order_[i];
    const Pick key{cores_[core].clock, core};
    std::size_t j = i;
    for (; j > 0 && Less(key, {cores_[order_[j - 1]].clock, order_[j - 1]}); --j) {
      order_[j] = order_[j - 1];
    }
    order_[j] = core;
  }
}

Cycles Machine::BusyMinClock() const {
  for (const CoreId core : order_) {
    if (cores_[core].current != kInvalidThread) {
      return cores_[core].clock;
    }
  }
  return ~Cycles{0};
}

bool Machine::CanPark(CoreId core, Cycles max_cycles) const {
  if (!ready_.empty() || (hooks_ != nullptr && !hooks_->IdleSyncIsNoOp(core))) {
    return false;
  }
  // The closed form covers idle steps taken before the next busy pick; a
  // timer or the cycle cap due by then must be met by real steps.
  return BusyMinClock() < std::min(EarliestDeadline(), max_cycles);
}

void Machine::Park(CoreId core) {
  assert(order_.front() == core);
  order_.erase(order_.begin());
  cores_[core].parked = true;
  ++parked_;
}

void Machine::UnparkCores(Pick next) {
  if (parked_ == 0) {
    return;
  }
  // Every idle step jumps the stepping core to max(clock + 1, target): the
  // smallest busy clock capped by the earliest deadline. Neither changed
  // since the last real pick — only events change them, and every event
  // unparks first.
  const Cycles target = std::min(EarliestDeadline(), BusyMinClock());
  Pick latest = last_pick_;  // the latest pick the per-cycle loop made before `next`
  bool stepped = false;
  for (CoreId i = 0; i < cores_.size(); ++i) {
    Core& c = cores_[i];
    if (!c.parked) {
      continue;
    }
    // After the last real pick the core is first picked at the smallest
    // clock ordered after it, or at its own clock if that is later.
    Cycles clock = std::max(c.clock, i > last_pick_.core ? last_pick_.clock
                                                         : last_pick_.clock + 1);
    while (Less({clock, i}, next)) {
      latest = Less(latest, {clock, i}) ? Pick{clock, i} : latest;
      stepped = true;
      clock = std::max(clock + 1, target);
    }
    c.clock = clock;
    c.parked = false;
    order_.push_back(i);
  }
  parked_ = 0;
  SortOrder();
  // IdleCoreStep names its core as the executing one only with hooks.
  if (stepped && hooks_ != nullptr) {
    executing_core_ = latest.core;
  }
}

void Machine::Reschedule(CoreId core, bool timer_interrupt) {
  Core& c = cores_[core];
  const ThreadId prev = c.current;
  if (timer_interrupt) {
    c.clock += config_.costs.context_switch;
    if (sched_ctl_ != nullptr) {
      sched_ctl_->OnPreemption(core, prev, instructions_executed_);
    }
    if (hooks_ != nullptr) {
      hooks_->OnKernelEntry(core);
    }
  }
  if (prev != kInvalidThread) {
    ThreadContext& p = thread(prev);
    p.on_core = false;
    c.current = kInvalidThread;
    if (p.state == ThreadState::kRunnable) {
      MakeRunnable(prev);
    }
  }
  const ThreadId next = PopRunnable();
  if (next == kInvalidThread) {
    return;
  }
  c.current = next;
  thread(next).on_core = true;
  c.quantum_left = config_.quantum;
  if (next != prev) {
    if (!timer_interrupt) {
      c.clock += config_.costs.context_switch;
    }
    if (trace_.hub().Wants(EventKind::kContextSwitch)) {
      trace_.hub().Emit({.when = now_,
                         .kind = EventKind::kContextSwitch,
                         .thread = next,
                         .slot = static_cast<std::int32_t>(core),
                         .detail = static_cast<std::uint32_t>(prev)});
    }
    if (hooks_ != nullptr) {
      hooks_->OnContextSwitch(core, prev, next);
    }
  }
}

Machine::IdleOutcome Machine::IdleCoreStep(CoreId core) {
  Core& c = cores_[core];
  // An idle core sits in the kernel idle loop, so it is trivially
  // "in the kernel": give the hooks their opportunistic sync point
  // (without this, threads blocked on cross-core watchpoint sync could
  // wait on a core that never re-enters the kernel). The sync may make
  // a thread runnable; pick it up immediately.
  if (hooks_ != nullptr) {
    executing_core_ = core;
    hooks_->OnKernelEntry(core);
    Reschedule(core, /*timer_interrupt=*/false);
    if (c.current != kInvalidThread) {
      return IdleOutcome::kProgress;
    }
  }
  // Idle: jump to the next time anything can happen on this core —
  // a timer wake, or another core's progress releasing a thread.
  Cycles next_time = EarliestDeadline();
  bool any_other_busy = false;
  for (CoreId i = 0; i < cores_.size(); ++i) {
    if (i != core && cores_[i].current != kInvalidThread) {
      any_other_busy = true;
      next_time = std::min(next_time, std::max(cores_[i].clock, c.clock + 1));
    }
  }
  if (next_time == ~Cycles{0}) {
    if (!any_other_busy && ready_.empty()) {
      return IdleOutcome::kDeadlock;
    }
    next_time = c.clock + 1;
  }
  c.clock = std::max(c.clock + 1, next_time);
  return IdleOutcome::kProgress;
}

RunResult Machine::Run(Cycles max_cycles) {
  RunResult result;
  // Block-translated execution hands per-instruction control back whenever
  // something needs instruction-exact decisions: a replaying or guided
  // ScheduleController (record mode stays on — the decision stream is
  // identical either way), address tracing, or an access-level trace sink
  // (that one is re-checked per iteration below).
  const bool block_ok = config_.block_translate && config_.trace_addr == kInvalidAddr &&
                        (sched_ctl_ == nullptr || !sched_ctl_->replaying());
  while (true) {
    if (live_count_ == 0) {
      result.all_done = true;
      break;
    }
    // Pick the core with the smallest clock (ties by core id).
    const CoreId core = order_.front();
    Core& c = cores_[core];
    const Pick pick{c.clock, core};
    if (parked_ != 0 && pick.clock >= std::min(EarliestDeadline(), max_cycles)) {
      // A timer or the cycle cap is due, and idle steps that reach it do
      // real work: resume from the exact state after the last real pick and
      // take those steps for real.
      UnparkCores(last_pick_);
      continue;
    }
    if (pick.clock >= max_cycles) {
      result.hit_limit = true;
      break;
    }
    now_ = pick.clock;
    // The scan in WakeExpiredTimers wakes nothing unless a deadline has
    // expired; the cached earliest deadline makes that check O(1).
    if (EarliestDeadline() <= now_) {
      WakeExpiredTimers();
    }

    const bool idle = c.current == kInvalidThread;
    if (idle || thread(c.current).state != ThreadState::kRunnable || c.quantum_left == 0) {
      const bool timer = !idle && thread(c.current).state == ThreadState::kRunnable &&
                         c.quantum_left == 0;
      if (!idle) {
        UnparkCores(pick);  // the preemption or switch fires hooks
      }
      Reschedule(core, timer);
    }
    if (c.current == kInvalidThread) {
      // The parked clock's closed form starts at this pick, so a core whose
      // preemption just charged it a context switch takes this step for real.
      if (c.clock == pick.clock && CanPark(core, max_cycles)) {
        Park(core);
        continue;
      }
      UnparkCores(pick);  // a real idle step enters the kernel
      last_pick_ = pick;
      if (IdleCoreStep(core) == IdleOutcome::kDeadlock) {
        result.deadlocked = true;
        break;
      }
      RequeueFront();
      continue;
    }
    last_pick_ = pick;
    // Access-level sinks (the HB oracle, --trace-events=access) need every
    // instruction's access list, and may subscribe between Run calls.
    if (block_ok && (trace_.hub().mask() & kAccessEventKinds) == 0 &&
        RunTranslated(max_cycles, core) != 0) {
      // The fused loop advanced the machine and stopped at a consistent
      // iteration boundary; re-derive everything at the top of the loop.
      continue;
    }
    const bool event = ExecuteOne(core);
    RequeueFront();
    if (event) {
      UnparkCores(last_pick_);
    }
  }
  // Every exit follows an unpark: the last thread's exit is an event, the
  // cycle cap is met with no core parked, and a deadlock needs every core
  // idle.
  assert(parked_ == 0);
  Cycles end = 0;
  for (const auto& c : cores_) {
    end = std::max(end, c.clock);
  }
  result.cycles = end;
  result.instructions = instructions_executed_;
  if (result.deadlocked) {
    KIVATI_LOG(kWarning) << "machine deadlocked at cycle " << result.cycles << " with "
                         << live_threads() << " live threads";
  }
  return result;
}

void Machine::CollectAccesses(const ThreadContext& t, std::uint32_t index,
                              std::vector<MemAccess>& out,
                              const DebugRegisterFile* filter) const {
  out.clear();
  const exec::TransOp& op = image_->blocks.op(index);
  if (op.kind != exec::FusedKind::kBarrier) {
    exec::AccessShapes(op, [&](const exec::AccessShape& shape) {
      const Addr addr = exec::AccessAddr(shape, t);
      if (shape.type != WatchType::kWrite) {
        out.push_back({addr, shape.size, AccessType::kRead});
      }
      if (shape.type != WatchType::kRead) {
        out.push_back({addr, shape.size, AccessType::kWrite});
      }
    });
  } else if (const Instruction& instr = image_->program.At(index);
             instr.op == Opcode::kRepMovs) {
    // Every word of the repetition is an access; as on pre-Pentium-4
    // hardware, the trap for any of them is only delivered after the
    // whole instruction (paper §3.5), which is what trap-after delivery
    // of the instruction's access list models.
    const std::uint64_t count = ReadReg(t, instr.rd);
    const Addr src = ReadReg(t, instr.rs1);
    const Addr dst = ReadReg(t, instr.rs2);
    for (std::uint64_t i = 0; i < count; ++i) {
      out.push_back({src + 8 * i, 8, AccessType::kRead});
      out.push_back({dst + 8 * i, 8, AccessType::kWrite});
    }
  }
  // Old values are consumed solely when the kernel undoes the *trapped*
  // access, so skipping the capture for accesses that cannot trap is exact.
  for (MemAccess& access : out) {
    if (filter == nullptr || filter->MayMatch(access.addr, access.size)) {
      access.old_value = memory_.Read(access.addr, access.size);
    }
  }
}

void Machine::ExecBarrier(CoreId core, ThreadContext& t, const Instruction& instr,
                          ProgramCounter next_pc) {
  switch (instr.op) {
    case Opcode::kHalt:
      ExitThread(t.tid, 0);
      break;
    case Opcode::kRepMovs: {
      const std::uint64_t count = ReadReg(t, instr.rd);
      const Addr src = ReadReg(t, instr.rs1);
      const Addr dst = ReadReg(t, instr.rs2);
      for (std::uint64_t i = 0; i < count; ++i) {
        memory_.Write(dst + 8 * i, 8, memory_.Read(src + 8 * i, 8));
      }
      t.pc = next_pc;
      break;
    }
    case Opcode::kSyscall:
      t.pc = next_pc;
      DoSyscall(core, t, instr);
      break;
    case Opcode::kABegin:
      t.pc = next_pc;
      if (hooks_ != nullptr) {
        hooks_->OnBeginAtomic(t.tid, instr, EffectiveAddress(t, instr.mem));
      }
      break;
    case Opcode::kAEnd:
      t.pc = next_pc;
      if (hooks_ != nullptr) {
        hooks_->OnEndAtomic(t.tid, instr);
      }
      break;
    case Opcode::kAClear:
      t.pc = next_pc;
      if (hooks_ != nullptr) {
        hooks_->OnClearAr(t.tid, t.call_depth);
      }
      break;
    default:
      break;  // not a barrier: executed by exec::ExecFusedOp
  }
}

void Machine::DoSyscall(CoreId core, ThreadContext& t, const Instruction& instr) {
  ChargeExtra(config_.costs.kernel_crossing);
  if (hooks_ != nullptr) {
    hooks_->OnKernelEntry(core);
  }
  switch (static_cast<Syscall>(instr.imm)) {
    case Syscall::kExit:
      ExitThread(t.tid, t.regs[0]);
      break;
    case Syscall::kSpawn: {
      const ThreadId child = SpawnThread(t.regs[0], t.regs[1]);
      t.regs[0] = child;
      if (trace_.hub().Wants(EventKind::kThreadSpawn)) {
        trace_.hub().Emit({.when = now_,
                           .kind = EventKind::kThreadSpawn,
                           .thread = t.tid,
                           .pc = current_instruction_pc_,
                           .detail = static_cast<std::uint32_t>(child)});
      }
      break;
    }
    case Syscall::kJoin: {
      const ThreadId target = static_cast<ThreadId>(t.regs[0]);
      if (target < threads_.size() && thread(target).state != ThreadState::kDone) {
        t.state = ThreadState::kJoining;
        t.join_target = target;
      } else if (target < threads_.size() && trace_.hub().Wants(EventKind::kThreadJoin)) {
        // Target already exited: the join completes immediately.
        trace_.hub().Emit({.when = now_,
                           .kind = EventKind::kThreadJoin,
                           .thread = t.tid,
                           .detail = static_cast<std::uint32_t>(target)});
      }
      break;
    }
    case Syscall::kYield:
      // Force a reschedule at the top of the loop.
      cores_[core].quantum_left = 0;
      break;
    case Syscall::kSleep:
    case Syscall::kIo:
      SleepThread(t.tid, t.regs[0]);
      break;
    case Syscall::kMark:
      trace_.AddMark(MarkEvent{now_, t.tid, static_cast<std::int64_t>(t.regs[0]), t.regs[1]});
      break;
    case Syscall::kNow:
      t.regs[0] = now_;
      break;
  }
}

void Machine::ExitThread(ThreadId tid, std::uint64_t status) {
  ThreadContext& t = thread(tid);
  if (IsTimedWait(t)) {
    LeaveTimedWait(t.wake_at);
  }
  assert(live_count_ > 0);
  --live_count_;
  t.state = ThreadState::kDone;
  t.exit_status = status;
  if (hooks_ != nullptr) {
    hooks_->OnThreadExit(tid);
  }
  for (auto& other : threads_) {
    if (other->state == ThreadState::kJoining && other->join_target == tid) {
      if (trace_.hub().Wants(EventKind::kThreadJoin)) {
        trace_.hub().Emit({.when = now_,
                           .kind = EventKind::kThreadJoin,
                           .thread = other->tid,
                           .detail = static_cast<std::uint32_t>(tid)});
      }
      MakeRunnable(other->tid);
    }
  }
}

void Machine::EmitAccessEvents(const ThreadContext& t, const exec::TransOp& op) {
  const std::uint32_t mask = trace_.hub().mask();
  // Lock acquisition compiles to an atomic read-modify-write (kXchg);
  // detectors key lock inference off this flag.
  const bool atomic_rmw = op.kind == exec::FusedKind::kXchg;
  for (const MemAccess& access : access_scratch_) {
    // Shared data only: globals and heap. Stacks (thread-private) and the
    // Kivati replica page (runtime-internal) are architecturally invisible
    // to other threads' program logic.
    if (access.addr < kDataBase || access.addr >= kStackBase) {
      continue;
    }
    const bool read = access.type == AccessType::kRead;
    const EventKind kind = read ? EventKind::kSharedRead : EventKind::kSharedWrite;
    if ((mask & kEventKindBit(kind)) == 0) {
      continue;
    }
    // Reads report the value observed (captured pre-execution); writes
    // report the committed value.
    trace_.hub().Emit({.when = now_,
                       .kind = kind,
                       .thread = t.tid,
                       .addr = access.addr,
                       .pc = current_instruction_pc_,
                       .detail = PackAccessDetail(access.size, atomic_rmw),
                       .value = read ? access.old_value
                                     : memory_.Read(access.addr, access.size)});
  }
}

bool Machine::ExecuteOne(CoreId core) {
  Core& c = cores_[core];
  ThreadContext& t = thread(c.current);
  executing_core_ = core;
  now_ = c.clock;

  if (t.pc == kThreadExitPc) {
    ExitThread(t.tid, t.regs[0]);
    return true;
  }
  const exec::BlockTranslation& trans = image_->blocks;
  const std::uint32_t index = trans.OpIndexOfPc(t.pc);
  if (index == exec::BlockTranslation::kNoOp) {
    KIVATI_LOG(kError) << "thread " << t.tid << " jumped to invalid pc 0x" << std::hex << t.pc;
    ExitThread(t.tid, ~std::uint64_t{0});
    return true;
  }
  const exec::TransOp& op = trans.op(index);
  current_instruction_pc_ = t.pc;
  pending_extra_ = 0;
  Cycles cost = config_.costs.user_instruction;

  // The access list is observed by three consumers: trap delivery (only
  // with a watchpoint armed on this core), address tracing, and
  // access-level event sinks (the HB detector, --trace-events=access; the
  // cached hub mask makes that check one load-and-test). With none of them,
  // skip building it (and the old-value memory reads) entirely. With only
  // watchpoints armed, MayMatch skips the old-value capture for accesses
  // outside the armed range hull.
  const bool access_events = (trace_.hub().mask() & kAccessEventKinds) != 0;
  const bool tracing = config_.trace_addr != kInvalidAddr;
  const bool armed = hooks_ != nullptr && c.debug_regs.any_armed();
  if (tracing || armed || access_events) {
    CollectAccesses(t, index, access_scratch_,
                    tracing || access_events ? nullptr : &c.debug_regs);
  } else {
    access_scratch_.clear();
  }

  bool event = op.kind == exec::FusedKind::kBarrier;
  bool cancelled = false;
  if (config_.trap_delivery == TrapDelivery::kBefore && hooks_ != nullptr) {
    for (const MemAccess& access : access_scratch_) {
      const auto slot = c.debug_regs.Match(access.addr, access.size, access.type);
      if (slot.has_value()) {
        event = true;
        if (hooks_->OnWatchpointTrap(t.tid, core, *slot, access, t.pc)) {
          cancelled = true;
          break;
        }
      }
    }
  }

  if (!cancelled) {
    if (tracing) {
      for (const MemAccess& access : access_scratch_) {
        if (access.type == AccessType::kWrite && access.addr <= config_.trace_addr &&
            config_.trace_addr < access.addr + access.size) {
          // Log after semantics below; remember that a traced write happens.
          traced_write_pending_ = true;
        }
      }
    }
    if (op.kind == exec::FusedKind::kBarrier) {
      ExecBarrier(core, t, image_->program.At(index), op.next_pc);
    } else {
      exec::ExecFusedOp(trans.ops(), index, t, memory_, trans);
    }
    if (traced_write_pending_) {
      traced_write_pending_ = false;
      KIVATI_LOG(kDebug) << "write: t" << t.tid << " pc=0x" << std::hex
                         << current_instruction_pc_ << " "
                         << ToString(image_->program.At(index).op) << " [0x"
                         << config_.trace_addr << "] = " << std::dec
                         << memory_.Read(config_.trace_addr, 8) << " at " << now_;
    }
    ++t.instructions;
    ++instructions_executed_;
    if (access_events && !access_scratch_.empty()) {
      EmitAccessEvents(t, op);
    }
    if (config_.trap_delivery == TrapDelivery::kAfter && hooks_ != nullptr) {
      for (const MemAccess& access : access_scratch_) {
        const auto slot = c.debug_regs.Match(access.addr, access.size, access.type);
        if (slot.has_value()) {
          // Trap-after: the access has committed; t.pc already points at the
          // architecturally next instruction (or the callee for calls).
          event = true;
          hooks_->OnWatchpointTrap(t.tid, core, *slot, access, t.pc);
          break;  // one trap delivered per instruction, as DR6 handling does
        }
      }
    }
  }

  cost += pending_extra_;
  pending_extra_ = 0;
  c.clock += cost;
  t.cpu_cycles += cost;
  c.quantum_left -= std::min(cost, c.quantum_left);
  return event;
}

}  // namespace kivati
