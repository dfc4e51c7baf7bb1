// Basic-block translation engine (exec/block_translate.h, docs/performance.md).
//
// Three layers of guardrails:
//   1. Structural unit tests of the translation: leader analysis (branch
//      targets and barrier instructions open blocks), barrier singletons,
//      static-target resolution, PC mapping, and the static-footprint
//      hoisting proof (BlockCheckFree).
//   2. Byte-identity: every corpus bug — the 11 single-variable and the 4
//      multi-variable ones — at 2, 4 and 8 cores, and scaled NSS/VLC
//      sweeps, simulate identically under the block engine and the
//      per-instruction engine, and both match the digests the retired
//      reference interpreter loop produced (tests/golden/
//      engine_digests.txt): full RunRecord JSON (modulo wall clock) plus
//      the recorded ScheduleTrace. The same holds for the schedule
//      tooling: guided PCT and bounded-preemption runs of every bug at 2, 4
//      and 8 cores, strict replays of the c2 recordings and loose replays
//      of shrunk schedules.
//   3. End-to-end schedule tooling through the block engine: a guided-fuzz
//      rediscovery produces a report byte-identical to the per-instruction
//      engine's, and `kivati annotate`-visible line attribution stays exact
//      when the attributed program is executed under fusion (the PR 8 case).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/common.h"
#include "compile/compiler.h"
#include "exec/block_translate.h"
#include "exp/fuzz.h"
#include "exp/run_record.h"
#include "exp/run_spec.h"
#include "exp/runner.h"
#include "hw/debug_registers.h"
#include "isa/program.h"
#include "sched/machine.h"
#include "tests/engine_digest.h"
#include "tests/test_util.h"

namespace kivati {
namespace {

using exec::BlockTranslation;
using exec::FusedKind;
using exec::TransBlock;
using exec::TransOp;

constexpr std::uint32_t kNoOp = BlockTranslation::kNoOp;

bool IsBarrierOpcode(Opcode opcode) {
  return opcode == Opcode::kSyscall || opcode == Opcode::kHalt ||
         opcode == Opcode::kRepMovs || opcode == Opcode::kABegin ||
         opcode == Opcode::kAEnd || opcode == Opcode::kAClear;
}

bool EndsBlock(FusedKind kind) {
  return kind == FusedKind::kBarrier || kind == FusedKind::kJmp ||
         kind == FusedKind::kBnz || kind == FusedKind::kBz ||
         kind == FusedKind::kCall || kind == FusedKind::kCallInd ||
         kind == FusedKind::kRet;
}

// A loop over an absolute global plus a helper call: exercises branch
// leaders, annotation barriers, static (absolute) and dynamic (stack)
// footprints in one small module.
CompiledProgram LoopProgram() {
  return CompileSource(
      "int g;\n"
      "int h;\n"
      "void tick() {\n"
      "  h = h + 1;\n"
      "}\n"
      "void bump(int n) {\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    g = g + 1;\n"
      "  }\n"
      "  tick();\n"
      "}\n");
}

TEST(BlockTranslationTest, BlocksPartitionOpsAndBarriersAreSingletons) {
  const CompiledProgram cp = LoopProgram();
  const BlockTranslation trans(cp.program);
  ASSERT_EQ(trans.num_ops(), cp.program.size());
  ASSERT_GT(trans.num_blocks(), 1u);

  // Blocks tile [0, num_ops) in order, and every op's block back-pointer
  // names the block that contains it.
  std::uint32_t expected_first = 0;
  for (std::uint32_t id = 0; id < trans.num_blocks(); ++id) {
    const TransBlock& b = trans.block(id);
    EXPECT_EQ(b.first_op, expected_first);
    ASSERT_GT(b.end_op, b.first_op);
    for (std::uint32_t i = b.first_op; i < b.end_op; ++i) {
      EXPECT_EQ(trans.op(i).block, id);
    }
    expected_first = b.end_op;
  }
  EXPECT_EQ(expected_first, trans.num_ops());

  for (std::uint32_t i = 0; i < trans.num_ops(); ++i) {
    const TransOp& op = trans.op(i);
    // Kernel-entering instructions translate to barriers — and only they do.
    EXPECT_EQ(op.kind == FusedKind::kBarrier, IsBarrierOpcode(cp.program.At(i).op))
        << "op " << i;
    // Barriers are singleton blocks: the engine must bail before them, so
    // no fused block may flow through one.
    if (op.kind == FusedKind::kBarrier) {
      const TransBlock& b = trans.block(op.block);
      EXPECT_EQ(b.end_op - b.first_op, 1u) << "op " << i;
    }
    // Control flow only at block ends.
    if (EndsBlock(op.kind)) {
      EXPECT_EQ(i, trans.block(op.block).end_op - 1) << "op " << i;
    }
  }
}

TEST(BlockTranslationTest, StaticTargetsResolveToBlockLeaders) {
  const CompiledProgram cp = LoopProgram();
  const BlockTranslation trans(cp.program);

  std::size_t branches = 0;
  for (std::uint32_t i = 0; i < trans.num_ops(); ++i) {
    const TransOp& op = trans.op(i);
    if (op.kind != FusedKind::kJmp && op.kind != FusedKind::kBnz &&
        op.kind != FusedKind::kBz && op.kind != FusedKind::kCall) {
      continue;
    }
    ++branches;
    ASSERT_NE(op.target_op, kNoOp) << "static target unresolved at op " << i;
    // The resolved target is the leader of its block (leader analysis) and
    // agrees with the PC-indexed table.
    EXPECT_EQ(op.target_op, trans.block(trans.op(op.target_op).block).first_op);
    EXPECT_EQ(op.target_op,
              trans.OpIndexOfPc(static_cast<ProgramCounter>(op.a)));
  }
  EXPECT_GT(branches, 0u);

  // PC mapping is exact and rejects non-instruction PCs.
  for (std::size_t i = 0; i < cp.program.size(); ++i) {
    EXPECT_EQ(trans.OpIndexOfPc(cp.program.PcOf(i)), i);
  }
  EXPECT_EQ(trans.OpIndexOfPc(cp.program.text_end()), kNoOp);
  EXPECT_EQ(trans.OpIndexOfPc(cp.program.text_end() + 100), kNoOp);
}

TEST(BlockTranslationTest, StaticFootprintProvesCheckFreedom) {
  // Hand-built program so block contents are exact: a loop body accessing
  // only the absolute address `g` (complete static footprint), followed by
  // a register-indirect load (incomplete footprint).
  constexpr Addr g = 4096;
  ProgramBuilder builder;
  builder.BeginFunction("main");
  const ProgramBuilder::Label loop = builder.NewLabel();
  builder.LoadImm(0, 5);
  builder.Bind(loop);
  builder.Load(1, MemOperand::Absolute(g));
  builder.AddI(1, 1, 1);
  builder.Store(MemOperand::Absolute(g), 1);
  builder.AddI(0, 0, -1);
  builder.Bnz(0, loop);
  builder.Load(2, MemOperand::Indirect(3, 0));
  builder.Halt();
  builder.EndFunction();
  const Program program = builder.Build();
  const BlockTranslation trans(program);

  std::uint32_t g_block = kNoOp;
  std::uint32_t dynamic_block = kNoOp;
  for (std::uint32_t id = 0; id < trans.num_blocks(); ++id) {
    const TransBlock& b = trans.block(id);
    if (b.all_static && b.has_mem && b.hull_lo <= g && g < b.hull_hi) {
      g_block = id;
    }
    if (b.has_mem && !b.all_static && trans.op(b.first_op).kind != FusedKind::kBarrier) {
      dynamic_block = id;
    }
  }
  ASSERT_NE(g_block, kNoOp) << "no all-static block touches g";
  ASSERT_NE(dynamic_block, kNoOp) << "no dynamic-footprint block found";
  // The loop body's footprint is exactly the two sized accesses of g.
  const TransBlock& gb = trans.block(g_block);
  EXPECT_EQ(gb.fp_end - gb.fp_first, 2u);
  EXPECT_EQ(gb.hull_lo, g);
  EXPECT_EQ(gb.hull_hi, g + 8);

  DebugRegisterFile regs;
  // Nothing armed: every block runs check-free.
  for (std::uint32_t id = 0; id < trans.num_blocks(); ++id) {
    EXPECT_TRUE(trans.BlockCheckFree(id, regs)) << "block " << id;
  }
  // A watchpoint over g defeats the proof exactly for the touching block...
  regs.Set(0, g, 8, WatchType::kReadWrite);
  EXPECT_FALSE(trans.BlockCheckFree(g_block, regs));
  // ...and any armed slot disables the proof for incomplete footprints.
  EXPECT_FALSE(trans.BlockCheckFree(dynamic_block, regs));
  // A disjoint watchpoint leaves the complete footprint provably free. The
  // verdict tracks the register file: callers key their memoization on
  // generation() (plus the machine's invalidation epoch), which every
  // mutation above bumped.
  const std::uint64_t before = regs.generation();
  regs.Set(0, g + 4096, 8, WatchType::kReadWrite);
  EXPECT_GT(regs.generation(), before);
  EXPECT_TRUE(trans.BlockCheckFree(g_block, regs));
  EXPECT_FALSE(trans.BlockCheckFree(dynamic_block, regs));
  regs.Clear(0);
  EXPECT_TRUE(trans.BlockCheckFree(dynamic_block, regs));
}

// --- Byte-identity against the engine goldens -----------------------------

// tests/golden/engine_digests.txt, keyed by "<workload> c<cores>".
const std::map<std::string, std::string>& EngineGoldens() {
  static const std::map<std::string, std::string> goldens = [] {
    std::map<std::string, std::string> rows;
    std::ifstream in(KIVATI_GOLDEN_DIR "/engine_digests.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      const std::size_t cut = line.rfind(' ');
      rows[line.substr(0, cut)] = line.substr(cut + 1);
    }
    return rows;
  }();
  return goldens;
}

// Runs `run` under both engines and checks each against its golden
// digest. A mismatch or a missing row prints the actual row, so an intended
// behavior change can be re-pinned by pasting it into the golden file.
void ExpectEnginesMatchGolden(const testing::GoldenRun& run) {
  const auto golden = EngineGoldens().find(run.key);
  const std::string pinned = golden != EngineGoldens().end() ? golden->second : "(no row)";
  for (const bool block_translate : {true, false}) {
    testing::GoldenRun engine_run = run;
    engine_run.spec.machine.block_translate = block_translate;
    const char* engine = block_translate ? "block" : "per-instruction";
    std::string digest;
    try {
      digest = testing::GoldenDigest(engine_run);
    } catch (const std::exception& e) {
      ADD_FAILURE() << run.key << " on the " << engine << " engine: " << e.what();
      continue;
    }
    EXPECT_EQ(digest, pinned) << engine << " engine diverged; actual row: " << run.key << " "
                              << digest;
  }
}

class CorpusIdentityTest : public ::testing::TestWithParam<std::string> {};

// Each bug at 2, 4 and 8 cores.
TEST_P(CorpusIdentityTest, BlockMatchesFastAndReference) {
  for (const testing::GoldenRun& run : testing::GoldenRuns()) {
    if (run.spec.bug == GetParam() && !testing::IsScheduleToolingRun(run)) {
      ExpectEnginesMatchGolden(run);
    }
  }
}

TEST(EngineGoldenTest, ScaledAppSweepsMatchGoldens) {
  for (const testing::GoldenRun& run : testing::GoldenRuns()) {
    if (!run.spec.app.empty() && run.spec.machine.num_cores == 2) {
      ExpectEnginesMatchGolden(run);
    }
  }
}

// The five apps at 8 workers on 4 and 8 cores: busy cores interleave N-way
// while others idle, preempt and pick threads back up.
TEST(EngineGoldenTest, AppsAtFourAndEightCoresMatchGoldens) {
  for (const testing::GoldenRun& run : testing::GoldenRuns()) {
    if (!run.spec.app.empty() && run.spec.machine.num_cores != 2) {
      ExpectEnginesMatchGolden(run);
    }
  }
}

std::vector<std::string> AllCorpusBugNames() {
  std::vector<std::string> names = exp::CorpusBugNames();
  for (const std::string& name : exp::MultiVarBugNames()) {
    names.push_back(name);
  }
  return names;
}

std::string BugTestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllBugs, CorpusIdentityTest, ::testing::ValuesIn(AllCorpusBugNames()),
                         BugTestName);

// The runs behind fuzz, replay and shrink, per bug: guided PCT and
// bounded-preemption schedules at 2, 4 and 8 cores, a strict replay of the
// c2 recording and, for two bugs, a loose replay of its shrunk schedule.
class ScheduleToolingIdentityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScheduleToolingIdentityTest, GuidedRunsMatchGoldens) {
  for (const testing::GoldenRun& run : testing::GoldenRuns()) {
    if (run.spec.bug == GetParam() && run.spec.guided_schedule != nullptr) {
      ExpectEnginesMatchGolden(run);
    }
  }
}

TEST_P(ScheduleToolingIdentityTest, ReplaysMatchGoldens) {
  for (const testing::GoldenRun& run : testing::GoldenRuns()) {
    if (run.spec.bug == GetParam() && run.replay != testing::GoldenReplay::kNone) {
      ExpectEnginesMatchGolden(run);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBugs, ScheduleToolingIdentityTest,
                         ::testing::ValuesIn(AllCorpusBugNames()), BugTestName);

// A guided-fuzz campaign — strategy generation, coverage dedup, shrinking,
// replay verification — rediscovers a corpus bug through the block engine
// and produces a report byte-identical to the per-instruction engine's.
TEST(BlockEngineFuzzTest, RediscoveryReportIsEngineInvariant) {
  auto fuzz_with = [](bool block_translate) {
    exp::RunSpec spec;
    spec.bug = "NSS-329072";
    spec.mode = KivatiMode::kBugFinding;
    spec.pause_ms = 50.0;
    spec.machine.seed = 17;
    spec.machine.block_translate = block_translate;
    spec.budget = 10'000'000;
    exp::FuzzOptions options;
    options.max_schedules = 8;
    options.plateau = 8;
    options.seed = 7;
    options.shrink_max_runs = 12;
    return exp::Fuzz(spec, options);
  };

  const exp::FuzzReport block = fuzz_with(true);
  const exp::FuzzReport fast = fuzz_with(false);
  EXPECT_TRUE(block.errors.empty());
  ASSERT_FALSE(block.discoveries.empty()) << "block engine failed to rediscover";
  EXPECT_EQ(exp::FuzzReportJson(block, /*include_wall_clock=*/false),
            exp::FuzzReportJson(fast, /*include_wall_clock=*/false));
}

// --- Scheduler edge cases at 4 and 8 cores ---------------------------------
//
// Runs where idle cores sit out stretches of another core's work and are
// then observed again: a timer or a suspension timeout expiring, a spawn
// or a sync unblock handing them a thread, the cycle cap landing, every
// core going idle. Each case runs under both engines at c4 and c8; the two
// engines must agree, and the digests of all its runs, chained in order,
// must match the value pinned from the per-cycle idle loop at commit
// feff334d93b181a461481d34ee91cd5a4d230ac6.

std::string Hex(std::uint64_t hash) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash));
  return text;
}

// Runs each spec at c4 and c8 under both engines; returns the chained digest.
std::string EdgeCaseDigest(const std::vector<exp::RunSpec>& specs) {
  std::uint64_t chain = testing::Fnv1a("");
  for (const exp::RunSpec& base : specs) {
    for (const unsigned cores : {4u, 8u}) {
      std::string digests[2];
      for (const bool block_translate : {true, false}) {
        exp::RunSpec spec = base;
        spec.machine.num_cores = cores;
        spec.machine.block_translate = block_translate;
        spec.record_schedule = true;
        const exp::RunRecord record = exp::Execute(spec);
        EXPECT_TRUE(record.error.empty()) << record.error;
        digests[block_translate ? 0 : 1] = testing::EngineDigest(record);
      }
      EXPECT_EQ(digests[0], digests[1]) << "engines diverge at c" << cores;
      chain = testing::Fnv1a(digests[0], chain);
    }
  }
  return Hex(chain);
}

exp::RunSpec MiniCSpec(const std::string& name, const std::string& source, int workers,
                       bool vanilla) {
  exp::RunSpec spec;
  spec.prebuilt = std::make_shared<const apps::App>(
      apps::AssembleApp(name, source, "worker", workers, {}, 5'000'000));
  spec.vanilla = vanilla;
  spec.machine.seed = 5;
  spec.latency_tag = 1;
  return spec;
}

// A sleeping thread's deadline expires while the idle cores are parked
// behind one busy core; the woken thread lands on whichever core the
// per-cycle loop would have picked.
TEST(SchedulerEdgeCaseTest, TimerDeadlineExpiresWhileCoresParked) {
  const std::string source =
      "int work;\n"
      "void worker(int id) {\n"
      "  if (id == 1) {\n"
      "    sleep(2000);\n"
      "    mark(1, now());\n"
      "  }\n"
      "  int t = 0;\n"
      "  for (int i = 0; i < 1500 - id * 700; i = i + 1) { t = t + i; }\n"
      "  mark(1, now());\n"
      "  sleep(301);\n"
      "  mark(1, now());\n"
      "  work = t;\n"
      "}\n";
  EXPECT_EQ(EdgeCaseDigest({MiniCSpec("timer", source, 2, /*vanilla=*/true),
                            MiniCSpec("timer", source, 2, /*vanilla=*/false)}),
            "959e85f2321987b7");
}

// In prevention mode a remote writer is suspended while another thread's
// atomic region is open; the short timeout expires while the idle cores are
// parked, and the kernel's timeout handler syncs the core the per-cycle
// loop last ran (Machine::executing_core).
TEST(SchedulerEdgeCaseTest, SuspensionTimeoutFiresWhileCoresParked) {
  const std::string source =
      "int x;\n"
      "void holder() {\n"
      "  int t = x;\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 2500; i = i + 1) { s = s + i; }\n"
      "  x = t + 1;\n"
      "}\n"
      "void writer(int v) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 150; i = i + 1) { s = s + i; }\n"
      "  x = v;\n"
      "  mark(1, now());\n"
      "}\n"
      "void worker(int id) {\n"
      "  if (id == 0) {\n"
      "    holder();\n"
      "  } else {\n"
      "    writer(id);\n"
      "  }\n"
      "  mark(1, now());\n"
      "}\n";
  exp::RunSpec spec = MiniCSpec("timeout", source, 3, /*vanilla=*/false);
  KivatiConfig config =
      KivatiConfig::PresetFor(OptimizationPreset::kOptimized, KivatiMode::kPrevention);
  config.suspension_timeout_ms = 0.4;  // 2000 cycles: shorter than the region
  spec.config_override = config;
  spec.machine.num_cores = 4;
  const exp::RunRecord record = exp::Execute(spec);
  ASSERT_TRUE(record.error.empty()) << record.error;
  EXPECT_GT(record.stats.suspension_timeouts, 0u);
  EXPECT_EQ(EdgeCaseDigest({spec}), "78d23be29921b964");
}

// A spawn, and a sync waiter released by a busy core's timer interrupt,
// each hand a thread to a parked core.
TEST(SchedulerEdgeCaseTest, SpawnAndSyncUnblockWakeParkedCores) {
  const std::string spawner =
      "int total;\n"
      "void child(int n) {\n"
      "  mark(1, now());\n"
      "  int t = 0;\n"
      "  for (int i = 0; i < 300; i = i + 1) { t = t + n; }\n"
      "  total = t;\n"
      "  mark(1, now());\n"
      "}\n"
      "void worker(int id) {\n"
      "  int t = 0;\n"
      "  for (int i = 0; i < 900; i = i + 1) { t = t + i; }\n"
      "  spawn child(5);\n"
      "  for (int i = 0; i < 400; i = i + 1) { t = t + i; }\n"
      "  spawn child(7);\n"
      "  mark(1, now());\n"
      "}\n";
  // Worker 1 arms a watchpoint for y while worker 0's core is deep in a
  // loop with no kernel entry: it blocks for the cross-core sync until
  // worker 0's quantum expires.
  const std::string syncer =
      "int y;\n"
      "int spin;\n"
      "void compute() {\n"
      "  int t = 0;\n"
      "  for (int i = 0; i < 3000; i = i + 1) { t = t + i; }\n"
      "  spin = t;\n"
      "}\n"
      "void bump() {\n"
      "  int v = y;\n"
      "  y = v + 1;\n"
      "}\n"
      "void worker(int id) {\n"
      "  if (id == 0) {\n"
      "    compute();\n"
      "  } else {\n"
      "    int t = 0;\n"
      "    for (int i = 0; i < 100; i = i + 1) { t = t + i; }\n"
      "  }\n"
      "  bump();\n"
      "  mark(1, now());\n"
      "}\n";
  exp::RunSpec sync_spec = MiniCSpec("sync", syncer, 2, /*vanilla=*/false);
  sync_spec.preset = OptimizationPreset::kBase;
  sync_spec.machine.num_cores = 4;
  const exp::RunRecord record = exp::Execute(sync_spec);
  ASSERT_TRUE(record.error.empty()) << record.error;
  EXPECT_GT(record.stats.sync_stall.count(), 0u);
  EXPECT_EQ(EdgeCaseDigest({MiniCSpec("spawn", spawner, 1, /*vanilla=*/true),
                            MiniCSpec("spawn", spawner, 1, /*vanilla=*/false), sync_spec}),
            "063d592fcbf5cffd");
}

// A non-unit user-instruction cost takes the single-op path through both
// engines.
TEST(SchedulerEdgeCaseTest, NonUnitInstructionCost) {
  exp::RunSpec spec;
  spec.app = "nss";
  spec.scale.workers = 6;
  spec.scale.iterations = 3;
  spec.machine.seed = 3;
  spec.machine.costs.user_instruction = 3;
  exp::RunSpec vanilla = spec;
  vanilla.vanilla = true;
  EXPECT_EQ(EdgeCaseDigest({vanilla, spec}), "00084d63061bfb73");
}

// Raw-machine cases: the observable state of a run (results, context
// switches, spawns, joins, marks, per-thread counters) as one digest.
std::string MachineRunDigest(Machine& m, const std::vector<RunResult>& results) {
  std::string text;
  for (const RunResult& r : results) {
    text += "r " + std::to_string(r.cycles) + " " + std::to_string(r.instructions) + " " +
            std::to_string(r.all_done) + std::to_string(r.deadlocked) +
            std::to_string(r.hit_limit) + "\n";
  }
  for (const TraceEvent& e : m.trace().events().Snapshot()) {
    text += "e " + std::to_string(e.when) + " " + std::to_string(static_cast<int>(e.kind)) +
            " " + std::to_string(e.thread) + " " + std::to_string(e.slot) + " " +
            std::to_string(e.detail) + "\n";
  }
  for (const MarkEvent& mark : m.trace().marks()) {
    text += "m " + std::to_string(mark.when) + " " + std::to_string(mark.thread) + " " +
            std::to_string(mark.value) + "\n";
  }
  for (std::size_t tid = 0; tid < m.num_threads(); ++tid) {
    const ThreadContext& t = m.thread(static_cast<ThreadId>(tid));
    text += "t " + std::to_string(static_cast<int>(t.state)) + " " +
            std::to_string(t.instructions) + " " + std::to_string(t.cpu_cycles) + "\n";
  }
  return text;
}

// Runs `program` from "main" at c4 and c8 under both engines, calling Run
// once per entry of `limits`; returns the chained digest.
std::string MachineEdgeCaseDigest(const Program& program, const std::vector<Cycles>& limits,
                                  bool expect_deadlock) {
  std::uint64_t chain = testing::Fnv1a("");
  for (const unsigned cores : {4u, 8u}) {
    std::string texts[2];
    for (const bool block_translate : {true, false}) {
      MachineConfig config;
      config.num_cores = cores;
      config.policy = SchedPolicy::kRandom;
      config.quantum = 1500;
      config.seed = 9;
      config.block_translate = block_translate;
      Machine m(program, config);
      m.trace().events().Enable(4096, kEventKindBit(EventKind::kContextSwitch) |
                                          kEventKindBit(EventKind::kThreadSpawn) |
                                          kEventKindBit(EventKind::kThreadJoin));
      m.SpawnThreadByName("main", 0);
      std::vector<RunResult> results;
      for (const Cycles limit : limits) {
        results.push_back(m.Run(limit));
      }
      EXPECT_EQ(results.back().deadlocked, expect_deadlock);
      texts[block_translate ? 0 : 1] = MachineRunDigest(m, results);
    }
    EXPECT_EQ(texts[0], texts[1]) << "engines diverge at c" << cores;
    chain = testing::Fnv1a(texts[0], chain);
  }
  return Hex(chain);
}

// main spawns a sleeper and a worker, then computes; the sleeper's timer,
// the worker's short bursts and main's own sleep leave cores idle for long
// stretches in between.
Program ParkingProgram() {
  using testing::EmitDelay;
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadFunctionAddress(0, "sleeper");
  b.LoadImm(1, 1);
  b.SyscallOp(Syscall::kSpawn);
  b.LoadFunctionAddress(0, "burst");
  b.LoadImm(1, 2);
  b.SyscallOp(Syscall::kSpawn);
  EmitDelay(b, 2200);
  b.SyscallOp(Syscall::kNow);
  b.Mov(1, 0);
  b.SyscallOp(Syscall::kMark);
  b.LoadImm(0, 700);
  b.SyscallOp(Syscall::kSleep);
  EmitDelay(b, 900);
  b.Halt();
  b.EndFunction();
  b.BeginFunction("sleeper");
  b.LoadImm(0, 2600);
  b.SyscallOp(Syscall::kSleep);
  b.SyscallOp(Syscall::kNow);
  b.Mov(1, 0);
  b.SyscallOp(Syscall::kMark);
  EmitDelay(b, 400);
  b.Halt();
  b.EndFunction();
  b.BeginFunction("burst");
  EmitDelay(b, 150);
  b.LoadImm(0, 1200);
  b.SyscallOp(Syscall::kSleep);
  EmitDelay(b, 150);
  b.Halt();
  b.EndFunction();
  return b.Build();
}

// The cycle cap lands while cores are parked; later Run calls continue the
// stopped run.
TEST(SchedulerEdgeCaseTest, CycleCapMidParkThenContinue) {
  EXPECT_EQ(MachineEdgeCaseDigest(ParkingProgram(), {3001, 4502, 6007, ~Cycles{0}},
                                  /*expect_deadlock=*/false),
            "9d10ad8a8a7163a1");
}

// Every core goes idle with nothing pending: main and its child join each
// other after computing.
TEST(SchedulerEdgeCaseTest, AllCoresIdleIsDeadlock) {
  using testing::EmitDelay;
  ProgramBuilder b;
  b.BeginFunction("main");
  b.LoadFunctionAddress(0, "child");
  b.LoadImm(1, 0);
  b.SyscallOp(Syscall::kSpawn);
  EmitDelay(b, 1200);
  b.LoadImm(0, 1);
  b.SyscallOp(Syscall::kJoin);
  b.Halt();
  b.EndFunction();
  b.BeginFunction("child");
  EmitDelay(b, 300);
  b.LoadImm(0, 0);
  b.SyscallOp(Syscall::kJoin);
  b.Halt();
  b.EndFunction();
  EXPECT_EQ(MachineEdgeCaseDigest(b.Build(), {1'000'000}, /*expect_deadlock=*/true),
            "280115fa5f639f7d");
}

// Hooks that log which core the machine reports as executing whenever a
// hook fires outside an idle-loop kernel entry (those are no-ops by the
// IdleSyncIsNoOp contract, answered true here).
class ExecutingCoreLog : public KivatiHooks {
 public:
  explicit ExecutingCoreLog(Machine& machine) : machine_(machine) {}
  void OnBeginAtomic(ThreadId, const Instruction&, Addr) override {}
  void OnEndAtomic(ThreadId, const Instruction&) override {}
  void OnClearAr(ThreadId, std::uint32_t) override {}
  bool OnWatchpointTrap(ThreadId, CoreId, unsigned, const MemAccess&, ProgramCounter) override {
    return false;
  }
  void OnKernelEntry(CoreId core) override {
    if (machine_.current_thread_on(core) != kInvalidThread) {
      Log("k", core);
    }
  }
  bool IdleSyncIsNoOp(CoreId) const override { return true; }
  void OnContextSwitch(CoreId core, ThreadId, ThreadId) override { Log("s", core); }
  void OnSuspensionTimeout(ThreadId thread) override { Log("t", thread); }
  void OnThreadExit(ThreadId thread) override { Log("x", thread); }
  const std::string& text() const { return text_; }

 private:
  void Log(const char* what, unsigned subject) {
    text_ += std::string(what) + " " + std::to_string(machine_.now()) + " " +
             std::to_string(subject) + " " + std::to_string(machine_.executing_core()) + "\n";
  }
  Machine& machine_;
  std::string text_;
};

// Preemptions and context switches fire hooks between instructions, after
// stretches in which idle cores took (or, parked, skipped) their idle-loop
// steps; the core the machine reports as executing must be the one the
// per-cycle loop last picked.
TEST(SchedulerEdgeCaseTest, ExecutingCoreAtHooksBetweenInstructions) {
  const Program program = ParkingProgram();
  std::uint64_t chain = testing::Fnv1a("");
  for (const unsigned cores : {4u, 8u}) {
    std::string texts[2];
    for (const bool block_translate : {true, false}) {
      MachineConfig config;
      config.num_cores = cores;
      config.policy = SchedPolicy::kRandom;
      config.quantum = 700;
      config.seed = 4;
      config.block_translate = block_translate;
      Machine m(program, config);
      ExecutingCoreLog log(m);
      m.set_hooks(&log);
      m.SpawnThreadByName("main", 0);
      const RunResult result = m.Run();
      EXPECT_TRUE(result.all_done);
      texts[block_translate ? 0 : 1] = log.text() + MachineRunDigest(m, {result});
    }
    EXPECT_EQ(texts[0], texts[1]) << "engines diverge at c" << cores;
    chain = testing::Fnv1a(texts[0], chain);
  }
  EXPECT_EQ(Hex(chain), "1663c93b173bb70d");
}

// --- Line attribution under fusion (PR 8 regression) -----------------------

// The PR 8 line-attribution case (analysis_test's MergedRegionCitesFirstAccessLine
// source, plus a driver loop) executed with block translation on: the AR
// debug info the runtime reports against must keep citing first-access
// lines, and the violation stream must be identical to the per-instruction engine's.
TEST(BlockEngineLineAttributionTest, Pr8CaseStaysExactUnderFusion) {
  const std::string source =
      "int g;\n"                  // 1
      "int h;\n"                  // 2
      "void branchy(int x) {\n"   // 3
      "  int t = g;\n"            // 4: first access of the merged AR
      "  if (x == 1) {\n"         // 5
      "    g = t + 1;\n"          // 6: end 1
      "  }\n"                     // 7
      "  g = t + 2;\n"            // 8: end 2
      "}\n"                       // 9
      "void writer(int x) {\n"    // 10
      "  int t = g;\n"            // 11: first access of the host AR
      "  h = x;\n"                // 12: first access of the synthesized AR
      "  g = t + x;\n"            // 13
      "}\n"                       // 14
      "void writer2(int x) {\n"   // 15
      "  int t = g;\n"            // 16
      "  h = x;\n"                // 17
      "  g = t + x;\n"            // 18
      "}\n"                       // 19
      "void driver(int n) {\n"    // 20
      "  for (int i = 0; i < 400; i = i + 1) {\n"
      "    writer(i);\n"
      "    writer2(i);\n"
      "    branchy(i);\n"
      "  }\n"
      "}\n";
  const auto app = std::make_shared<const apps::App>(
      apps::AssembleApp("pr8_lines", source, "driver", 2, {}, 50'000'000));

  // The compiled program the runtime attributes against pins the PR 8
  // invariant: every AR cites its first access, including the fusion host
  // (line 11/16) and the synthesized partner (line 12/17).
  const auto line_of = [&](const std::string& fn, const std::string& var) {
    for (const ArDebugInfo& info : app->compiled->ar_infos) {
      if (info.function == fn && info.variable == var) {
        return info.line;
      }
    }
    return -1;
  };
  EXPECT_EQ(line_of("branchy", "g"), 4);
  EXPECT_EQ(line_of("writer", "g"), 11);
  EXPECT_EQ(line_of("writer", "h"), 12);
  EXPECT_EQ(line_of("writer2", "g"), 16);
  EXPECT_EQ(line_of("writer2", "h"), 17);

  auto run_with = [&](bool block_translate) {
    exp::RunSpec spec;
    spec.prebuilt = app;
    spec.mode = KivatiMode::kBugFinding;
    spec.pause_ms = 50.0;
    spec.machine.seed = 17;
    spec.budget = 20'000'000;
    spec.machine.block_translate = block_translate;
    return exp::Execute(spec);
  };
  const exp::RunRecord block = run_with(true);
  const exp::RunRecord fast = run_with(false);
  ASSERT_TRUE(block.error.empty()) << block.error;

  // The racy drivers do violate, and every violation record — which carries
  // the first/second/remote PCs reports attribute to source lines — is
  // identical under fusion.
  EXPECT_FALSE(block.violation_records.empty());
  ASSERT_EQ(block.violation_records.size(), fast.violation_records.size());
  for (std::size_t i = 0; i < block.violation_records.size(); ++i) {
    EXPECT_EQ(ToString(block.violation_records[i]),
              ToString(fast.violation_records[i]))
        << "violation " << i;
    // Each violating AR resolves to debug info citing a first-access line.
    const ArId ar = block.violation_records[i].ar_id;
    ASSERT_GE(ar, 1u);
    ASSERT_LE(ar, app->compiled->ar_infos.size());
    const ArDebugInfo& info = app->compiled->ar_infos[ar - 1];
    EXPECT_TRUE(info.line == 4 || info.line == 11 || info.line == 12 ||
                info.line == 16 || info.line == 17)
        << "AR " << ar << " cites line " << info.line;
  }
  EXPECT_EQ(exp::ToJson(block, /*include_wall_clock=*/false),
            exp::ToJson(fast, /*include_wall_clock=*/false));
}

}  // namespace
}  // namespace kivati
