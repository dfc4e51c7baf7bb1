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
//      the recorded ScheduleTrace.
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
#include "tests/engine_digest.h"

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
// digest. A mismatch prints the actual row, so an intended behavior change
// can be re-pinned by pasting it into the golden file.
void ExpectEnginesMatchGolden(const testing::GoldenRun& run) {
  const auto golden = EngineGoldens().find(run.key);
  ASSERT_NE(golden, EngineGoldens().end()) << "no golden row for " << run.key;
  for (const bool block_translate : {true, false}) {
    exp::RunSpec spec = run.spec;
    spec.machine.block_translate = block_translate;
    const exp::RunRecord record = exp::Execute(spec);
    ASSERT_TRUE(record.error.empty()) << run.key << ": " << record.error;
    const std::string digest = testing::EngineDigest(record);
    EXPECT_EQ(digest, golden->second)
        << (block_translate ? "block" : "per-instruction") << " engine diverged; actual row: "
        << run.key << " " << digest;
  }
}

class CorpusIdentityTest : public ::testing::TestWithParam<std::string> {};

// Each bug at 2, 4 and 8 cores.
TEST_P(CorpusIdentityTest, BlockMatchesFastAndReference) {
  for (const testing::GoldenRun& run : testing::GoldenRuns()) {
    if (run.spec.bug == GetParam()) {
      ExpectEnginesMatchGolden(run);
    }
  }
}

TEST(EngineGoldenTest, ScaledAppSweepsMatchGoldens) {
  for (const testing::GoldenRun& run : testing::GoldenRuns()) {
    if (!run.spec.app.empty()) {
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

INSTANTIATE_TEST_SUITE_P(AllBugs, CorpusIdentityTest,
                         ::testing::ValuesIn(AllCorpusBugNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

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
