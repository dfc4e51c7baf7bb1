// Property-based tests: randomly generated mini-C programs are pushed
// through the full pipeline (parse -> annotate -> compile -> simulate under
// several Kivati configurations) and system-level invariants are checked:
//
//   P1  the protected machine always terminates (suspension timeouts bound
//       every delay Kivati introduces — "never introduces new
//       synchronization errors", §2.1);
//   P2  single-threaded executions are semantically transparent: final
//       global state matches the vanilla run exactly (the undo engine and
//       annotations must not perturb program semantics);
//   P3  every reported violation is non-serializable — one of Figure 2's
//       four single-variable interleavings, or the joint rule on a fused
//       multi-variable region (analysis/correlation.h: a remote write with
//       a member read in the region, or a remote read with a member write)
//       — carries valid debug info, and prevented <= detected;
//   P4  whitelisting every AR yields zero reports and zero annotation
//       crossings;
//   P5  runs are deterministic for a fixed seed;
//   P6  the block engine and the per-instruction engine simulate the
//       identical protected run (cycles, globals, violations) at 2, 4 and
//       8 cores.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compile/compiler.h"
#include "core/engine.h"
#include "trace/histogram.h"

namespace kivati {
namespace {

// Generates a random but always-terminating mini-C program: a handful of
// globals (scalars, arrays, sync locks), helper functions that mix reads,
// writes, locks and compute, and a worker that calls them in a bounded loop.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    const int num_scalars = static_cast<int>(rng_.NextInRange(2, 5));
    const int num_arrays = static_cast<int>(rng_.NextInRange(0, 2));
    const int num_helpers = static_cast<int>(rng_.NextInRange(2, 5));

    std::ostringstream out;
    out << "sync int lk;\n";
    for (int i = 0; i < num_scalars; ++i) {
      out << "int g" << i << (rng_.NextBool(0.3) ? " = 1" : "") << ";\n";
    }
    for (int i = 0; i < num_arrays; ++i) {
      out << "int arr" << i << "[" << rng_.NextInRange(4, 16) << "];\n";
    }
    scalars_ = num_scalars;
    arrays_ = num_arrays;

    for (int h = 0; h < num_helpers; ++h) {
      out << "void helper" << h << "(int x) {\n";
      const int statements = static_cast<int>(rng_.NextInRange(1, 5));
      const bool locked = rng_.NextBool(0.4);
      if (locked) {
        out << "  lock(lk);\n";
      }
      for (int s = 0; s < statements; ++s) {
        EmitStatement(out, 1, "x");
      }
      if (locked) {
        out << "  unlock(lk);\n";
      }
      out << "}\n";
    }
    helpers_ = num_helpers;

    out << "void worker(int id) {\n";
    out << "  for (int i = 0; i < " << rng_.NextInRange(10, 40) << "; i = i + 1) {\n";
    const int calls = static_cast<int>(rng_.NextInRange(1, 4));
    for (int c = 0; c < calls; ++c) {
      if (rng_.NextBool(0.7)) {
        out << "    helper" << rng_.NextBelow(static_cast<std::uint64_t>(helpers_))
            << "(i + id);\n";
      } else {
        EmitStatement(out, 2, "id");
      }
    }
    out << "    int burn = i;\n";
    out << "    for (int k = 0; k < " << rng_.NextInRange(20, 120)
        << "; k = k + 1) { burn = burn * 3 + 1; }\n";
    out << "  }\n}\n";
    return out.str();
  }

 private:
  std::string Indent(int depth) { return std::string(static_cast<std::size_t>(depth) * 2, ' '); }

  std::string RandomLvalue(const std::string& param) {
    if (arrays_ > 0 && rng_.NextBool(0.3)) {
      return "arr" + std::to_string(rng_.NextBelow(static_cast<std::uint64_t>(arrays_))) + "[" +
             RandomRvalue(param) + " & 3]";
    }
    return "g" + std::to_string(rng_.NextBelow(static_cast<std::uint64_t>(scalars_)));
  }

  std::string RandomRvalue(const std::string& param) {
    switch (rng_.NextBelow(3)) {
      case 0:
        return std::to_string(rng_.NextBelow(100));
      case 1:
        return "g" + std::to_string(rng_.NextBelow(static_cast<std::uint64_t>(scalars_)));
      default:
        return param;
    }
  }

  void EmitStatement(std::ostringstream& out, int depth, const std::string& param) {
    const std::string lhs = RandomLvalue(param);
    switch (rng_.NextBelow(3)) {
      case 0:
        out << Indent(depth) << lhs << " = " << RandomRvalue(param) << ";\n";
        break;
      case 1:
        out << Indent(depth) << lhs << " = " << lhs << " + " << RandomRvalue(param) << ";\n";
        break;
      default:
        out << Indent(depth) << "if (" << RandomLvalue(param) << " != " << rng_.NextBelow(4)
            << ") {\n"
            << Indent(depth + 1) << lhs << " = " << RandomRvalue(param) << ";\n"
            << Indent(depth) << "}\n";
        break;
    }
  }

  Rng rng_;
  int scalars_ = 0;
  int arrays_ = 0;
  int helpers_ = 0;
};

struct RunOutcome {
  bool completed = false;
  std::vector<std::uint64_t> global_values;
  Cycles cycles = 0;
  RuntimeStats stats;
  std::vector<ViolationRecord> violations;
};

RunOutcome RunProgram(const CompiledProgram& compiled, int threads,
                      const std::optional<KivatiConfig>& kivati, std::uint64_t machine_seed,
                      unsigned cores = 2, bool block_translate = true) {
  Workload workload;
  workload.name = "fuzz";
  workload.program = compiled.program;
  for (int t = 0; t < threads; ++t) {
    workload.threads.emplace_back("worker", static_cast<std::uint64_t>(t));
  }
  workload.init = [&compiled](AddressSpace& memory) { compiled.InitMemory(memory); };

  EngineOptions options;
  options.machine.num_cores = cores;
  options.machine.policy = SchedPolicy::kRandom;
  options.machine.seed = machine_seed;
  options.machine.block_translate = block_translate;
  options.kivati = kivati;

  Engine engine(workload, options);
  const RunResult result = engine.Run(300'000'000);

  RunOutcome outcome;
  outcome.completed = result.all_done;
  outcome.cycles = result.cycles;
  outcome.stats = engine.trace().stats();
  outcome.violations = engine.trace().violations();
  for (const auto& [name, addr] : compiled.global_addrs) {
    outcome.global_values.push_back(engine.machine().memory().Read(addr, 8));
  }
  return outcome;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, PipelineInvariants) {
  const std::string source = ProgramGenerator(GetParam()).Generate();
  SCOPED_TRACE("program:\n" + source);

  const CompiledProgram compiled = CompileSource(source);

  // P2: single-threaded transparency.
  {
    const RunOutcome vanilla = RunProgram(compiled, 1, std::nullopt, 7);
    ASSERT_TRUE(vanilla.completed);
    for (const bool optimized : {false, true}) {
      KivatiConfig config;
      config.opt_fast_path = optimized;
      config.opt_lazy_free = optimized;
      config.opt_local_disable = optimized;
      const RunOutcome protected_run = RunProgram(compiled, 1, config, 7);
      ASSERT_TRUE(protected_run.completed);
      EXPECT_EQ(protected_run.global_values, vanilla.global_values)
          << "single-threaded semantics perturbed (optimized=" << optimized << ")";
      EXPECT_TRUE(protected_run.violations.empty());
    }
  }

  // P1 + P3: multi-threaded protected runs terminate; reports well-formed.
  for (const bool optimized : {false, true}) {
    KivatiConfig config;
    config.opt_fast_path = optimized;
    config.opt_lazy_free = optimized;
    config.opt_local_disable = optimized;
    const RunOutcome run = RunProgram(compiled, 3, config, 13);
    EXPECT_TRUE(run.completed) << "protected run did not terminate";
    for (const ViolationRecord& v : run.violations) {
      ASSERT_GE(v.ar_id, 1u);
      ASSERT_LE(v.ar_id, compiled.num_ars);
      // Single-variable Figure-2 rule, or the joint rule when the AR is a
      // fused multi-variable region (mirrors the kernel's ArNonSerializable).
      const WatchType joint = compiled.ar_infos[v.ar_id - 1].joint_types;
      const bool joint_non_serializable =
          joint != WatchType::kNone &&
          (v.remote == AccessType::kWrite ? Matches(joint, AccessType::kRead)
                                          : Matches(joint, AccessType::kWrite));
      EXPECT_TRUE(NonSerializable(v.first, v.remote, v.second) || joint_non_serializable)
          << "reported violation is serializable: " << ToString(v);
      EXPECT_NE(v.local_thread, v.remote_thread);
      EXPECT_FALSE(compiled.ar_infos[v.ar_id - 1].variable.empty());
    }
    EXPECT_LE(run.stats.violations_prevented, run.stats.violations_detected);
    EXPECT_LE(run.stats.ars_missed, run.stats.ars_entered);
    EXPECT_LE(run.stats.fast_path_begin + run.stats.kernel_entries_begin,
              run.stats.begin_atomic_calls);
  }

  // P4: whitelisting everything silences Kivati entirely.
  {
    KivatiConfig config;
    for (ArId ar = 1; ar <= compiled.num_ars; ++ar) {
      config.whitelist.insert(ar);
    }
    const RunOutcome run = RunProgram(compiled, 3, config, 13);
    EXPECT_TRUE(run.completed);
    EXPECT_TRUE(run.violations.empty());
    EXPECT_EQ(run.stats.kernel_entries_begin, 0u);
    EXPECT_EQ(run.stats.watchpoint_traps, 0u);
  }

  // P5: determinism.
  {
    KivatiConfig config;
    const RunOutcome a = RunProgram(compiled, 3, config, 21);
    const RunOutcome b = RunProgram(compiled, 3, config, 21);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.global_values, b.global_values);
    EXPECT_EQ(a.violations.size(), b.violations.size());
  }

  // P6: engine differential. The block engine and the per-instruction
  // engine simulate the identical protected run at every core count.
  const auto violation_list = [](const RunOutcome& run) {
    std::vector<std::string> list;
    for (const ViolationRecord& v : run.violations) {
      list.push_back(ToString(v) + " size " + std::to_string(v.size));
    }
    return list;
  };
  for (const unsigned cores : {2u, 4u, 8u}) {
    KivatiConfig config;
    const RunOutcome block = RunProgram(compiled, 3, config, 13, cores, true);
    const RunOutcome interp = RunProgram(compiled, 3, config, 13, cores, false);
    EXPECT_EQ(block.cycles, interp.cycles) << "cores=" << cores;
    EXPECT_EQ(block.global_values, interp.global_values) << "cores=" << cores;
    EXPECT_EQ(violation_list(block), violation_list(interp)) << "cores=" << cores;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<std::uint64_t>(1, 41));

// P7: CycleHistogram::Percentile is a well-behaved quantile estimate — for
// any recorded multiset it is monotone non-decreasing in p and always lands
// inside [min, max]. Degenerate shapes (single value, single bucket, the
// saturated top bucket) report exactly or within the bucket's true bounds.
class HistogramPercentileTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramPercentileTest, MonotoneAndBounded) {
  Rng rng(GetParam());
  CycleHistogram hist;
  const int n = static_cast<int>(rng.NextInRange(1, 2000));
  for (int i = 0; i < n; ++i) {
    // Span the full bucket range, including 0 and the saturated top bucket.
    const unsigned shift = static_cast<unsigned>(rng.NextInRange(0, 50));
    hist.Record(rng.NextBelow(2) == 0 ? rng.NextBelow(Cycles{1} << shift)
                                      : (Cycles{1} << shift) + rng.NextBelow(1000));
  }
  Cycles previous = 0;
  for (int step = 0; step <= 100; ++step) {
    const double p = static_cast<double>(step) / 100.0;
    const Cycles estimate = hist.Percentile(p);
    EXPECT_GE(estimate, hist.min()) << "p=" << p;
    EXPECT_LE(estimate, hist.max()) << "p=" << p;
    EXPECT_GE(estimate, previous) << "percentile not monotone at p=" << p;
    previous = estimate;
  }
  // Out-of-range p clamps instead of misbehaving.
  EXPECT_EQ(hist.Percentile(-0.5), hist.Percentile(0.0));
  EXPECT_EQ(hist.Percentile(2.0), hist.Percentile(1.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPercentileTest,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(HistogramPercentileTest, SingleValueReportsExactly) {
  for (const Cycles value : {Cycles{0}, Cycles{1}, Cycles{5}, Cycles{4095}, Cycles{1} << 42,
                             (Cycles{1} << 50) + 17}) {
    CycleHistogram hist;
    hist.Record(value);
    for (const double p : {0.0, 0.5, 0.99, 1.0}) {
      EXPECT_EQ(hist.Percentile(p), value) << "value=" << value << " p=" << p;
    }
  }
}

TEST(HistogramPercentileTest, SingleBucketStaysInsideBucketBounds) {
  CycleHistogram hist;
  for (Cycles v = 512; v < 1024; v += 17) {  // all in bucket [512, 1024)
    hist.Record(v);
  }
  for (const double p : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Cycles estimate = hist.Percentile(p);
    EXPECT_GE(estimate, hist.min());
    EXPECT_LE(estimate, hist.max());
  }
}

TEST(HistogramPercentileTest, SaturatedTopBucketClampsToObservedMax) {
  CycleHistogram hist;
  const Cycles huge = Cycles{1} << 60;  // far beyond the last finite bucket
  hist.Record(huge);
  hist.Record(huge + 12345);
  hist.Record(3);
  EXPECT_EQ(hist.Percentile(1.0), huge + 12345);
  EXPECT_LE(hist.Percentile(0.5), hist.max());
  EXPECT_GE(hist.Percentile(0.5), hist.min());
}

TEST(HistogramPercentileTest, EmptyHistogramReportsZero) {
  const CycleHistogram hist;
  EXPECT_EQ(hist.Percentile(0.5), 0u);
}

}  // namespace
}  // namespace kivati
