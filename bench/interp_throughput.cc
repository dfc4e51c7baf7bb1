// Interpreter throughput microbenchmark: simulated cycles per wall-clock
// second for the hot loop, per app × configuration, with the block engine
// and the per-instruction ("fast") engine side by side
// (docs/performance.md).
//
// The committed baseline lives in BENCH_interp.json (regenerate with
// `kivati bench-interp --json BENCH_interp.json` from a Release build); the
// CI perf-smoke job fails on a >30% regression against it.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench/bench_common.h"
#include "exp/interp_bench.h"

namespace kivati {
namespace bench {
namespace {

void Run() {
  std::printf("=== Interpreter throughput (median of 3, simulated Mcycles/s) ===\n\n");
  exp::InterpBenchSpec spec;
  spec.apps = {"nss", "vlc"};
  spec.configs = {"vanilla", "base", "optimized"};

  TablePrinter table({"Run", "Engine", "Cycles", "Wall (ms)", "Mcycles/s", "MIPS"});
  const auto entries = exp::RunInterpBench(spec);
  for (const exp::InterpBenchEntry& e : entries) {
    table.AddRow({e.label, e.engine, std::to_string(e.cycles), Num(e.median_wall_ms, 1),
                  Num(e.mcycles_per_sec, 2), Num(e.mips, 2)});
  }
  table.Print();

  // Per-cell speedups of the block engine over the per-instruction engine.
  std::map<std::string, std::map<std::string, double>> by_label;
  for (const exp::InterpBenchEntry& e : entries) {
    by_label[e.label][e.engine] = e.mcycles_per_sec;
  }
  std::printf("\nSpeedup of block over fast:\n");
  for (const auto& [label, engines] : by_label) {
    const auto fast = engines.find("fast");
    const auto block = engines.find("block");
    if (fast == engines.end() || block == engines.end() || fast->second <= 0.0) {
      continue;
    }
    std::printf("  %-40s block %.2fx\n", label.c_str(), block->second / fast->second);
  }
}

}  // namespace
}  // namespace bench
}  // namespace kivati

int main() {
  kivati::bench::Run();
  return 0;
}
