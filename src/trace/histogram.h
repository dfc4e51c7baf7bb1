// Fixed-footprint latency histogram for virtual-time durations.
//
// The paper's evaluation reports latencies (Table 5) and rates driven by
// counters; for debugging and perf work we additionally want distributions:
// how long suspensions last, how long atomic regions stay open, how long
// begin_atomic stalls on cross-core register sync. Durations span many
// orders of magnitude (a fast-path annotation is ~10 cycles, a suspension
// timeout is 50k), so buckets are powers of two. The histogram is a plain
// value type: recording is an array increment, cheap enough to stay enabled
// unconditionally. The bucket array is allocated by the first Record, so the
// many empty histograms a harness keeps (vanilla runs, untraced RunRecords
// and RuntimeStats copies) cost a pointer triple instead of 352 bytes.
#ifndef KIVATI_TRACE_HISTOGRAM_H_
#define KIVATI_TRACE_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace kivati {

class CycleHistogram {
 public:
  // Bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i).
  static constexpr unsigned kBuckets = 44;

  void Record(Cycles value);

  std::uint64_t count() const { return count_; }
  Cycles min() const { return count_ == 0 ? 0 : min_; }
  Cycles max() const { return max_; }
  std::uint64_t sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Upper bound (exclusive minus one) of the bucket containing the p-th
  // quantile, clamped to [min, max]; 0 when empty. `p` in [0, 1].
  Cycles Percentile(double p) const;

  // kBuckets counts; empty until the first Record.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  static constexpr Cycles BucketLowerBound(unsigned bucket) {
    return bucket == 0 ? 0 : Cycles{1} << (bucket - 1);
  }

  void Clear() { *this = CycleHistogram{}; }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  Cycles min_ = ~Cycles{0};
  Cycles max_ = 0;
};

// One-line rendering: "n=12 min=50 p50=~1023 p99=~65535 max=50000 mean=4177.3",
// or "n=0" for an empty histogram.
std::string FormatHistogram(const CycleHistogram& hist);

}  // namespace kivati

#endif  // KIVATI_TRACE_HISTOGRAM_H_
