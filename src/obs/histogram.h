#ifndef TSB_OBS_HISTOGRAM_H_
#define TSB_OBS_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"

namespace tsb {
namespace obs {

/// Fixed log-bucket latency histogram — the one latency record of every
/// metrics class (service, transport, replica). The bucket layout follows
/// the Prometheus
/// native-histogram idea: exponential buckets at a fixed resolution, here
/// 4 per octave (factor 2^(1/4) ≈ 1.19) starting at 1µs, 128 buckets
/// spanning ~1µs..4295s, plus one overflow bucket. The layout is global
/// and versioned, so two histograms recorded in different processes
/// always share bucket boundaries and Merge() is a plain elementwise sum:
/// associative, commutative, and lossless — merging per-process
/// histograms equals recording the union stream into one.
///
/// count/sum/max are exact. Quantile() is bucket-resolution (returns the
/// upper bound of the bucket holding the rank), which makes it a pure
/// function of the bucket counts: merged-then-quantile equals
/// union-recorded-then-quantile, bit for bit.
///
/// Quantile resolution: a bucket spans a factor of 2^¼ ≈ 1.19, so a
/// quantile is known to within about ±9% of the bucket's geometric
/// centre. Quantile() reports the bucket's upper bound, so it never reads
/// below the true rank value and at most ~19% above it (values in the
/// overflow bucket resolve to the exact max).
///
/// Not internally locked — callers hold the owning mutex.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 128;   // Finite buckets.
  static constexpr size_t kBucketsPerOctave = 4;
  static constexpr double kFirstUpperBound = 1e-6;  // Bucket 0 is (0, 1µs].

  /// Upper bounds of the finite buckets; bucket i covers
  /// (bounds[i-1], bounds[i]]. Values above bounds[127] land in the
  /// overflow bucket.
  static const std::array<double, kNumBuckets>& UpperBounds();

  void Record(double seconds);

  /// Elementwise sum of bucket counts; count/sum add, max takes the max.
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double max() const { return max_; }

  /// Bucket-resolution quantile, q in [0,1]. Deterministic function of
  /// the bucket counts (overflow resolves to max()); 0 when empty.
  double Quantile(double q) const;

  /// Raw per-bucket counts, index kNumBuckets = overflow. Exposed so
  /// tests can assert exact bucket equality across merge orders.
  const std::array<uint64_t, kNumBuckets + 1>& buckets() const {
    return buckets_;
  }

  bool operator==(const LatencyHistogram& other) const {
    return count_ == other.count_ && buckets_ == other.buckets_;
  }

  /// Cumulative (upper_bound, running_count) pairs — the shape a
  /// Prometheus `_bucket`/`le` family wants. Only buckets whose
  /// cumulative count changes are emitted; the +Inf entry always appears
  /// last with the total count.
  std::vector<std::pair<double, uint64_t>> CumulativeBuckets() const;

  void Reset();

  /// Sparse binary codec: exact count/sum/max plus (index, count) pairs
  /// for non-empty buckets. Append-encodes; decode validates indexes are
  /// in range and strictly increasing, and that the pair counts sum to
  /// `count`.
  void EncodeTo(std::string* out) const;
  static Result<LatencyHistogram> DecodeFrom(BinaryReader* in);

 private:
  std::array<uint64_t, kNumBuckets + 1> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace obs
}  // namespace tsb

#endif  // TSB_OBS_HISTOGRAM_H_
