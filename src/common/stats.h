// Measurement plumbing for the metrics registry and benches: streaming
// summaries and log2-bucket histograms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace jbs {

/// Streaming min/max/mean/variance (Welford).
class Summary {
 public:
  void Add(double x);
  void Merge(const Summary& other);

  uint64_t count() const { return count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const { return mean_; }
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

  std::string ToString() const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Histogram with log2 buckets; good enough for latency distributions.
/// Values are clamped to [0, DBL_MAX] before bucketing (negative and -inf
/// observations land in the first bucket, +inf in the last); NaN is
/// rejected and counted separately — feeding NaN to log2 and casting the
/// result to int is UB, and a poisoned min/max would corrupt every later
/// percentile.
class Histogram {
 public:
  Histogram();
  void Add(double value);
  uint64_t count() const { return total_; }
  /// NaN observations dropped by Add().
  uint64_t rejected() const { return rejected_; }
  /// Approximate percentile (0-100) via bucket interpolation.
  double Percentile(double p) const;
  std::string ToString() const;

  static constexpr int kNumBuckets = 64;
  /// Exclusive upper bound of bucket `i`: bucket 0 is [0, 1), bucket i>0
  /// is [2^(i-1), 2^i); the last bucket absorbs everything above.
  static double BucketUpperBound(int i);
  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  static constexpr int kBuckets = kNumBuckets;
  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
  uint64_t rejected_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace jbs
