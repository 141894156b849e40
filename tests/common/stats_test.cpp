#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace jbs {
namespace {

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-9);  // sample variance
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryTest, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryTest, MergeMatchesCombinedStream) {
  Summary a, b, combined;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37;
    combined.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(SummaryTest, MergeWithEmpty) {
  Summary a, empty;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(HistogramTest, PercentilesAreMonotonic) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.Percentile(50);
  const double p90 = h.Percentile(90);
  const double p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 42.0);
}

TEST(HistogramTest, NanIsRejectedNotBucketed) {
  // Regression: log2(NaN) cast to int is UB; NaN also fails every
  // comparison, so it used to sail past the `< 1.0` guard.
  Histogram h;
  h.Add(std::nan(""));
  h.Add(-std::nan(""));
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.rejected(), 2u);
  h.Add(5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.rejected(), 2u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 5.0);
}

TEST(HistogramTest, NegativesClampToBucketZero) {
  // Regression: log2 of a negative is NaN, so negatives were misbucketed
  // through the same UB cast. They now clamp to 0 (bucket 0).
  Histogram h;
  h.Add(-1.0);
  h.Add(-1e308);
  h.Add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.rejected(), 0u);
  EXPECT_EQ(h.buckets()[0], 3u);
  // min/max saw the clamped 0.0, not the raw negatives.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, PositiveInfinityClampsToLastBucket) {
  Histogram h;
  h.Add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.buckets()[Histogram::kNumBuckets - 1], 1u);
}

TEST(HistogramTest, BucketUpperBoundsArePowersOfTwo) {
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(10), 1024.0);
  // And values land below their bucket's bound.
  Histogram h;
  h.Add(700.0);  // 2^9 < 700 <= 2^10
  EXPECT_EQ(h.buckets()[10], 1u);
}

}  // namespace
}  // namespace jbs
