#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace jbs {

void Summary::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void Summary::Merge(const Summary& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double Summary::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

std::string Summary::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.3f stddev=%.3f min=%.3f max=%.3f",
                static_cast<unsigned long long>(count_), mean(), stddev(),
                min(), max());
  return buf;
}

Histogram::Histogram() : buckets_(kBuckets, 0) {}

namespace {
int BucketFor(double value) {
  // Caller guarantees value is finite and >= 0.
  if (value < 1.0) return 0;
  const int exponent = static_cast<int>(std::log2(value));
  return std::min(exponent + 1, Histogram::kNumBuckets - 1);
}
}  // namespace

double Histogram::BucketUpperBound(int i) {
  return i == 0 ? 1.0 : std::pow(2.0, i);
}

void Histogram::Add(double value) {
  if (std::isnan(value)) {
    // NaN fails every comparison: it would pass the `< 1.0` guard into
    // log2, where static_cast<int>(NaN) is UB.
    ++rejected_;
    return;
  }
  value = std::clamp(value, 0.0, std::numeric_limits<double>::max());
  if (total_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++buckets_[static_cast<size_t>(BucketFor(value))];
  ++total_;
}

double Histogram::Percentile(double p) const {
  if (total_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(total_);
  uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[static_cast<size_t>(i)];
    if (static_cast<double>(cumulative) >= target) {
      // Bucket i covers [2^(i-1), 2^i); return its midpoint, clamped.
      const double lo = i == 0 ? 0.0 : std::pow(2.0, i - 1);
      const double hi = std::pow(2.0, i);
      return std::clamp((lo + hi) / 2.0, min_, max_);
    }
  }
  return max_;
}

std::string Histogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%llu p50=%.2f p95=%.2f p99=%.2f max=%.2f",
                static_cast<unsigned long long>(total_), Percentile(50),
                Percentile(95), Percentile(99), max_);
  return buf;
}

}  // namespace jbs
