// Unified shuffle observability: a thread-safe registry of named, labeled
// counters, gauges, and log2 histograms, plus a fixed-size per-fetch trace
// ring. The paper's evaluation (Figs. 7-12) is built on fine-grained
// visibility into the shuffle — per-phase timings, CPU traces, connection
// counts — so every shuffle component (NetMerger, MofSupplier, the
// baseline HTTP shuffle, the transports) publishes into one registry and
// benches/tests read it back via DumpText() (Prometheus-style exposition)
// or DumpJson().
//
// Concurrency model:
//   - Registration (Get*) takes one sharded lock keyed by (name, labels);
//     the returned pointer is stable for the registry's lifetime, so hot
//     paths register once and then increment lock-free.
//   - Counter/gauge updates are atomics; histogram observations take a
//     per-histogram mutex (an observation is two streaming updates).
//   - Dump*() walks the shards and emits deterministically sorted output.
//   - Values a component owns (cache hit counts, pool occupancy) are
//     pushed into gauges by that component, never pulled by a callback at
//     dump time, so a dump cannot reach into a destroyed component.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/stats.h"
#include "common/thread_annotations.h"

namespace jbs {

/// Label set for one metric instance, e.g. {{"client", "netmerger"}}.
/// Order-insensitive: labels are canonicalized (sorted by key) on lookup.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter. Increment is lock-free.
class MetricCounter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (queue depth, cache occupancy). Set/Add are
/// lock-free (CAS loop for the floating-point add).
class MetricGauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Latency/size distribution: a log2-bucket Histogram plus a Welford
/// Summary (exact count/sum/mean), both behind one mutex.
class MetricHistogram {
 public:
  void Observe(double value) EXCLUDES(mu_);
  uint64_t count() const EXCLUDES(mu_);
  /// Snapshot copies — safe to read while writers observe.
  Histogram histogram() const EXCLUDES(mu_);
  Summary summary() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  Histogram histogram_ GUARDED_BY(mu_);
  Summary summary_ GUARDED_BY(mu_);
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned pointer stays valid (and keeps
  /// accumulating) for the registry's lifetime.
  MetricCounter* GetCounter(std::string_view name, MetricLabels labels = {});
  MetricGauge* GetGauge(std::string_view name, MetricLabels labels = {});
  MetricHistogram* GetHistogram(std::string_view name,
                                MetricLabels labels = {});

  /// Prometheus-style text exposition, deterministically sorted by
  /// (name, labels). Histograms emit cumulative _bucket{le=...} lines
  /// plus _sum and _count.
  std::string DumpText() const;
  /// One JSON object: {"counters": [...], "gauges": [...],
  /// "histograms": [...]}, same deterministic order as DumpText().
  std::string DumpJson() const;

 private:
  struct Key {
    std::string name;
    MetricLabels labels;  // canonical (sorted by label key)
    bool operator<(const Key& other) const {
      if (name != other.name) return name < other.name;
      return labels < other.labels;
    }
  };
  struct HistSnap {
    Histogram histogram;
    Summary summary;
  };
  /// Every series' value, copied under the shard locks into sorted maps:
  /// shards are unordered and dump output must be deterministic.
  struct Snapshot {
    std::map<Key, uint64_t> counters;
    std::map<Key, double> gauges;
    std::map<Key, HistSnap> histograms;
  };
  static constexpr size_t kShards = 16;
  struct Shard {
    Mutex mu;
    std::map<Key, std::unique_ptr<MetricCounter>> counters GUARDED_BY(mu);
    std::map<Key, std::unique_ptr<MetricGauge>> gauges GUARDED_BY(mu);
    std::map<Key, std::unique_ptr<MetricHistogram>> histograms GUARDED_BY(mu);
  };

  static Key MakeKey(std::string_view name, MetricLabels labels);
  Shard& ShardFor(const Key& key);
  const Shard& ShardFor(const Key& key) const;
  Snapshot TakeSnapshot() const;

  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Lifecycle stages of one fetch, in causal order.
enum class TraceEvent : uint8_t {
  kQueued = 0,         // task entered a NetMerger node queue
  kDialed,             // connection established (detail: attempt, 1-based)
  kRequestSent,        // first chunk request on the wire
  kChunkReceived,      // one chunk landed (detail: payload bytes)
  kCorrupt,            // chunk failed CRC verification (detail: offset)
  kRetry,              // transient failure, backing off (detail: attempt)
  kFailover,           // rerouted to a replica location (detail: replicas
                       // still untried after the switch)
  kMerged,             // segment complete, handed to the merge
  kFailed,             // fetch gave up (detail: StatusCode)
};
std::string_view TraceEventName(TraceEvent event);

struct TraceEntry {
  uint64_t fetch_id = 0;
  TraceEvent event = TraceEvent::kQueued;
  int64_t t_us = 0;    // monotonic micros since recorder creation
  int64_t detail = 0;  // event-specific (see TraceEvent)
};

/// Fixed-size ring buffer of TraceEntry, thread-safe, overwrite-oldest.
/// Cheap enough to leave always-on: one mutex and a slot write per event.
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t capacity = 4096);

  /// Allocates the next fetch id (1-based, monotonic).
  uint64_t BeginFetch() { return next_fetch_id_.fetch_add(1) + 1; }

  void Record(uint64_t fetch_id, TraceEvent event, int64_t detail = 0)
      EXCLUDES(mu_);

  /// All retained entries, oldest first.
  std::vector<TraceEntry> Snapshot() const EXCLUDES(mu_);
  /// Retained entries for one fetch, oldest first.
  std::vector<TraceEntry> ForFetch(uint64_t fetch_id) const;
  /// Human-readable timeline (one line per entry), for tests and benches.
  std::string DumpText() const;

  size_t capacity() const { return capacity_; }
  /// Total entries ever recorded (>= retained count).
  uint64_t recorded() const EXCLUDES(mu_);
  /// Entries overwritten by ring wraparound.
  uint64_t dropped() const EXCLUDES(mu_);

 private:
  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_fetch_id_{0};
  mutable Mutex mu_;
  std::vector<TraceEntry> ring_ GUARDED_BY(mu_);
  size_t head_ GUARDED_BY(mu_) = 0;  // next write slot once the ring is full
  uint64_t recorded_ GUARDED_BY(mu_) = 0;
};

}  // namespace jbs
