#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace jbs {
namespace {

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  MetricCounter* a = registry.GetCounter("requests_total");
  MetricCounter* b = registry.GetCounter("requests_total");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Re-resolve inside the thread: registration races must also be safe.
      MetricCounter* c = registry.GetCounter("hot", {{"k", "v"}});
      for (int i = 0; i < kIncrements; ++i) c->Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("hot", {{"k", "v"}})->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, LabelsIsolateSeries) {
  MetricsRegistry registry;
  MetricCounter* a = registry.GetCounter("fetches", {{"node", "a"}});
  MetricCounter* b = registry.GetCounter("fetches", {{"node", "b"}});
  MetricCounter* none = registry.GetCounter("fetches");
  EXPECT_NE(a, b);
  EXPECT_NE(a, none);
  a->Increment();
  EXPECT_EQ(b->value(), 0u);
  EXPECT_EQ(none->value(), 0u);
}

TEST(MetricsRegistryTest, LabelOrderIsCanonicalized) {
  MetricsRegistry registry;
  MetricCounter* ab =
      registry.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  MetricCounter* ba =
      registry.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  MetricGauge* g = registry.GetGauge("queue_depth");
  g->Set(5.0);
  EXPECT_DOUBLE_EQ(g->value(), 5.0);
  g->Add(2.5);
  g->Add(-1.0);
  EXPECT_DOUBLE_EQ(g->value(), 6.5);
}

TEST(MetricsRegistryTest, HistogramObservations) {
  MetricsRegistry registry;
  MetricHistogram* h = registry.GetHistogram("latency_ms");
  for (double v : {1.0, 2.0, 4.0, 100.0}) h->Observe(v);
  EXPECT_EQ(h->count(), 4u);
  const Summary summary = h->summary();
  EXPECT_EQ(summary.count(), 4u);
  EXPECT_NEAR(summary.sum(), 107.0, 1e-9);  // Welford sum is mean * n
  EXPECT_DOUBLE_EQ(summary.max(), 100.0);
  EXPECT_GE(h->histogram().Percentile(99), h->histogram().Percentile(50));
}

TEST(MetricsRegistryTest, DumpTextIsDeterministicAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b_total", {{"z", "2"}})->Increment(2);
  registry.GetCounter("b_total", {{"z", "1"}})->Increment(1);
  registry.GetCounter("a_total")->Increment(7);
  registry.GetGauge("depth", {{"node", "n"}})->Set(3.0);
  registry.GetHistogram("lat_ms")->Observe(3.0);

  const std::string text = registry.DumpText();
  EXPECT_EQ(text, registry.DumpText());  // stable across calls

  EXPECT_NE(text.find("# TYPE a_total counter"), std::string::npos);
  EXPECT_NE(text.find("a_total 7"), std::string::npos);
  EXPECT_NE(text.find("b_total{z=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("b_total{z=\"2\"} 2"), std::string::npos);
  // Sorted: a_total before b_total, z="1" before z="2".
  EXPECT_LT(text.find("a_total"), text.find("b_total"));
  EXPECT_LT(text.find("z=\"1\""), text.find("z=\"2\""));
  EXPECT_NE(text.find("depth{node=\"n\"} 3"), std::string::npos);
  // Histogram exposition: buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("lat_ms_bucket{le="), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_sum 3"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, DumpJsonContainsAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("c_total", {{"k", "v"}})->Increment(4);
  registry.GetGauge("g")->Set(1.5);
  registry.GetHistogram("h_ms")->Observe(2.0);
  const std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":4"), std::string::npos);
}

TEST(TraceRecorderTest, RecordsLifecycleInOrder) {
  TraceRecorder trace(64);
  const uint64_t id = trace.BeginFetch();
  EXPECT_EQ(id, 1u);
  trace.Record(id, TraceEvent::kQueued, 7);
  trace.Record(id, TraceEvent::kDialed, 1);
  trace.Record(id, TraceEvent::kRequestSent);
  trace.Record(id, TraceEvent::kChunkReceived, 4096);
  trace.Record(id, TraceEvent::kMerged, 4096);
  const auto timeline = trace.ForFetch(id);
  ASSERT_EQ(timeline.size(), 5u);
  EXPECT_EQ(timeline.front().event, TraceEvent::kQueued);
  EXPECT_EQ(timeline.front().detail, 7);
  EXPECT_EQ(timeline.back().event, TraceEvent::kMerged);
  // Monotonic timestamps.
  for (size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].t_us, timeline[i - 1].t_us);
  }
  // Unrelated fetch isolated.
  EXPECT_TRUE(trace.ForFetch(42).empty());
}

TEST(TraceRecorderTest, RingWraparoundKeepsNewestEntries) {
  TraceRecorder trace(8);
  for (int i = 0; i < 20; ++i) {
    trace.Record(static_cast<uint64_t>(i), TraceEvent::kQueued, i);
  }
  EXPECT_EQ(trace.capacity(), 8u);
  EXPECT_EQ(trace.recorded(), 20u);
  EXPECT_EQ(trace.dropped(), 12u);
  const auto entries = trace.Snapshot();
  ASSERT_EQ(entries.size(), 8u);
  // Oldest first, and only the last 8 survive.
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].detail, static_cast<int64_t>(12 + i));
  }
}

TEST(TraceRecorderTest, DumpTextNamesEvents) {
  TraceRecorder trace(8);
  const uint64_t id = trace.BeginFetch();
  trace.Record(id, TraceEvent::kQueued);
  trace.Record(id, TraceEvent::kFailed, 5);
  const std::string text = trace.DumpText();
  EXPECT_NE(text.find("queued"), std::string::npos);
  EXPECT_NE(text.find("failed"), std::string::npos);
}

TEST(TraceRecorderTest, BeginFetchIdsAreUniqueAcrossThreads) {
  TraceRecorder trace(1024);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, &ids, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ids[static_cast<size_t>(t)].push_back(trace.BeginFetch());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<uint64_t> all;
  for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(all.front(), 1u);
}

}  // namespace
}  // namespace jbs
