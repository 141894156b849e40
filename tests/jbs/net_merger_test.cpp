// NetMerger against real MofSupplier servers ("nodes") over loopback.
#include "jbs/net_merger.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "jbs/mof_supplier.h"
#include "mapred/ifile.h"
#include "metric_sum.h"
#include "transport/transport.h"

namespace jbs::shuffle {
namespace {

namespace fs = std::filesystem;

class NetMergerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("merger_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    transport_ = net::MakeTcpTransport();
  }
  void TearDown() override {
    suppliers_.clear();
    fs::remove_all(dir_);
  }

  /// Brings up `nodes` suppliers; each node hosts `mofs_per_node` MOFs with
  /// `partitions` sorted segments. Returns the MofLocations.
  std::vector<mr::MofLocation> MakeCluster(int nodes, int mofs_per_node,
                                           int partitions,
                                           int records_per_segment) {
    std::vector<mr::MofLocation> locations;
    int map_task = 0;
    for (int n = 0; n < nodes; ++n) {
      MofSupplier::Options options;
      options.transport = transport_.get();
      options.buffer_size = 2048;
      options.buffer_count = 8;
      auto supplier = std::make_unique<MofSupplier>(options);
      EXPECT_TRUE(supplier->Start().ok());
      for (int m = 0; m < mofs_per_node; ++m, ++map_task) {
        mr::MofWriter writer(dir_ / ("mof_" + std::to_string(map_task)));
        for (int p = 0; p < partitions; ++p) {
          mr::IFileWriter segment;
          for (int r = 0; r < records_per_segment; ++r) {
            // Keys interleave across maps so the merge is nontrivial.
            char key[32];
            std::snprintf(key, sizeof(key), "k%05d", r * 100 + map_task);
            segment.Append(key, "v" + std::to_string(map_task));
            expected_[p].emplace(key);
          }
          const uint64_t cnt = segment.records();
          EXPECT_TRUE(writer.AppendSegment(segment.Finish(), cnt).ok());
        }
        auto handle = writer.Finish(map_task, n);
        EXPECT_TRUE(handle.ok());
        EXPECT_TRUE(supplier->PublishMof(*handle).ok());
        locations.push_back(
            {map_task, n, "127.0.0.1", supplier->port()});
      }
      suppliers_.push_back(std::move(supplier));
    }
    return locations;
  }

  NetMerger MakeMerger(bool consolidate = true, bool round_robin = true,
                       int data_threads = 3) {
    NetMerger::Options options;
    options.transport = transport_.get();
    options.data_threads = data_threads;
    options.chunk_size = 1500;
    options.consolidate = consolidate;
    options.round_robin = round_robin;
    return NetMerger(options);
  }

  /// Asserts the stream is sorted and matches the expected multiset.
  void CheckMerged(mr::RecordStream& stream, int partition,
                   size_t expected_records) {
    mr::Record record;
    std::string last;
    size_t count = 0;
    while (stream.Next(&record)) {
      EXPECT_GE(record.key, last);
      last = record.key;
      ++count;
    }
    EXPECT_TRUE(stream.status().ok());
    EXPECT_EQ(count, expected_records);
    (void)partition;
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<MofSupplier>> suppliers_;
  std::map<int, std::multiset<std::string>> expected_;
};

TEST_F(NetMergerTest, MergesAcrossNodesSorted) {
  auto locations = MakeCluster(/*nodes=*/3, /*mofs=*/2, /*partitions=*/2,
                               /*records=*/25);
  auto merger = MakeMerger();
  auto stream = merger.FetchAndMerge(1, locations);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  CheckMerged(**stream, 1, 6 * 25);
  const MetricsRegistry& stats = merger.metrics();
  EXPECT_EQ(SumMetric(stats, "shuffle_fetches_total"), 6u);
  EXPECT_GT(SumMetric(stats, "shuffle_bytes_fetched_total"), 0u);
  merger.Stop();
}

TEST_F(NetMergerTest, ConsolidationUsesOneConnectionPerNode) {
  auto locations = MakeCluster(3, 4, 1, 10);
  auto merger = MakeMerger(/*consolidate=*/true);
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  // 12 fetches but only 3 nodes -> exactly 3 dials.
  EXPECT_EQ(SumMetric(merger.metrics(), "shuffle_connections_opened_total"),
            3u);
  merger.Stop();
}

TEST_F(NetMergerTest, NoConsolidationDialsPerFetch) {
  auto locations = MakeCluster(3, 4, 1, 10);
  auto merger = MakeMerger(/*consolidate=*/false);
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  EXPECT_EQ(SumMetric(merger.metrics(), "shuffle_connections_opened_total"),
            12u);
  merger.Stop();
}

TEST_F(NetMergerTest, RefetchDoesNotDoubleCountConnectionsOpened) {
  // Regression: consolidated dials used to be counted both by the merger
  // and via the connection-manager miss path, so connections_opened could
  // drift above the number of actual dials. The dial itself (the manager's
  // `dialed` out-param) is now the single authority.
  auto locations = MakeCluster(3, 4, 1, 10);
  auto merger = MakeMerger(/*consolidate=*/true);
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  // 24 fetches across two rounds; the second round reuses the 3 cached
  // connections, so exactly 3 dials total.
  const MetricsRegistry& metrics = merger.metrics();
  const uint64_t opened =
      SumMetric(metrics, "shuffle_connections_opened_total");
  EXPECT_EQ(opened, 3u);
  // Invariant: every successful dial is a cache miss that didn't fail.
  EXPECT_EQ(SumMetric(metrics, "jbs_connmgr_misses") -
                SumMetric(metrics, "jbs_connmgr_dial_failures"),
            opened);
  EXPECT_GT(SumMetric(metrics, "jbs_connmgr_hits"), 0u);
  merger.Stop();
}

TEST_F(NetMergerTest, MetricsExpositionCoversFetchPath) {
  auto locations = MakeCluster(2, 2, 1, 10);
  auto merger = MakeMerger();
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  merger.Stop();
  const std::string text = merger.metrics().DumpText();
  EXPECT_NE(text.find("shuffle_fetches_total{client=\"netmerger\"} 4"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("shuffle_connections_opened_total"), std::string::npos);
  EXPECT_NE(text.find("shuffle_fetch_latency_ms_count"), std::string::npos);
  EXPECT_NE(text.find("jbs_connmgr_hits"), std::string::npos);
  // Every fetch left a complete trace ending in a merge.
  const auto entries = merger.trace().Snapshot();
  EXPECT_FALSE(entries.empty());
  size_t merged = 0;
  for (const auto& entry : entries) {
    if (entry.event == TraceEvent::kMerged) ++merged;
  }
  EXPECT_EQ(merged, 4u);
}

TEST_F(NetMergerTest, ConcurrentReducersShareMerger) {
  // Two "reducers" on the same node call FetchAndMerge concurrently — the
  // consolidation scenario of §III-C.
  auto locations = MakeCluster(2, 3, 2, 15);
  auto merger = MakeMerger();
  Status s0, s1;
  std::thread r0([&] {
    auto stream = merger.FetchAndMerge(0, locations);
    s0 = stream.status();
    if (stream.ok()) CheckMerged(**stream, 0, 6 * 15);
  });
  std::thread r1([&] {
    auto stream = merger.FetchAndMerge(1, locations);
    s1 = stream.status();
    if (stream.ok()) CheckMerged(**stream, 1, 6 * 15);
  });
  r0.join();
  r1.join();
  EXPECT_TRUE(s0.ok()) << s0.ToString();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  // Still only one connection per remote node despite 2 reducers.
  EXPECT_EQ(SumMetric(merger.metrics(), "shuffle_connections_opened_total"),
            2u);
  merger.Stop();
}

TEST_F(NetMergerTest, RoundRobinSwitchesNodes) {
  auto locations = MakeCluster(4, 3, 1, 10);
  auto merger = MakeMerger(/*consolidate=*/true, /*round_robin=*/true,
                           /*data_threads=*/1);
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  // With 1 data thread, RR must alternate nodes: 12 tasks across 4 nodes
  // yields ~11 switches; key-ordered FIFO would do 3.
  EXPECT_GE(SumMetric(merger.metrics(), "jbs_netmerger_node_switches_total"),
            8u);
  merger.Stop();
}

TEST_F(NetMergerTest, FifoModeDrainsNodeByNode) {
  auto locations = MakeCluster(4, 3, 1, 10);
  auto merger = MakeMerger(/*consolidate=*/true, /*round_robin=*/false,
                           /*data_threads=*/1);
  ASSERT_TRUE(merger.FetchAndMerge(0, locations).ok());
  EXPECT_LE(SumMetric(merger.metrics(), "jbs_netmerger_node_switches_total"),
            3u);
  merger.Stop();
}

TEST_F(NetMergerTest, FetchErrorPropagates) {
  auto locations = MakeCluster(1, 1, 1, 5);
  locations.push_back({999, 0, "127.0.0.1", locations[0].port});  // no MOF
  auto merger = MakeMerger();
  auto stream = merger.FetchAndMerge(0, locations);
  EXPECT_FALSE(stream.ok());
  EXPECT_EQ(SumMetric(merger.metrics(), "shuffle_fetch_errors_total"), 1u);
  merger.Stop();
}

TEST_F(NetMergerTest, UnreachableNodeFails) {
  auto locations = MakeCluster(1, 1, 1, 5);
  locations.push_back({1, 9, "127.0.0.1", 1});  // nothing listens on port 1
  auto merger = MakeMerger();
  auto stream = merger.FetchAndMerge(0, locations);
  EXPECT_FALSE(stream.ok());
  merger.Stop();
}

TEST_F(NetMergerTest, StopUnblocksWorkers) {
  auto merger = MakeMerger();
  merger.Stop();  // no work: must return promptly and not hang
  auto stream = merger.FetchAndMerge(0, {});
  EXPECT_FALSE(stream.ok());
}

}  // namespace
}  // namespace jbs::shuffle
