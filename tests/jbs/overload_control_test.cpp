// Overload control (DESIGN.md §16): supplier-side admission sheds with
// kErrorBusy instead of queueing unboundedly, and the merger treats busy
// as pushback — no health penalty, no failover promotion, no transient
// retry consumed — honoring the retry-after hint on a separate budget.
// Runs in every build (no failpoints needed): admission is config-driven.
#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <vector>

#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "jbs/protocol.h"
#include "mapred/ifile.h"
#include "metric_sum.h"
#include "transport/tcp_transport.h"

namespace jbs {
namespace {

namespace fs = std::filesystem;
using shuffle::DecodeBusy;
using shuffle::DecodeData;
using shuffle::EncodeRequest;
using shuffle::FetchRequest;
using shuffle::kErrorBusy;
using shuffle::kFetchData;

constexpr int kRecordsPerMap = 300;

std::vector<mr::Record> Drain(mr::RecordStream& stream) {
  std::vector<mr::Record> records;
  mr::Record record;
  while (stream.Next(&record)) records.push_back(record);
  return records;
}

class OverloadControlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("overload_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    transport_ = net::MakeTcpTransport();
  }
  void TearDown() override {
    suppliers_.clear();
    fs::remove_all(dir_);
  }

  mr::MofHandle MakeMof(int map_task) {
    mr::MofWriter writer(dir_ / ("mof_" + std::to_string(map_task)));
    mr::IFileWriter segment;
    for (int r = 0; r < kRecordsPerMap; ++r) {
      // Globally unique keys: merged order is fully determined, so runs
      // with and without shedding compare record for record.
      segment.Append("k" + std::to_string(map_task) + "_" +
                         std::to_string(100000 + r),
                     "v" + std::to_string(map_task * kRecordsPerMap + r));
    }
    const uint64_t records = segment.records();
    EXPECT_TRUE(writer.AppendSegment(segment.Finish(), records).ok());
    auto handle = writer.Finish(map_task, 0);
    EXPECT_TRUE(handle.ok());
    return *handle;
  }

  shuffle::MofSupplier* Boot(shuffle::MofSupplier::Options options,
                             const std::vector<mr::MofHandle>& handles) {
    options.transport = transport_.get();
    auto supplier = std::make_unique<shuffle::MofSupplier>(options);
    EXPECT_TRUE(supplier->Start().ok());
    for (const auto& handle : handles) {
      EXPECT_TRUE(supplier->PublishMof(handle).ok());
    }
    suppliers_.push_back(std::move(supplier));
    return suppliers_.back().get();
  }

  static net::Deadline In(int64_t ms) { return net::Deadline::AfterMs(ms); }

  fs::path dir_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<shuffle::MofSupplier>> suppliers_;
};

TEST_F(OverloadControlTest, InflightByteBoundShedsWithBusyReply) {
  shuffle::MofSupplier::Options sopts;
  sopts.admission_max_inflight_bytes = 1;  // nothing fits: shed everything
  shuffle::MofSupplier* supplier = Boot(sopts, {MakeMof(0)});

  auto conn = transport_->Connect("127.0.0.1", supplier->port(), In(2000));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  FetchRequest request;
  request.map_task = 0;
  request.partition = 0;
  request.max_len = 64 * 1024;
  ASSERT_TRUE((*conn)->Send(EncodeRequest(request), In(2000)).ok());
  auto reply = (*conn)->Receive(In(2000));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, kErrorBusy);
  auto busy = DecodeBusy(*reply);
  ASSERT_TRUE(busy.has_value());
  EXPECT_EQ(busy->map_task, 0);
  EXPECT_EQ(busy->partition, 0);
  EXPECT_GE(busy->retry_after_ms, 5u);    // backlog-derived hint floor
  EXPECT_LE(busy->retry_after_ms, 1000u);  // and its cap

  const MetricsRegistry& stats = supplier->metrics();
  EXPECT_EQ(SumMetric(stats, "jbs_supplier_shed_total"), 1u);
  EXPECT_EQ(SumMetric(stats, "shuffle_requests_total"), 1u);
  // shed is pushback, not an error reply
  EXPECT_EQ(SumMetric(stats, "shuffle_serve_errors_total"), 0u);
}

TEST_F(OverloadControlTest, QueueBoundShedsUnderBurstButServesAdmitted) {
  shuffle::MofSupplier::Options sopts;
  sopts.admission_max_queue = 1;
  sopts.prefetch_batch = 1;
  sopts.prefetch_threads = 1;
  sopts.disk_seek_ms = 20;  // slow disk: the burst outruns the drain
  sopts.disk_bytes_per_sec = 1e9;
  shuffle::MofSupplier* supplier = Boot(sopts, {MakeMof(0)});

  auto conn = transport_->Connect("127.0.0.1", supplier->port(), In(2000));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  FetchRequest request;
  request.map_task = 0;
  request.partition = 0;
  request.max_len = 64 * 1024;
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE((*conn)->Send(EncodeRequest(request), In(2000)).ok());
  }
  int busy = 0;
  int data = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto reply = (*conn)->Receive(In(5000));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply->type == kErrorBusy) {
      ++busy;
    } else {
      ASSERT_EQ(reply->type, kFetchData);
      std::span<const uint8_t> payload;
      EXPECT_TRUE(DecodeData(*reply, &payload).has_value());
      ++data;
    }
  }
  // A back-to-back burst of 8 against queue bound 1 must shed some and
  // serve the admitted rest — every request gets exactly one reply.
  EXPECT_GT(busy, 0);
  EXPECT_GT(data, 0);
  const MetricsRegistry& stats = supplier->metrics();
  EXPECT_EQ(SumMetric(stats, "jbs_supplier_shed_total"),
            static_cast<uint64_t>(busy));
  EXPECT_EQ(SumMetric(stats, "shuffle_requests_total"),
            static_cast<uint64_t>(kBurst));
}

TEST_F(OverloadControlTest, MergerTreatsBusyAsPushbackNotFailure) {
  shuffle::MofSupplier::Options sopts;
  sopts.admission_max_inflight_bytes = 1;  // shed every request
  shuffle::MofSupplier* supplier = Boot(sopts, {MakeMof(0)});

  shuffle::NetMerger::Options mopts;
  mopts.transport = transport_.get();
  mopts.pushback_retry_budget = 2;
  mopts.max_fetch_attempts = 3;
  mopts.retry_backoff_ms = 1;
  // Any health-recorded failure would penalize immediately — so a zero
  // penalty count below proves pushback never touched the tracker.
  mopts.health.suspect_after = 1;
  mopts.health.penalize_after = 1;
  shuffle::NetMerger merger(mopts);

  auto stream = merger.FetchAndMerge(
      0, {{0, 0, "127.0.0.1", supplier->port()}});
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kResourceExhausted)
      << stream.status().ToString();

  const MetricsRegistry& stats = merger.metrics();
  // One busy per conversation: the initial try plus the two budgeted
  // retries, then the budget-exhausting reply completes the fetch.
  EXPECT_EQ(SumMetric(stats, "jbs_netmerger_pushback_total"), 3u);
  // no transient attempt consumed
  EXPECT_EQ(SumMetric(stats, "jbs_netmerger_fetch_retries_total"), 0u);
  EXPECT_EQ(SumMetric(stats, "jbs_netmerger_failovers_total"), 0u);
  EXPECT_EQ(SumMetric(stats, "jbs_netmerger_penalties_total"), 0u);
  // busy never reaches the CRC path
  EXPECT_EQ(SumMetric(stats, "jbs_netmerger_chunks_corrupt_total"), 0u);
  const std::string node =
      "127.0.0.1:" + std::to_string(supplier->port());
  EXPECT_EQ(merger.node_health(node), shuffle::NodeState::kHealthy);
  merger.Stop();
}

TEST_F(OverloadControlTest, BusyNeverPromotesFailoverReplica) {
  shuffle::MofSupplier::Options shedding;
  shedding.admission_max_inflight_bytes = 1;
  const mr::MofHandle mof = MakeMof(0);
  shuffle::MofSupplier* primary = Boot(shedding, {mof});
  shuffle::MofSupplier* replica = Boot({}, {mof});

  shuffle::NetMerger::Options mopts;
  mopts.transport = transport_.get();
  mopts.pushback_retry_budget = 1;
  mopts.retry_backoff_ms = 1;
  mopts.max_failovers = 4;
  shuffle::NetMerger merger(mopts);

  // Primary sheds every request; the replica holds the same MOF. Pushback
  // must NOT promote the replica — overload is not node death, and every
  // copy of a hot partition is likely saturated too.
  auto stream = merger.FetchAndMerge(
      0, {{0, 0, "127.0.0.1", primary->port()},
          {0, 1, "127.0.0.1", replica->port()}});
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(SumMetric(merger.metrics(), "jbs_netmerger_failovers_total"), 0u);
  EXPECT_EQ(SumMetric(replica->metrics(), "shuffle_requests_total"), 0u);
  merger.Stop();
}

TEST_F(OverloadControlTest, OverloadedShuffleCompletesByteIdentical) {
  // Three concurrent mergers (three reduce tasks) hammer one supplier
  // whose admitted-byte budget fits a single chunk request, so their
  // conversations shed each other constantly; the pushback budget plus
  // jittered retry-after hints must still let every fetch complete,
  // byte-identical to the uncontended run. (One merger can't produce
  // contention alone: it serializes fetches per node.)
  const std::vector<mr::MofHandle> mofs = {MakeMof(0), MakeMof(1),
                                           MakeMof(2)};
  shuffle::MofSupplier::Options plain;
  shuffle::MofSupplier* reference_supplier = Boot(plain, mofs);

  shuffle::MofSupplier::Options bounded = plain;
  bounded.admission_max_inflight_bytes = 1500;  // one 1 KiB chunk, not two
  // Modeled disk time per chunk keeps each request in its admitted window
  // long enough for the concurrent mergers to actually collide.
  bounded.disk_bytes_per_sec = 2e6;
  shuffle::MofSupplier* bounded_supplier = Boot(bounded, mofs);

  const auto merger_options = [&] {
    shuffle::NetMerger::Options mopts;
    mopts.transport = transport_.get();
    mopts.chunk_size = 1024;  // many chunks per segment: more overlap
    mopts.fetch_window = 1;   // stop-and-wait: shed aborts are cheap
    mopts.pushback_retry_budget = 500;
    mopts.retry_backoff_ms = 1;
    mopts.health.penalize_after = 1;
    return mopts;
  };
  const auto locations = [](uint16_t port) {
    std::vector<mr::MofLocation> out;
    for (int m = 0; m < 3; ++m) out.push_back({m, 0, "127.0.0.1", port});
    return out;
  };

  std::vector<mr::Record> expected;
  {
    shuffle::NetMerger reference(merger_options());
    auto stream =
        reference.FetchAndMerge(0, locations(reference_supplier->port()));
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    expected = Drain(**stream);
    reference.Stop();
  }
  ASSERT_EQ(expected.size(), static_cast<size_t>(3) * kRecordsPerMap);

  constexpr int kReducers = 3;
  std::vector<std::unique_ptr<shuffle::NetMerger>> mergers;
  std::vector<std::future<StatusOr<std::unique_ptr<mr::RecordStream>>>> runs;
  for (int r = 0; r < kReducers; ++r) {
    mergers.push_back(std::make_unique<shuffle::NetMerger>(merger_options()));
  }
  for (int r = 0; r < kReducers; ++r) {
    runs.push_back(std::async(std::launch::async, [&, r] {
      return mergers[r]->FetchAndMerge(0,
                                       locations(bounded_supplier->port()));
    }));
  }
  uint64_t pushbacks = 0;
  for (int r = 0; r < kReducers; ++r) {
    auto stream = runs[r].get();
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    EXPECT_TRUE(Drain(**stream) == expected) << "reducer " << r << " diverged";
    const MetricsRegistry& mstats = mergers[r]->metrics();
    pushbacks += SumMetric(mstats, "jbs_netmerger_pushback_total");
    // Overload converted into zero spurious robustness reactions.
    EXPECT_EQ(SumMetric(mstats, "jbs_netmerger_penalties_total"), 0u);
    EXPECT_EQ(SumMetric(mstats, "jbs_netmerger_failovers_total"), 0u);
    EXPECT_EQ(SumMetric(mstats, "jbs_netmerger_chunks_corrupt_total"), 0u);
    mergers[r]->Stop();
  }
  // Contention really happened and was observable on both sides.
  EXPECT_GT(SumMetric(bounded_supplier->metrics(), "jbs_supplier_shed_total"),
            0u);
  EXPECT_GT(pushbacks, 0u);
}

}  // namespace
}  // namespace jbs
