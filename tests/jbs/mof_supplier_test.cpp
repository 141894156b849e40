// Integration tests of the MOFSupplier server against a hand-driven client
// speaking the fetch protocol directly.
#include "jbs/mof_supplier.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

#include "common/bytes.h"
#include "common/rng.h"
#include "jbs/protocol.h"
#include "mapred/ifile.h"
#include "metric_sum.h"
#include "transport/transport.h"

namespace jbs::shuffle {
namespace {

namespace fs = std::filesystem;

/// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  return static_cast<size_t>(std::distance(
      fs::directory_iterator("/proc/self/task"), fs::directory_iterator()));
}

class MofSupplierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("supplier_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    transport_ = net::MakeTcpTransport();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes a MOF with `partitions` segments of `records_per_segment`.
  mr::MofHandle MakeMof(int map_task, int partitions,
                        int records_per_segment) {
    mr::MofWriter writer(dir_ / ("mof_" + std::to_string(map_task)));
    for (int p = 0; p < partitions; ++p) {
      mr::IFileWriter segment;
      for (int r = 0; r < records_per_segment; ++r) {
        segment.Append("key_" + std::to_string(p) + "_" + std::to_string(r),
                       std::string(100, static_cast<char>('a' + p)));
      }
      const uint64_t n = segment.records();
      EXPECT_TRUE(writer.AppendSegment(segment.Finish(), n).ok());
    }
    auto handle = writer.Finish(map_task, 0);
    EXPECT_TRUE(handle.ok());
    return *handle;
  }

  MofSupplier MakeSupplier(size_t buffer_size = 4096, bool pipelined = true) {
    MofSupplier::Options options;
    options.transport = transport_.get();
    options.buffer_size = buffer_size;
    options.buffer_count = 8;
    options.pipelined = pipelined;
    return MofSupplier(options);
  }

  /// Full chunked fetch of one segment over one connection. Every chunk
  /// stamped with kChunkHasCrc must carry the wire CRC of its header and
  /// the bytes it delivered.
  StatusOr<std::vector<uint8_t>> Fetch(net::Connection& conn, int map_task,
                                       int partition, uint32_t chunk) {
    std::vector<uint8_t> segment;
    uint64_t offset = 0, total = 0;
    bool first = true;
    do {
      FetchRequest request{map_task, partition, offset, chunk};
      JBS_RETURN_IF_ERROR(conn.Send(EncodeRequest(request)));
      auto reply = conn.Receive();
      JBS_RETURN_IF_ERROR(reply.status());
      if (reply->type == kFetchError) {
        auto error = DecodeError(*reply);
        return IoError(error ? error->message : "?");
      }
      std::span<const uint8_t> data;
      auto header = DecodeData(*reply, &data);
      if (!header) return IoError("bad frame");
      if ((header->flags & kChunkHasCrc) != 0 &&
          ChunkWireCrc(*header, Crc32(data)) != header->crc32) {
        return IoError("chunk CRC mismatch at offset " +
                       std::to_string(header->offset));
      }
      total = header->segment_total;
      segment.insert(segment.end(), data.begin(), data.end());
      offset += data.size();
      first = false;
    } while (first || offset < total);
    return segment;
  }

  fs::path dir_;
  std::unique_ptr<net::Transport> transport_;
};

TEST_F(MofSupplierTest, ServesWholeSegmentInChunks) {
  auto supplier = MakeSupplier(/*buffer_size=*/1024);
  ASSERT_TRUE(supplier.Start().ok());
  auto handle = MakeMof(0, 2, 50);
  ASSERT_TRUE(supplier.PublishMof(handle).ok());

  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  auto segment = Fetch(**conn, 0, 1, 900);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();

  // Compare against a direct disk read.
  auto reader = mr::MofReader::Open(handle);
  ASSERT_TRUE(reader.ok());
  std::vector<uint8_t> expected;
  ASSERT_TRUE(reader->ReadSegment(1, expected).ok());
  EXPECT_EQ(*segment, expected);
  // chunked
  EXPECT_GT(SumMetric(supplier.metrics(), "shuffle_requests_total"), 1u);
  supplier.Stop();
}

TEST_F(MofSupplierTest, ContentIsValidIFile) {
  auto supplier = MakeSupplier();
  ASSERT_TRUE(supplier.Start().ok());
  ASSERT_TRUE(supplier.PublishMof(MakeMof(5, 1, 20)).ok());
  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  auto segment = Fetch(**conn, 5, 0, 2048);
  ASSERT_TRUE(segment.ok());
  mr::IFileReader records(*segment);
  ASSERT_TRUE(records.VerifyChecksum().ok());
  mr::Record record;
  int count = 0;
  while (records.Next(&record)) ++count;
  EXPECT_TRUE(records.status().ok());
  EXPECT_EQ(count, 20);
  supplier.Stop();
}

TEST_F(MofSupplierTest, UnknownMofReturnsError) {
  auto supplier = MakeSupplier();
  ASSERT_TRUE(supplier.Start().ok());
  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->Send(EncodeRequest({99, 0, 0, 1024})).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, kFetchError);
  supplier.Stop();
}

TEST_F(MofSupplierTest, PartitionOutOfRangeReturnsError) {
  auto supplier = MakeSupplier();
  ASSERT_TRUE(supplier.Start().ok());
  ASSERT_TRUE(supplier.PublishMof(MakeMof(1, 2, 5)).ok());
  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->Send(EncodeRequest({1, 7, 0, 1024})).ok());
  auto reply = (*conn)->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, kFetchError);
  supplier.Stop();
}

TEST_F(MofSupplierTest, EmptySegmentFetchable) {
  auto supplier = MakeSupplier();
  ASSERT_TRUE(supplier.Start().ok());
  ASSERT_TRUE(supplier.PublishMof(MakeMof(2, 1, 0)).ok());
  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  auto segment = Fetch(**conn, 2, 0, 1024);
  ASSERT_TRUE(segment.ok());
  // An "empty" IFile segment still has the EOF marker + checksum.
  mr::IFileReader records(*segment);
  ASSERT_TRUE(records.VerifyChecksum().ok());
  mr::Record record;
  EXPECT_FALSE(records.Next(&record));
  EXPECT_TRUE(records.status().ok());
  supplier.Stop();
}

TEST_F(MofSupplierTest, IndexCacheHitsOnRepeatedFetches) {
  auto supplier = MakeSupplier();
  ASSERT_TRUE(supplier.Start().ok());
  ASSERT_TRUE(supplier.PublishMof(MakeMof(3, 4, 10)).ok());
  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  // Two sweeps over the same segments: the second re-serves every chunk,
  // and Fetch checks each re-served chunk's CRC as well.
  std::vector<std::vector<uint8_t>> first;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int p = 0; p < 4; ++p) {
      auto segment = Fetch(**conn, 3, p, 64 * 1024);
      ASSERT_TRUE(segment.ok()) << segment.status().ToString();
      if (sweep == 0) {
        first.push_back(*segment);
      } else {
        EXPECT_EQ(*segment, first[static_cast<size_t>(p)]);
      }
    }
  }
  const MetricsRegistry& stats = supplier.metrics();
  EXPECT_EQ(SumMetric(stats, "jbs_mofsupplier_indexcache_misses"), 1u);
  EXPECT_GE(SumMetric(stats, "jbs_mofsupplier_indexcache_hits"), 7u);
  supplier.Stop();
}

TEST_F(MofSupplierTest, ConcurrentClientsAllServed) {
  auto supplier = MakeSupplier(/*buffer_size=*/2048);
  ASSERT_TRUE(supplier.Start().ok());
  constexpr int kMofs = 4;
  std::vector<std::vector<uint8_t>> expected(kMofs);
  for (int m = 0; m < kMofs; ++m) {
    auto handle = MakeMof(m, 1, 40);
    ASSERT_TRUE(supplier.PublishMof(handle).ok());
    auto reader = mr::MofReader::Open(handle);
    ASSERT_TRUE(reader->ReadSegment(0, expected[static_cast<size_t>(m)]).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kMofs; ++c) {
    clients.emplace_back([&, c] {
      auto conn = transport_->Connect("127.0.0.1", supplier.port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      auto segment = Fetch(**conn, c, 0, 1500);
      if (!segment.ok() || *segment != expected[static_cast<size_t>(c)]) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(SumMetric(supplier.metrics(), "jbs_mofsupplier_batches_total"), 1u);
  supplier.Stop();
}

TEST_F(MofSupplierTest, SixConnectionsRefetchByteIdenticalWithChunkCrc) {
  // Six concurrent connections each fetch their MOF twice with chunk CRCs
  // on: every reply must stay byte-identical and ordered per connection,
  // and every chunk must pass its CRC check on both rounds.
  MofSupplier::Options options;
  options.transport = transport_.get();
  options.buffer_size = 2048;
  options.buffer_count = 8;
  options.chunk_crc = true;
  MofSupplier supplier(options);
  ASSERT_TRUE(supplier.Start().ok());
  constexpr int kMofs = 6;
  std::vector<std::vector<uint8_t>> expected(kMofs);
  for (int m = 0; m < kMofs; ++m) {
    auto handle = MakeMof(m, 1, 40);
    ASSERT_TRUE(supplier.PublishMof(handle).ok());
    auto reader = mr::MofReader::Open(handle);
    ASSERT_TRUE(reader->ReadSegment(0, expected[static_cast<size_t>(m)]).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kMofs; ++c) {
    clients.emplace_back([&, c] {
      auto conn = transport_->Connect("127.0.0.1", supplier.port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      // Fetch twice so every chunk is re-served (and its CRC re-checked).
      for (int round = 0; round < 2; ++round) {
        auto segment = Fetch(**conn, c, 0, 1500);
        if (!segment.ok() || *segment != expected[static_cast<size_t>(c)]) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(SumMetric(supplier.metrics(), "shuffle_bytes_served_total"), 0u);
  supplier.Stop();
}

TEST_F(MofSupplierTest, ServePathCopiesZeroPayloadBytes) {
  // The zero-copy contract end to end: chunk bytes go pread -> pooled
  // buffer -> sendmsg with no user-space payload copy in between.
  auto supplier = MakeSupplier(/*buffer_size=*/4096);
  ASSERT_TRUE(supplier.Start().ok());
  ASSERT_TRUE(supplier.PublishMof(MakeMof(0, 1, 60)).ok());
  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  const uint64_t copied_before = PayloadCopyBytes();
  auto segment = Fetch(**conn, 0, 0, 2048);
  ASSERT_TRUE(segment.ok());
  EXPECT_GT(segment->size(), 4096u);  // several chunks actually moved
  EXPECT_EQ(PayloadCopyBytes(), copied_before);
  supplier.Stop();
}

TEST_F(MofSupplierTest, SerializedModeStillCorrect) {
  auto supplier = MakeSupplier(4096, /*pipelined=*/false);
  ASSERT_TRUE(supplier.Start().ok());
  auto handle = MakeMof(0, 1, 30);
  ASSERT_TRUE(supplier.PublishMof(handle).ok());
  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  auto segment = Fetch(**conn, 0, 0, 64 * 1024);
  ASSERT_TRUE(segment.ok());
  auto reader = mr::MofReader::Open(handle);
  std::vector<uint8_t> expected;
  ASSERT_TRUE(reader->ReadSegment(0, expected).ok());
  EXPECT_EQ(*segment, expected);
  supplier.Stop();
}

TEST_F(MofSupplierTest, RejectsBufferTooSmallForChunkHeader) {
  // buffer_size - kDataHeaderSize is the chunk bound; at or below the
  // header size it would underflow and let a remote max_len overrun the
  // pooled buffer.
  for (const size_t buffer_size : {size_t{16}, kDataHeaderSize}) {
    auto supplier = MakeSupplier(buffer_size);
    const Status st = supplier.Start();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "buffer_size " << buffer_size << ": " << st.ToString();
  }
  // A zero count would park every disk thread in Acquire, and 2^63 * 2
  // wraps size_t to a zero-byte arena. Both are refused before any thread
  // starts.
  const size_t half = (std::numeric_limits<size_t>::max() >> 1) + 1;
  for (const auto& [buffer_size, buffer_count] :
       {std::pair<size_t, size_t>{4096, 0}, {half, 2}}) {
    MofSupplier::Options options;
    options.transport = transport_.get();
    options.buffer_size = buffer_size;
    options.buffer_count = buffer_count;
    MofSupplier supplier(options);
    const size_t threads_before = ThreadCount();
    const Status st = supplier.Start();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << buffer_size << " x " << buffer_count << ": " << st.ToString();
    EXPECT_EQ(ThreadCount(), threads_before);
  }
}

TEST_F(MofSupplierTest, RejectsDataCacheLargerThanPhysicalMemory) {
  // 1 TiB x 1024 fits size_t but no host's memory. The constructor must
  // not attempt the arena (new[] would throw std::bad_alloc out of it);
  // Start() reports the sizing instead.
  MofSupplier::Options options;
  options.transport = transport_.get();
  options.buffer_size = size_t{1} << 40;
  options.buffer_count = 1024;
  MofSupplier supplier(options);
  const size_t threads_before = ThreadCount();
  const Status st = supplier.Start();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(ThreadCount(), threads_before);
}

TEST_F(MofSupplierTest, StopUnderLoadJoinsThreadsAndReturnsBuffers) {
  // A client that queues far more chunk requests than there are DataCache
  // buffers and never reads: socket buffers fill, unsent frames pin every
  // pooled buffer, and a disk thread parks in Acquire. Stop must still
  // join every supplier thread and get every buffer back.
  constexpr size_t kBufferSize = 64 * 1024;
  constexpr size_t kBuffers = 8;
  constexpr int kPrefetchThreads = 3;
  MofSupplier::Options options;
  options.transport = transport_.get();
  options.buffer_size = kBufferSize;
  options.buffer_count = kBuffers;
  options.prefetch_threads = kPrefetchThreads;
  MofSupplier supplier(options);
  const size_t threads_before = ThreadCount();
  ASSERT_TRUE(supplier.Start().ok());
  // The disk threads plus the transport's single event loop; no other
  // thread serves a request.
  EXPECT_EQ(ThreadCount(), threads_before + kPrefetchThreads + 1);
  ASSERT_TRUE(supplier.PublishMof(MakeMof(0, 1, 1000)).ok());

  auto conn = transport_->Connect("127.0.0.1", supplier.port());
  ASSERT_TRUE(conn.ok());
  // ~26 MB of replies: well past loopback socket buffering.
  for (int i = 0; i < 400; ++i) {
    FetchRequest request{0, 0, 0, static_cast<uint32_t>(kBufferSize)};
    ASSERT_TRUE((*conn)->Send(EncodeRequest(request)).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    const MetricsRegistry& metrics = supplier.metrics();  // live gauges
    const uint64_t in_use =
        SumMetric(metrics, "jbs_mofsupplier_datacache_buffers_in_use");
    const uint64_t waiters = SumMetric(metrics, "buffer_pool_waiters");
    if (in_use == kBuffers && waiters >= 1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "DataCache never saturated: in_use " << in_use << ", waiters "
        << waiters;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  supplier.Stop();
  EXPECT_EQ(ThreadCount(), threads_before);
  EXPECT_EQ(SumMetric(supplier.metrics(),
                      "jbs_mofsupplier_datacache_buffers_in_use"),
            0u);
}

}  // namespace
}  // namespace jbs::shuffle
