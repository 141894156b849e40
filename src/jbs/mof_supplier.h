// MOFSupplier (§III-B): the native server half of JBS. One per node,
// replacing the TaskTracker's HttpServlets. Incoming fetch requests are
// grouped by their target MOF and ordered by requested segment, then served
// by a pool of disk threads that each do the whole serve path for a batch:
// pop a round-robin batch (one group checked out per thread at a time, so
// replies for a (map, partition) stay in offset order), pread each chunk
// into a DataCache pooled buffer through an LRU fd cache, stamp its CRC,
// and hand the scatter-gather frame to the transport with SendAsync. The
// transport's event loop is the asynchronous network side: SendAsync never
// blocks, and the chunk bytes are never copied into the frame — the pooled
// buffer rides along as the frame's lease and returns to the DataCache only
// after the loop has put its last byte on the wire.
//
// Disk reads for request N+1 therefore overlap the network transmit of
// request N (Fig. 5), and DataCache exhaustion — which includes buffers
// still in flight on the socket — throttles the disk threads ahead of the
// network, where the stock HttpServlet serializes read and transmit per
// request (Fig. 4). With `pipelined = false` the supplier degrades to one
// disk thread serving one global FIFO a request at a time, the seed's
// serialized service, for the paper ablation.
#pragma once

#include <atomic>
#include <climits>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/fd_cache.h"
#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "jbs/index_cache.h"
#include "jbs/protocol.h"
#include "mapred/shuffle.h"
#include "transport/transport.h"

namespace jbs::shuffle {

class MofSupplier final : public mr::ShuffleServer {
 public:
  struct Options {
    bool operator==(const Options&) const = default;

    net::Transport* transport = nullptr;  // required
    size_t buffer_size = 128 * 1024;      // transport buffer (Fig. 11)
    size_t buffer_count = 64;             // DataCache = size * count
    size_t fd_cache_entries = 128;  // open MOF data-file descriptors
    bool chunk_crc = true;    // stamp every data chunk with a CRC32 the
                              // client can verify before merging
    // Negotiated wire compression: chunks served to clients that advertised
    // kCapWireCompression in their hello are LZSS-compressed by the disk
    // thread when at least `wire_compress_min_bytes` long and not
    // already segment-compressed on disk. The compressed bytes are memoized
    // in a fixed-size LRU (compress once per chunk across retransmits);
    // chunks whose compressed size exceeds `chunk * wire_compress_min_ratio`
    // are memoized as incompressible and ship raw. Off by default: the knob
    // trades supplier CPU for wire bytes, which only pays on compressible
    // workloads.
    bool wire_compress = false;
    uint64_t wire_compress_min_bytes = 4096;
    double wire_compress_min_ratio = 0.9;
    int prefetch_batch = 4;   // requests served per group per turn
    int prefetch_threads = 2; // disk-thread pool (pipelined mode only)
    bool pipelined = true;    // ablation: false degrades to serialized
                              // per-request service (HttpServlet-like)
    // Overload control (DESIGN.md §16). Admission is decided at frame
    // intake: a request that would push the pending-request count past
    // `admission_max_queue`, or the admitted-byte budget (sum of max_len
    // over requests accepted but not yet served) past
    // `admission_max_inflight_bytes`, is shed with a kErrorBusy reply
    // carrying a backlog-derived retry-after-ms hint, instead of queueing
    // unboundedly. 0 disables each bound (legacy behavior).
    size_t admission_max_queue = 0;
    uint64_t admission_max_inflight_bytes = 0;
    // DataCache occupancy watermark: once the fraction of pool buffers in
    // use reaches it, the disk threads switch from "block on Acquire"
    // (natural pipeline backpressure) to a bounded wait of
    // `admission_acquire_timeout_ms` that sheds the request with
    // kErrorBusy on expiry — saturation then pushes back to the merger
    // instead of parking disk threads indefinitely. 0 disables.
    double admission_datacache_watermark = 0;
    int admission_acquire_timeout_ms = 100;
    // Calibrated disk model for benchmarking on hardware whose storage is
    // far faster than the paper's spindles: each pread is charged
    // `disk_seek_ms` when it does not continue that file's previous read,
    // plus bytes / `disk_bytes_per_sec` of streaming time, in a token
    // bucket shared by all disk threads (one device). Both the serialized
    // and the pipelined serve path pay the model at the same choke point,
    // so comparisons isolate the access pattern and the overlap. 0/0 (the
    // default) disables the model entirely.
    double disk_bytes_per_sec = 0;
    double disk_seek_ms = 0;
    // Observability: a shared MetricsRegistry (e.g. the plugin's, so
    // client and server publish into one exposition), or nullptr for a
    // private one owned by this supplier. `instance` distinguishes
    // per-instance gauges when the registry is shared.
    MetricsRegistry* metrics = nullptr;
    std::string instance{};
  };

  explicit MofSupplier(Options options);
  ~MofSupplier() override;

  const Options& options() const { return options_; }

  Status Start() override;
  uint16_t port() const override;
  Status PublishMof(const mr::MofHandle& handle) override EXCLUDES(mu_);
  void Stop() override EXCLUDES(mu_);
  Stats stats() const override;

  /// The registry this supplier publishes into (owned or shared), with
  /// the component-owned gauges refreshed first, so one call reads live
  /// values.
  MetricsRegistry& metrics() const {
    RefreshGauges();
    return *metrics_;
  }

  /// Live request-group queues. Drained groups are erased eagerly, so this
  /// returns to 0 between bursts instead of growing with finished maps.
  size_t pending_group_count() const EXCLUDES(mu_);

 private:
  struct PendingRequest {
    net::ConnId conn;
    FetchRequest request;
    std::chrono::steady_clock::time_point enqueued;
    // Captured at enqueue time from the connection's hello so the disk
    // threads never touch the caps map: did this peer advertise
    // kCapWireCompression (and is the knob on)?
    bool compress_ok = false;
  };

  void OnFrame(net::ConnId conn, Frame frame) EXCLUDES(mu_);
  /// Drops queued requests from a departed connection so the disk threads
  /// don't read for a dead peer.
  void OnDisconnect(net::ConnId conn) EXCLUDES(mu_);
  void DiskLoop() EXCLUDES(mu_);
  /// Pops the next round-robin batch and checks its group out (busy) so no
  /// other disk thread serves the same MOF concurrently. Blocks until work
  /// exists or shutdown; false on shutdown. Drained group queues are erased.
  bool NextBatch(std::vector<PendingRequest>* batch, int* group_key)
      EXCLUDES(mu_);
  /// The whole serve path for one request: resolve, pread into a pooled
  /// buffer (or reuse the compress memo), stamp the CRC, SendAsync.
  void ServeOne(const PendingRequest& pending);
  /// Resolves the request to (handle, index entry, chunk length); on any
  /// validation failure sends the error reply and returns false.
  bool ResolveRequest(const PendingRequest& pending, mr::MofHandle* handle,
                      FetchDataHeader* header, uint64_t* disk_offset,
                      uint64_t* chunk) EXCLUDES(mu_);
  /// Hands a data frame to the transport and accounts the served chunk.
  void SendChunk(const PendingRequest& pending, Frame frame, uint64_t chunk,
                 uint64_t wire);
  void SendError(net::ConnId conn, const FetchRequest& request,
                 const std::string& message);
  /// Immediate kErrorBusy pushback for a shed request. Never blocks: the
  /// frame goes straight to the transport's async send queue, so shedding
  /// stays cheap exactly when the supplier is drowning.
  void SendBusy(net::ConnId conn, const FetchRequest& request,
                uint32_t retry_after_ms);
  /// Backlog-proportional retry hint carried in busy replies.
  uint32_t RetryAfterHintMs(size_t queued) const;
  Status PreadInto(const mr::MofHandle& handle, uint64_t offset,
                   std::span<uint8_t> out);
  /// Stamps `header` with the full wire CRC (kChunkHasCrc) over the
  /// chunk bytes just read, when enabled.
  void StampChunkCrc(FetchDataHeader* header,
                     std::span<const uint8_t> data) const;
  /// True if this chunk should be considered for wire compression: the
  /// peer advertised the capability, the chunk clears the min-size gate,
  /// and the segment isn't already block-compressed on disk.
  bool WireCompressEligible(const PendingRequest& pending,
                            const FetchDataHeader& header,
                            uint64_t chunk) const;
  /// Compressed-chunk memo probe. kCompressed sets `*payload`/`*crc`.
  enum class CompressMemo { kMiss, kCompressed, kIncompressible };
  CompressMemo LookupCompressed(
      const FetchRequest& request, uint64_t chunk,
      std::shared_ptr<const std::vector<uint8_t>>* payload, uint32_t* crc);
  /// Compresses a freshly read chunk, applies the min-ratio bail-out, and
  /// memoizes the outcome either way. Returns the compressed payload (and
  /// its CRC) on success, nullptr when the chunk ships raw.
  std::shared_ptr<const std::vector<uint8_t>> CompressAndMemoize(
      const FetchRequest& request, std::span<const uint8_t> data,
      uint32_t* crc);
  /// Sends a kChunkCompressed reply whose payload rides the memoized
  /// vector as the frame's lease (no copy).
  void SendCompressed(const PendingRequest& pending, FetchDataHeader header,
                      uint64_t chunk,
                      std::shared_ptr<const std::vector<uint8_t>> payload,
                      uint32_t payload_crc);
  /// Sleeps for the modeled disk time of a pread (see
  /// Options::disk_seek_ms); no-op when the model is disabled.
  void ChargeDiskModel(int fd, uint64_t offset, size_t bytes)
      EXCLUDES(disk_model_mu_);
  /// Labels shared by all of this supplier's metrics.
  MetricLabels BaseLabels() const;
  /// Re-exports component-owned values (cache hit counters, DataCache
  /// occupancy) as push gauges. Called from metrics() and Stop(), so
  /// dumps taken after shutdown still carry final values.
  void RefreshGauges() const;

  Options options_;
  std::unique_ptr<net::ServerEndpoint> endpoint_;
  BufferPool data_cache_;
  IndexCache index_cache_;

  // Chunk memo key: (map, partition, offset, len) of one served chunk.
  // A packed POD — a per-lookup std::string key would be four integer
  // formats plus a heap allocation on every served chunk.
  struct CrcKey {
    int32_t map_task = 0;
    int32_t partition = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    bool operator==(const CrcKey&) const = default;
  };
  struct CrcKeyHash {
    using is_transparent = void;
    size_t operator()(const CrcKey& key) const {
      // splitmix64-style finalizer over the packed fields; cheap and
      // well-distributed for the sequential offsets a fetch sweep emits.
      auto mix = [](uint64_t x) {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
      };
      const uint64_t a =
          (static_cast<uint64_t>(static_cast<uint32_t>(key.map_task)) << 32) |
          static_cast<uint32_t>(key.partition);
      return static_cast<size_t>(
          mix(mix(a) ^ mix(key.offset) ^ (mix(key.length) << 1)));
    }
  };

  // Compressed-chunk memo. `data == nullptr`
  // memoizes "didn't compress well enough — ship raw" so the bail-out is
  // also paid once per chunk, not per retransmit.
  struct CompressedChunk {
    std::shared_ptr<const std::vector<uint8_t>> data;
    uint32_t crc = 0;  // Crc32 over *data (the compressed bytes)
  };
  MetricCounter* compress_cache_hits_c_ = nullptr;
  MetricCounter* compress_cache_misses_c_ = nullptr;
  MetricCounter* chunks_compressed_c_ = nullptr;
  MetricCounter* compress_bailouts_c_ = nullptr;
  MetricCounter* wire_bytes_logical_c_ = nullptr;
  MetricCounter* wire_bytes_wire_c_ = nullptr;
  MetricHistogram* compress_ratio_h_ = nullptr;

  FdCache fd_cache_;
  // Per-group checkout already keeps two disk threads off the same chunk;
  // the lock only guards the LRU's own structure.
  Mutex compress_mu_;
  LruCache<CrcKey, CompressedChunk, CrcKeyHash> compress_cache_
      GUARDED_BY(compress_mu_);
  // Per-connection capabilities from the hello frame, erased on
  // disconnect. Written from the transport's loop threads.
  Mutex caps_mu_;
  std::map<net::ConnId, uint32_t> conn_caps_ GUARDED_BY(caps_mu_);

  // Observability plumbing: pointers into metrics_ (never null; falls back
  // to the owned registry when options don't share one).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  // Counter values at construction: the registry may be shared with
  // earlier suppliers, and stats() reports this supplier's work only.
  Stats stats_base_;
  MetricCounter* requests_c_ = nullptr;
  MetricCounter* bytes_served_c_ = nullptr;
  MetricCounter* batches_c_ = nullptr;
  MetricCounter* group_switches_c_ = nullptr;
  MetricCounter* errors_c_ = nullptr;
  MetricCounter* disconnect_purges_c_ = nullptr;
  MetricHistogram* request_latency_ms_h_ = nullptr;
  // Overload-control series: jbs_supplier_shed_total broken out by the
  // admission decision that shed the request (queue / inflight_bytes /
  // datacache), plus a queue-depth histogram observed at every intake.
  MetricCounter* shed_queue_c_ = nullptr;
  MetricCounter* shed_inflight_c_ = nullptr;
  MetricCounter* shed_datacache_c_ = nullptr;
  MetricHistogram* queue_depth_h_ = nullptr;

  mutable Mutex mu_;
  CondVar work_cv_;
  // map_task -> handle
  std::map<int, mr::MofHandle> published_ GUARDED_BY(mu_);
  // Request grouping: one queue per target MOF, requests within a group
  // ordered by intended segment offset via ordered insertion. Queues are
  // erased as they drain (and recreated on demand), so long-running
  // suppliers don't accumulate a map entry per finished map task.
  std::map<int, std::deque<PendingRequest>> groups_ GUARDED_BY(mu_);
  // Groups checked out by a disk thread.
  std::set<int> busy_groups_ GUARDED_BY(mu_);
  // Requests admitted (sitting in groups_) but not yet popped by a disk
  // thread — the admission queue depth.
  size_t queued_requests_ GUARDED_BY(mu_) = 0;
  // Admission byte budget: sum of max_len over requests admitted but not
  // yet served. Charged at intake, released when a disk thread finishes
  // the request (any outcome) or a disconnect purges it.
  std::atomic<uint64_t> admitted_bytes_{0};
  // Round-robin pointer (last group served).
  int rr_last_ GUARDED_BY(mu_) = INT_MIN;
  bool stopping_ GUARDED_BY(mu_) = false;

  // group_switches detection only; all counters live in the registry.
  // A relaxed exchange replaces the old dedicated mutex: detection is a
  // single compare-and-swap of the last MOF id, never a critical section.
  std::atomic<int> last_served_mof_{-1};

  // Calibrated-disk model state: a token bucket serializing modeled disk
  // time plus per-descriptor stream positions for seek detection.
  Mutex disk_model_mu_;
  std::chrono::steady_clock::time_point disk_available_at_
      GUARDED_BY(disk_model_mu_){};
  // fd -> next sequential offset
  std::map<int, uint64_t> disk_stream_pos_ GUARDED_BY(disk_model_mu_);

  std::vector<std::thread> disk_threads_;
};

}  // namespace jbs::shuffle
