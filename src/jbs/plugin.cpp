#include "jbs/plugin.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <optional>
#include <set>

#include "common/buffer_pool.h"

namespace jbs::shuffle {

namespace {

constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();

/// Parses all of `text` as a T, or nothing.
template <typename T>
std::optional<T> Parse(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Reads jbs.* keys from a Config into option fields. A field keeps its
/// current value when its key is unset, so each default lives only in its
/// struct. The first malformed or out-of-range value becomes the error;
/// Finish() also rejects any set jbs.* key that no read asked for.
class KnobReader {
 public:
  explicit KnobReader(const Config& conf) : conf_(conf) {}

  /// Hands the value of `key`, if set, to `parse`, which stores it and
  /// returns true, or returns false to reject it as not `want`.
  template <typename ParseFn>
  void Read(const char* key, const std::string& want, ParseFn parse) {
    keys_.insert(key);
    const auto text = conf_.Get(key);
    if (text && !parse(*text) && status_.ok()) {
      status_ = InvalidArgument(std::string(key) + "=" + *text + ": want " +
                                want);
    }
  }

  /// An integer in [min, max], or a byte size such as "64KB" with
  /// `parse = Config::ParseSize`.
  template <typename T>
  void Int(const char* key, T& field, int64_t min, int64_t max = kNoMax,
           std::optional<int64_t> (*parse)(const std::string&) =
               Parse<int64_t>) {
    max = static_cast<int64_t>(
        std::min<uint64_t>(max, std::numeric_limits<T>::max()));
    const std::string want = "a value in [" + std::to_string(min) + ", " +
                             std::to_string(max) + "]";
    Read(key, want, [&](const std::string& text) {
      const auto value = parse(text);
      if (!value || *value < min || *value > max) return false;
      field = static_cast<T>(*value);
      return true;
    });
  }

  template <typename T>
  void Size(const char* key, T& field, int64_t min, int64_t max = kNoMax) {
    Int(key, field, min, max, Config::ParseSize);
  }

  void Ratio(const char* key, double& field) {
    Read(key, "a number in [0, 1]", [&](const std::string& text) {
      const auto value = Parse<double>(text);
      if (!value || !(*value >= 0 && *value <= 1)) return false;
      field = *value;
      return true;
    });
  }

  /// Config::ParseBool's spellings; anything else is rejected.
  void Bool(const char* key, bool& field) {
    Read(key, "true or false", [&](const std::string& text) {
      const auto value = Config::ParseBool(text);
      if (value) field = *value;
      return value.has_value();
    });
  }

  /// Rejects values that pass one by one but not together.
  void Check(bool ok, const std::string& message) {
    if (!ok && status_.ok()) status_ = InvalidArgument(message);
  }

  Status Finish() {
    for (const auto& [key, value] : conf_.entries()) {
      if (key.rfind("jbs.", 0) == 0 && keys_.count(key) == 0 &&
          status_.ok()) {
        status_ = InvalidArgument("unknown config key " + key);
      }
    }
    return status_;
  }

  const std::set<std::string>& keys() const { return keys_; }

 private:
  const Config& conf_;
  std::set<std::string> keys_;
  Status status_;
};

// Thread counts above this are rejected rather than started.
constexpr int kMaxThreads = 64;

void ReadKnobs(KnobReader& r, JbsOptions& o) {
  MofSupplier::Options& s = o.supplier;
  NetMerger::Options& m = o.merger;
  r.Read(conf::kTransport, "tcp or rdma", [&](const std::string& text) {
    o.transport = text == "rdma" ? TransportKind::kRdma : TransportKind::kTcp;
    return text == "tcp" || text == "rdma";
  });
  r.Size(conf::kTransportBufferSize, s.buffer_size,
         static_cast<int64_t>(kDataHeaderSize) + 1);
  r.Int(conf::kTransportBufferCount, s.buffer_count, 1);
  r.Check(BufferPool::ArenaBytes(s.buffer_size, s.buffer_count).has_value(),
          std::string(conf::kTransportBufferSize) + " x " +
              conf::kTransportBufferCount +
              ": the DataCache arena must fit in physical memory");
  r.Size(conf::kMaxFrameBytes, o.max_frame_bytes, 1,
         std::numeric_limits<uint32_t>::max());
  r.Bool(conf::kPipelined, s.pipelined);
  r.Int(conf::kPrefetchBatch, s.prefetch_batch, 1);
  r.Int(conf::kPrefetchThreads, s.prefetch_threads, 1, kMaxThreads);
  r.Int(conf::kFdCacheEntries, s.fd_cache_entries, 1);
  r.Int(conf::kNetMergerDataThreads, m.data_threads, 1, kMaxThreads);
  r.Int(conf::kFetchWindow, m.fetch_window, 1);
  r.Bool(conf::kConsolidate, m.consolidate);
  r.Bool(conf::kRoundRobin, m.round_robin);
  r.Int(conf::kFetchDeadlineMs, m.fetch_deadline_ms, 0);
  r.Int(conf::kConnectTimeoutMs, m.connect_timeout_ms, 0);
  r.Int(conf::kChunkTimeoutMs, m.chunk_timeout_ms, 0);
  r.Int(conf::kConnectionIdleMs, m.connection_idle_ms, 0);
  r.Bool(conf::kVerifyCrc, s.chunk_crc);
  r.Int(conf::kHealthSuspectAfter, m.health.suspect_after, 1);
  r.Int(conf::kHealthPenalizeAfter, m.health.penalize_after, 0);
  r.Int(conf::kHealthPenaltyMs, m.health.penalty_ms, 0);
  r.Int(conf::kHealthPenaltyMaxMs, m.health.penalty_max_ms, 0);
  r.Bool(conf::kWireCompressEnabled, s.wire_compress);
  r.Size(conf::kWireCompressMinBytes, s.wire_compress_min_bytes, 0);
  r.Ratio(conf::kWireCompressMinRatio, s.wire_compress_min_ratio);
  r.Int(conf::kAdmissionMaxQueue, s.admission_max_queue, 0);
  r.Size(conf::kAdmissionMaxInflightBytes, s.admission_max_inflight_bytes, 0);
  r.Ratio(conf::kAdmissionDataCacheWatermark,
          s.admission_datacache_watermark);
  r.Int(conf::kAdmissionAcquireTimeoutMs, s.admission_acquire_timeout_ms, 1);
  r.Int(conf::kPushbackRetryBudget, m.pushback_retry_budget, 0);
}

}  // namespace

JbsShufflePlugin::JbsShufflePlugin(Options options) : options_(options) {
  // The merger asks for chunks that fill one supplier buffer, checks the
  // CRCs the supplier stamps, and advertises compression the supplier
  // would use.
  options_.merger.chunk_size = options_.supplier.buffer_size - kDataHeaderSize;
  options_.merger.verify_crc = options_.supplier.chunk_crc;
  options_.merger.advertise_wire_compress = options_.supplier.wire_compress;
  switch (options_.transport) {
    case TransportKind::kTcp: {
      net::TcpTransportOptions topts;
      topts.max_frame_bytes = options_.max_frame_bytes;
      transport_ = net::MakeTcpTransport(topts);
      break;
    }
    case TransportKind::kRdma: {
      net::RdmaTransportOptions ropts;
      ropts.buffer_size = options_.supplier.buffer_size;
      ropts.max_message_bytes = options_.max_frame_bytes;
      transport_ = net::MakeSoftRdmaTransport(ropts);
      break;
    }
  }
}

StatusOr<JbsShufflePlugin::Options> JbsShufflePlugin::OptionsFromConfig(
    const Config& conf) {
  Options options;
  KnobReader reader(conf);
  ReadKnobs(reader, options);
  JBS_RETURN_IF_ERROR(reader.Finish());
  return options;
}

std::vector<std::string> JbsShufflePlugin::ConfigKeys() {
  const Config empty;
  KnobReader reader(empty);
  Options options;
  ReadKnobs(reader, options);
  return {reader.keys().begin(), reader.keys().end()};
}

std::string JbsShufflePlugin::name() const {
  return options_.transport == TransportKind::kRdma ? "jbs-rdma" : "jbs-tcp";
}

std::unique_ptr<mr::ShuffleServer> JbsShufflePlugin::CreateServer(
    int node, const Config& /*conf*/) {
  MofSupplier::Options sopts = options_.supplier;
  sopts.transport = transport_.get();
  sopts.metrics = &metrics_;
  sopts.instance = "node" + std::to_string(node);
  return std::make_unique<MofSupplier>(sopts);
}

std::unique_ptr<mr::ShuffleClient> JbsShufflePlugin::CreateClient(
    int node, const Config& /*conf*/) {
  NetMerger::Options nopts = options_.merger;
  nopts.transport = transport_.get();
  nopts.metrics = &metrics_;
  nopts.trace = &trace_;
  nopts.instance = "node" + std::to_string(node);
  return std::make_unique<NetMerger>(nopts);
}

}  // namespace jbs::shuffle
