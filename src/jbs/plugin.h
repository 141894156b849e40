// JBS as a transparent plug-in (§III-A): wires a MofSupplier per node and a
// NetMerger per node into the engine's ShufflePlugin boundary, over either
// the TCP or the SoftRdma transport. Invoked "based on a runtime user
// parameter" — here, a JbsOptions, which OptionsFromConfig can build from
// Config keys; when not loaded the engine runs whatever other plugin it was
// given, unchanged.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "mapred/shuffle.h"
#include "transport/rdma_transport.h"
#include "transport/transport.h"

namespace jbs::shuffle {

enum class TransportKind { kTcp, kRdma };

struct JbsOptions {
  bool operator==(const JbsOptions&) const = default;

  TransportKind transport = TransportKind::kTcp;
  // Per-connection inbound frame cap enforced by both transports against
  // the untrusted length prefix.
  size_t max_frame_bytes = net::TcpTransportOptions{}.max_frame_bytes;
  // Every other knob lives in its component's Options and is handed over
  // as is. The plugin sets only the per-node wiring (transport, metrics,
  // trace, instance) and derives four values from the supplier's fields:
  // merger.chunk_size (buffer_size minus the data header), merger.verify_crc
  // (chunk_crc), merger.advertise_wire_compress (wire_compress) and the
  // RDMA transport's buffer size (buffer_size).
  MofSupplier::Options supplier;
  NetMerger::Options merger;
};

class JbsShufflePlugin final : public mr::ShufflePlugin {
 public:
  using Options = JbsOptions;

  explicit JbsShufflePlugin(Options options = Options());

  /// Reads the jbs.* keys (common/config.h) from a Config; an unset key
  /// keeps its field's default. A malformed or out-of-range value, or an
  /// unknown jbs.* key, fails with InvalidArgument naming the key.
  static StatusOr<Options> OptionsFromConfig(const Config& conf);

  /// Every jbs.* key OptionsFromConfig accepts.
  static std::vector<std::string> ConfigKeys();

  std::string name() const override;
  std::unique_ptr<mr::ShuffleServer> CreateServer(int node,
                                                  const Config& conf) override;
  std::unique_ptr<mr::ShuffleClient> CreateClient(int node,
                                                  const Config& conf) override;

  net::Transport* transport() { return transport_.get(); }

  /// Unified observability: every supplier and merger this plugin creates
  /// publishes into this registry (gauges carry an `instance="nodeN"`
  /// label) and this per-fetch trace ring, so one DumpText() shows the
  /// whole job's shuffle.
  MetricsRegistry& metrics() { return metrics_; }
  TraceRecorder& trace() { return trace_; }

 private:
  Options options_;
  MetricsRegistry metrics_;
  TraceRecorder trace_{16384};
  std::unique_ptr<net::Transport> transport_;
};

}  // namespace jbs::shuffle
