// Ablation bench for the design choices called out in DESIGN.md §6:
// pipelined prefetching, connection consolidation, round-robin injection,
// and DataCache size — at cluster scale (model) and in real mode (actual
// NetMerger/MofSupplier statistics over loopback).
#include <filesystem>

#include "bench/bench_util.h"
#include "cluster/job_model.h"
#include "jbs/mof_supplier.h"
#include "jbs/net_merger.h"
#include "mapred/ifile.h"
#include "transport/transport.h"

using namespace jbs;
using namespace jbs::cluster;

namespace {

constexpr uint64_t kGB = 1ull << 30;

void ClusterScaleAblation() {
  bench::PrintHeader("Ablation (cluster model): Terasort 256GB, JBS-IPoIB",
                     "each JBS mechanism contributes");
  bench::PrintRow({"configuration", "time", "vs full"}, 34);
  ClusterConfig full;
  full.test_case = JbsOnIpoib();
  const double base =
      SimulateJob(full, wl::Workload::kTerasort, 256 * kGB).total_sec;
  bench::PrintRow({"full JBS", bench::Fmt(base, "%.0fs"), "-"}, 34);

  auto run = [&](const std::string& name, auto mutate) {
    ClusterConfig config = full;
    mutate(config);
    const double t =
        SimulateJob(config, wl::Workload::kTerasort, 256 * kGB).total_sec;
    bench::PrintRow({name, bench::Fmt(t, "%.0fs"),
                     bench::Fmt((t - base) / base * 100, "%+.1f%%")},
                    34);
  };
  run("no pipelined prefetching",
      [](ClusterConfig& c) { c.jbs_pipelined_prefetch = false; });
  run("no connection consolidation",
      [](ClusterConfig& c) { c.jbs_consolidation = false; });
  run("neither", [](ClusterConfig& c) {
    c.jbs_pipelined_prefetch = false;
    c.jbs_consolidation = false;
  });
  run("DataCache 1MB (few buffers)",
      [](ClusterConfig& c) { c.cost.datacache_pool_bytes = 1 << 20; });
}

/// Real-mode ablation: fetch a workload of segments through an actual
/// MofSupplier with NetMerger variants and report connection counts and
/// node switching behaviour.
void RealModeAblation() {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("jbs_ablation_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  auto transport = net::MakeTcpTransport();

  // 4 "nodes", 4 MOFs each, 1 partition, ~1MB segments.
  std::vector<mr::MofLocation> locations;
  std::vector<std::unique_ptr<shuffle::MofSupplier>> suppliers;
  int map_task = 0;
  for (int node = 0; node < 4; ++node) {
    shuffle::MofSupplier::Options options;
    options.transport = transport.get();
    options.buffer_size = 128 * 1024;
    auto supplier = std::make_unique<shuffle::MofSupplier>(options);
    if (!supplier->Start().ok()) return;
    for (int m = 0; m < 4; ++m, ++map_task) {
      mr::MofWriter writer(dir / ("mof_" + std::to_string(map_task)));
      mr::IFileWriter segment;
      for (int r = 0; r < 4000; ++r) {
        segment.Append("key_" + std::to_string(r), std::string(200, 'v'));
      }
      const uint64_t records = segment.records();
      (void)writer.AppendSegment(segment.Finish(), records);
      auto handle = writer.Finish(map_task, node);
      if (handle.ok()) (void)supplier->PublishMof(*handle);
      locations.push_back({map_task, node, "127.0.0.1", supplier->port()});
    }
    suppliers.push_back(std::move(supplier));
  }

  bench::PrintHeader("Ablation (real loopback): 16 segments from 4 nodes",
                     "consolidation keeps connections == nodes; round-robin "
                     "injection balances across nodes");
  bench::PrintRow({"configuration", "connections", "node-switches",
                   "bytes-fetched"},
                  30);
  auto run = [&](const std::string& name, bool consolidate,
                 bool round_robin) {
    shuffle::NetMerger::Options options;
    options.transport = transport.get();
    options.consolidate = consolidate;
    options.round_robin = round_robin;
    options.data_threads = 1;  // make the injection order observable
    shuffle::NetMerger merger(options);
    auto stream = merger.FetchAndMerge(0, locations);
    if (!stream.ok()) return;
    mr::Record record;
    while ((*stream)->Next(&record)) {
    }
    MetricsRegistry& metrics = merger.metrics();
    const MetricLabels labels{{"client", "netmerger"}};
    const auto count = [&](const char* series) {
      return std::to_string(metrics.GetCounter(series, labels)->value());
    };
    bench::PrintRow({name, count("shuffle_connections_opened_total"),
                     count("jbs_netmerger_node_switches_total"),
                     count("shuffle_bytes_fetched_total")},
                    30);
    merger.Stop();
  };
  run("consolidated + round-robin", true, true);
  run("consolidated + FIFO", true, false);
  run("per-fetch connections", false, true);

  suppliers.clear();
  fs::remove_all(dir);
}

}  // namespace

int main() {
  ClusterScaleAblation();
  RealModeAblation();
  return 0;
}
