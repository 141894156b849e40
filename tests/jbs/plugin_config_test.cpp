// The config path of the JBS plug-in: every jbs.* key lands in the option
// field the plugin hands its supplier, merger or transport; bad values and
// unknown keys are rejected with the key named; and the README knob table
// lists exactly the keys the parser accepts.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/config.h"
#include "jbs/plugin.h"

namespace jbs {
namespace {

using shuffle::JbsOptions;
using shuffle::JbsShufflePlugin;

/// Turns "jbs.a.b=4KB" into a gtest-safe name "jbs_a_b_4KB".
std::string CaseName(const std::string& text) {
  std::string name;
  for (const char c : text) {
    name += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return name;
}

TEST(PluginConfigTest, EmptyConfigYieldsDefaults) {
  // Catches any default that drifts between the option structs and the
  // parser: the parser must not write a field whose key is unset.
  auto parsed = JbsShufflePlugin::OptionsFromConfig(Config());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == JbsOptions{});
}

// ---- Every accepted key lands in its component field ---------------------

struct KnobCase {
  const char* key;
  const char* value;
  // Applies to default JbsOptions the change the key must make.
  std::function<void(JbsOptions&)> expect;
};

void PrintTo(const KnobCase& c, std::ostream* os) {
  *os << c.key << "=" << c.value;
}

const std::vector<KnobCase>& KnobCases() {
  using K = shuffle::TransportKind;
  static const std::vector<KnobCase> cases = {
      {conf::kTransport, "rdma", [](JbsOptions& o) { o.transport = K::kRdma; }},
      {conf::kTransportBufferSize, "64KB",
       [](JbsOptions& o) { o.supplier.buffer_size = 64 * 1024; }},
      {conf::kTransportBufferCount, "16",
       [](JbsOptions& o) { o.supplier.buffer_count = 16; }},
      {conf::kMaxFrameBytes, "1MB",
       [](JbsOptions& o) { o.max_frame_bytes = 1 << 20; }},
      {conf::kConnectionIdleMs, "77",
       [](JbsOptions& o) { o.merger.connection_idle_ms = 77; }},
      {conf::kPipelined, "false",
       [](JbsOptions& o) { o.supplier.pipelined = false; }},
      {conf::kPrefetchBatch, "7",
       [](JbsOptions& o) { o.supplier.prefetch_batch = 7; }},
      {conf::kPrefetchThreads, "5",
       [](JbsOptions& o) { o.supplier.prefetch_threads = 5; }},
      {conf::kFdCacheEntries, "33",
       [](JbsOptions& o) { o.supplier.fd_cache_entries = 33; }},
      {conf::kNetMergerDataThreads, "5",
       [](JbsOptions& o) { o.merger.data_threads = 5; }},
      {conf::kFetchWindow, "9",
       [](JbsOptions& o) { o.merger.fetch_window = 9; }},
      {conf::kConsolidate, "no",
       [](JbsOptions& o) { o.merger.consolidate = false; }},
      {conf::kRoundRobin, "0",
       [](JbsOptions& o) { o.merger.round_robin = false; }},
      {conf::kFetchDeadlineMs, "1234",
       [](JbsOptions& o) { o.merger.fetch_deadline_ms = 1234; }},
      {conf::kConnectTimeoutMs, "55",
       [](JbsOptions& o) { o.merger.connect_timeout_ms = 55; }},
      {conf::kChunkTimeoutMs, "66",
       [](JbsOptions& o) { o.merger.chunk_timeout_ms = 66; }},
      {conf::kVerifyCrc, "FALSE",
       [](JbsOptions& o) { o.supplier.chunk_crc = false; }},
      {conf::kHealthSuspectAfter, "2",
       [](JbsOptions& o) { o.merger.health.suspect_after = 2; }},
      {conf::kHealthPenalizeAfter, "0",
       [](JbsOptions& o) { o.merger.health.penalize_after = 0; }},
      {conf::kHealthPenaltyMs, "300",
       [](JbsOptions& o) { o.merger.health.penalty_ms = 300; }},
      {conf::kHealthPenaltyMaxMs, "4000",
       [](JbsOptions& o) { o.merger.health.penalty_max_ms = 4000; }},
      {conf::kWireCompressEnabled, "true",
       [](JbsOptions& o) { o.supplier.wire_compress = true; }},
      {conf::kWireCompressMinBytes, "8KB",
       [](JbsOptions& o) { o.supplier.wire_compress_min_bytes = 8192; }},
      {conf::kWireCompressMinRatio, "0.5",
       [](JbsOptions& o) { o.supplier.wire_compress_min_ratio = 0.5; }},
      {conf::kAdmissionMaxQueue, "10",
       [](JbsOptions& o) { o.supplier.admission_max_queue = 10; }},
      {conf::kAdmissionMaxInflightBytes, "1MB",
       [](JbsOptions& o) {
         o.supplier.admission_max_inflight_bytes = 1 << 20;
       }},
      {conf::kAdmissionDataCacheWatermark, "0.75",
       [](JbsOptions& o) { o.supplier.admission_datacache_watermark = 0.75; }},
      {conf::kAdmissionAcquireTimeoutMs, "250",
       [](JbsOptions& o) { o.supplier.admission_acquire_timeout_ms = 250; }},
      {conf::kPushbackRetryBudget, "7",
       [](JbsOptions& o) { o.merger.pushback_retry_budget = 7; }},
  };
  return cases;
}

class KnobLandsTest : public ::testing::TestWithParam<KnobCase> {};

TEST_P(KnobLandsTest, InTheFieldThePluginHandsOver) {
  const KnobCase& c = GetParam();
  JbsOptions want;
  c.expect(want);
  ASSERT_FALSE(want == JbsOptions{}) << "case must set a non-default value";

  Config conf;
  conf.Set(c.key, c.value);
  auto parsed = JbsShufflePlugin::OptionsFromConfig(conf);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == want);

  // What a plugin built from those options hands its components: the
  // supplier gets `want.supplier` as is, the merger `want.merger` with the
  // four derived values, each plus the per-node wiring.
  JbsShufflePlugin plugin(*parsed);
  EXPECT_EQ(plugin.name(), want.transport == shuffle::TransportKind::kRdma
                               ? "jbs-rdma"
                               : "jbs-tcp");
  auto server = plugin.CreateServer(3, conf);
  auto client = plugin.CreateClient(3, conf);
  const auto& supplier =
      dynamic_cast<shuffle::MofSupplier&>(*server).options();
  const auto& merger = dynamic_cast<shuffle::NetMerger&>(*client).options();
  EXPECT_EQ(supplier.transport, plugin.transport());
  EXPECT_EQ(supplier.metrics, &plugin.metrics());
  EXPECT_EQ(supplier.instance, "node3");
  EXPECT_EQ(merger.transport, plugin.transport());
  EXPECT_EQ(merger.metrics, &plugin.metrics());
  EXPECT_EQ(merger.trace, &plugin.trace());
  EXPECT_EQ(merger.instance, "node3");

  shuffle::MofSupplier::Options want_supplier = want.supplier;
  want_supplier.transport = supplier.transport;
  want_supplier.metrics = supplier.metrics;
  want_supplier.instance = supplier.instance;
  EXPECT_TRUE(supplier == want_supplier);
  shuffle::NetMerger::Options want_merger = want.merger;
  want_merger.transport = merger.transport;
  want_merger.metrics = merger.metrics;
  want_merger.trace = merger.trace;
  want_merger.instance = merger.instance;
  want_merger.chunk_size = want.supplier.buffer_size - shuffle::kDataHeaderSize;
  want_merger.verify_crc = want.supplier.chunk_crc;
  want_merger.advertise_wire_compress = want.supplier.wire_compress;
  EXPECT_TRUE(merger == want_merger);
  client->Stop();
  server->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Keys, KnobLandsTest, ::testing::ValuesIn(KnobCases()),
    [](const ::testing::TestParamInfo<KnobCase>& info) {
      return CaseName(info.param.key);
    });

TEST(PluginConfigTest, TableCoversEveryParserKey) {
  std::set<std::string> table;
  for (const KnobCase& c : KnobCases()) table.insert(c.key);
  const std::vector<std::string> keys = JbsShufflePlugin::ConfigKeys();
  EXPECT_EQ(table, std::set<std::string>(keys.begin(), keys.end()));
}

TEST(PluginConfigTest, DataCacheLargerThanPhysicalMemoryIsRejected) {
  // Each key is in range on its own; their product (1 PiB) is the arena
  // the supplier would allocate, so the pair is rejected by name.
  Config conf;
  conf.Set(conf::kTransportBufferSize, "1TB");
  conf.Set(conf::kTransportBufferCount, "1024");
  auto parsed = JbsShufflePlugin::OptionsFromConfig(conf);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  const std::string message = parsed.status().message();
  EXPECT_NE(message.find(conf::kTransportBufferSize), std::string::npos)
      << message;
  EXPECT_NE(message.find(conf::kTransportBufferCount), std::string::npos)
      << message;
}

// ---- Bad values and unknown keys are rejected ------------------------------

struct BadCase {
  const char* key;
  const char* value;
};

void PrintTo(const BadCase& c, std::ostream* os) {
  *os << c.key << "=" << c.value;
}

class BadKnobTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(BadKnobTest, IsInvalidArgumentNamingTheKey) {
  Config conf;
  conf.Set(GetParam().key, GetParam().value);
  auto parsed = JbsShufflePlugin::OptionsFromConfig(conf);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(GetParam().key),
            std::string::npos)
      << parsed.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Values, BadKnobTest,
    ::testing::Values(
        // Would spin every disk thread on an empty batch.
        BadCase{conf::kPrefetchBatch, "0"},
        // Would start no fetch workers, so FetchAndMerge never returns.
        BadCase{conf::kNetMergerDataThreads, "0"},
        BadCase{conf::kNetMergerDataThreads, "65"},
        BadCase{conf::kPrefetchThreads, "0"},
        // Would trip the buffer pool's assert or wrap the arena size.
        BadCase{conf::kTransportBufferCount, "0"},
        BadCase{conf::kTransportBufferCount, "-1"},
        // Other values out of range.
        BadCase{conf::kTransportBufferSize, "32"},
        BadCase{conf::kMaxFrameBytes, "4GB"},
        BadCase{conf::kFdCacheEntries, "0"},
        BadCase{conf::kFetchWindow, "0"},
        BadCase{conf::kFetchDeadlineMs, "-5"},
        BadCase{conf::kHealthSuspectAfter, "0"},
        BadCase{conf::kAdmissionAcquireTimeoutMs, "0"},
        // Malformed values.
        BadCase{conf::kNetMergerDataThreads, "abc"},
        BadCase{conf::kTransportBufferSize, "12abc"},
        BadCase{conf::kFetchWindow, "4.5"},
        BadCase{conf::kPipelined, "ture"},
        BadCase{conf::kTransport, "rdam"},
        // Ratios and watermarks outside [0, 1].
        BadCase{conf::kWireCompressMinRatio, "1.5"},
        BadCase{conf::kAdmissionDataCacheWatermark, "-0.1"},
        BadCase{conf::kAdmissionDataCacheWatermark, "nan"},
        // Unknown keys: a typo and a deleted knob.
        BadCase{"jbs.netmerger.fetch.windwo", "4"},
        BadCase{"jbs.transport.loops", "2"}),
    [](const ::testing::TestParamInfo<BadCase>& info) {
      return CaseName(std::string(info.param.key) + "=" + info.param.value);
    });

// ---- README knob table ------------------------------------------------------

TEST(PluginConfigTest, ReadmeKnobTableMatchesParserKeys) {
  std::ifstream in(JBS_README_PATH);
  ASSERT_TRUE(in) << "cannot open " << JBS_README_PATH;
  // Rows of the table under "### Configuration knobs" whose first cell is
  // a backticked jbs.* key.
  std::set<std::string> documented;
  bool in_section = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line == "### Configuration knobs";
      continue;
    }
    if (!in_section || line.rfind("| `jbs.", 0) != 0) continue;
    const size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    EXPECT_TRUE(documented.insert(line.substr(3, end - 3)).second)
        << "listed twice: " << line;
  }
  const std::vector<std::string> keys = JbsShufflePlugin::ConfigKeys();
  EXPECT_EQ(documented, std::set<std::string>(keys.begin(), keys.end()));
}

}  // namespace
}  // namespace jbs
