// End-to-end equivalence: the same job run through the local shuffle, the
// stock-Hadoop HTTP shuffle, JBS-over-TCP, and JBS-over-SoftRdma must
// produce byte-identical output — JBS is a *transparent* plug-in (§III-A).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "baseline/plugin.h"
#include "common/rng.h"
#include "jbs/plugin.h"
#include "mapred/engine.h"
#include "mapred/local_shuffle.h"
#include "metric_sum.h"

namespace jbs {
namespace {

namespace fs = std::filesystem;

class PluginE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("plugin_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    hdfs::MiniDfs::Options dopts;
    dopts.root = root_ / "dfs";
    dopts.num_datanodes = 3;
    dopts.replication = 2;
    dopts.block_size = 8192;
    dfs_ = std::make_unique<hdfs::MiniDfs>(dopts);

    // Deterministic multi-block wordcount input.
    std::string text;
    Rng rng(123);
    const char* words[] = {"jvm",  "bypass", "shuffle", "merge",
                           "rdma", "epoll",  "segment", "mof"};
    for (int i = 0; i < 2500; ++i) {
      text += words[rng.Below(8)];
      text += (i % 6 == 5) ? '\n' : ' ';
    }
    text += '\n';
    ASSERT_TRUE(
        dfs_->WriteFile("/in/text",
                        {reinterpret_cast<const uint8_t*>(text.data()),
                         text.size()})
            .ok());
  }
  void TearDown() override { fs::remove_all(root_); }

  mr::JobSpec WordCount(const std::string& out) {
    mr::JobSpec spec;
    spec.name = "wc";
    spec.input_path = "/in/text";
    spec.output_dir = out;
    spec.num_reducers = 4;
    spec.map = [](std::string_view, std::string_view line, mr::Emitter& e) {
      size_t pos = 0;
      while (pos < line.size()) {
        size_t end = line.find(' ', pos);
        if (end == std::string_view::npos) end = line.size();
        if (end > pos) e.Emit(line.substr(pos, end - pos), "1");
        pos = end + 1;
      }
    };
    spec.reduce = [](const std::string& key,
                     const std::vector<std::string>& values, mr::Emitter& e) {
      e.Emit(key, std::to_string(values.size()));
    };
    return spec;
  }

  mr::LocalJobRunner::Options RunnerOptions(mr::ShufflePlugin& plugin,
                                            const std::string& tag) {
    mr::LocalJobRunner::Options opts;
    opts.dfs = dfs_.get();
    opts.plugin = &plugin;
    opts.work_dir = root_ / ("work_" + tag);
    opts.num_nodes = 3;
    opts.map_slots = 2;
    opts.reduce_slots = 2;
    opts.sort_buffer_bytes = 4096;  // force spills
    return opts;
  }

  std::string RunWith(mr::ShufflePlugin& plugin, const std::string& tag) {
    mr::LocalJobRunner runner(RunnerOptions(plugin, tag));
    auto result = runner.Run(WordCount("/out/" + tag));
    EXPECT_TRUE(result.ok()) << tag << ": " << result.status().ToString();
    if (!result.ok()) return "<failed:" + tag + ">";
    EXPECT_GT(result->shuffle_bytes, 0u) << tag;
    std::string all;
    for (const auto& file : result->output_files) {
      std::vector<uint8_t> data;
      EXPECT_TRUE(dfs_->ReadFile(file, data).ok());
      all.append(data.begin(), data.end());
    }
    return all;
  }

  fs::path root_;
  std::unique_ptr<hdfs::MiniDfs> dfs_;
};

// One plugin instance serves every job of a run, and its servers and
// clients share the plugin's per-node metrics series. Each job's
// shuffle_bytes must still count that job's fetches only.
TEST_F(PluginE2eTest, ShuffleBytesArePerJobWhenPluginIsReused) {
  baseline::HadoopShufflePlugin::Options hopts;
  hopts.spill_dir = root_ / "spills";
  baseline::HadoopShufflePlugin http(hopts);
  shuffle::JbsShufflePlugin jbs_tcp;
  for (mr::ShufflePlugin* plugin :
       {static_cast<mr::ShufflePlugin*>(&http),
        static_cast<mr::ShufflePlugin*>(&jbs_tcp)}) {
    mr::LocalJobRunner runner(RunnerOptions(*plugin, plugin->name()));
    auto first = runner.Run(WordCount("/out/first_" + plugin->name()));
    ASSERT_TRUE(first.ok()) << plugin->name() << ": "
                            << first.status().ToString();
    auto second = runner.Run(WordCount("/out/second_" + plugin->name()));
    ASSERT_TRUE(second.ok()) << plugin->name() << ": "
                             << second.status().ToString();
    EXPECT_GT(first->shuffle_bytes, 0u) << plugin->name();
    EXPECT_EQ(second->shuffle_bytes, first->shuffle_bytes) << plugin->name();
  }
}

// The cache and connection-manager gauges belong to the per-job supplier
// and merger objects, which publish under the same per-node labels on a
// reused plugin. A job's values must therefore replace the previous job's,
// not add to them: jobbench reads them after each job as that job's own.
TEST_F(PluginE2eTest, CacheGaugesAreTheLastJobsOwnCounts) {
  const std::string small = "jvm bypass shuffle merge\n";
  ASSERT_TRUE(dfs_->WriteFile("/in/small",
                              {reinterpret_cast<const uint8_t*>(small.data()),
                               small.size()})
                  .ok());
  shuffle::JbsShufflePlugin jbs_tcp;
  mr::LocalJobRunner runner(RunnerOptions(jbs_tcp, "gauges"));
  auto first = runner.Run(WordCount("/out/gauges_first"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const MetricsRegistry& registry = jbs_tcp.metrics();
  const uint64_t opened_before =
      SumMetric(registry, "shuffle_connections_opened_total");
  mr::JobSpec spec = WordCount("/out/gauges_second");
  spec.input_path = "/in/small";
  auto second = runner.Run(spec);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_LT(second->map_tasks, first->map_tasks);

  // Each MOF's index and data file is read through one miss.
  EXPECT_EQ(SumMetric(registry, "jbs_mofsupplier_indexcache_misses"),
            second->map_tasks);
  EXPECT_EQ(SumMetric(registry, "jbs_mofsupplier_fdcache_misses"),
            second->map_tasks);
  // Every connection-cache miss is a dial; the ones that connected are
  // this job's delta of the shuffle_connections_opened_total counter.
  EXPECT_EQ(SumMetric(registry, "jbs_connmgr_misses") -
                SumMetric(registry, "jbs_connmgr_dial_failures"),
            SumMetric(registry, "shuffle_connections_opened_total") -
                opened_before);
}

TEST_F(PluginE2eTest, AllShufflesProduceIdenticalOutput) {
  mr::LocalShufflePlugin local;
  const std::string reference = RunWith(local, "local");
  ASSERT_FALSE(reference.empty());

  baseline::HadoopShufflePlugin::Options hopts;
  hopts.spill_dir = root_ / "spills";
  baseline::HadoopShufflePlugin hadoop(hopts);
  EXPECT_EQ(RunWith(hadoop, "hadoop"), reference);

  shuffle::JbsShufflePlugin jbs_tcp;
  EXPECT_EQ(RunWith(jbs_tcp, "jbs_tcp"), reference);

  shuffle::JbsOptions ropts;
  ropts.transport = shuffle::TransportKind::kRdma;
  ropts.supplier.buffer_size = 32 * 1024;
  shuffle::JbsShufflePlugin jbs_rdma(ropts);
  EXPECT_EQ(RunWith(jbs_rdma, "jbs_rdma"), reference);
}

TEST_F(PluginE2eTest, RunPopulatesMetricsAndTrace) {
  // A full JBS job publishes client + server series into the plugin's one
  // shared registry, and the trace ring holds complete fetch lifecycles.
  shuffle::JbsShufflePlugin jbs_tcp;
  RunWith(jbs_tcp, "jbs_metrics");
  const MetricsRegistry& registry = jbs_tcp.metrics();
  const std::string text = registry.DumpText();
  EXPECT_GT(SumMetric(registry, "shuffle_fetch_latency_ms_count"), 0u)
      << text;
  EXPECT_GT(SumMetric(registry, "shuffle_fetches_total"), 0u);
  EXPECT_GT(SumMetric(registry, "shuffle_connections_opened_total"), 0u);
  EXPECT_GT(SumMetric(registry, "shuffle_bytes_served_total"), 0u);
  EXPECT_GT(SumMetric(registry, "shuffle_requests_total"), 0u);
  EXPECT_NE(text.find("jbs_mofsupplier_fdcache_hits{"), std::string::npos);
  EXPECT_NE(text.find("jbs_connmgr_hits{"), std::string::npos);
  // Per-node instances stay distinguishable in the shared registry.
  EXPECT_NE(text.find("instance=\"node0\""), std::string::npos);
  size_t merged = 0;
  for (const auto& entry : jbs_tcp.trace().Snapshot()) {
    if (entry.event == TraceEvent::kMerged) ++merged;
  }
  EXPECT_GT(merged, 0u);

  // The baseline publishes the *same* shuffle_* names under its own
  // client/server labels, so JBS-vs-baseline dumps compare directly.
  baseline::HadoopShufflePlugin::Options hopts;
  hopts.spill_dir = root_ / "spills_metrics";
  baseline::HadoopShufflePlugin hadoop(hopts);
  RunWith(hadoop, "hadoop_metrics");
  const std::string btext = hadoop.metrics().DumpText();
  EXPECT_GT(SumMetric(hadoop.metrics(), "shuffle_fetches_total"), 0u)
      << btext;
  EXPECT_GT(SumMetric(hadoop.metrics(), "shuffle_requests_total"), 0u);
  EXPECT_NE(btext.find("client=\"mofcopier\""), std::string::npos);
  EXPECT_NE(btext.find("server=\"httpservlet\""), std::string::npos);
}

TEST_F(PluginE2eTest, JbsSmallBuffersStillCorrect) {
  // Tiny transport buffers force heavy chunking (the 8KB end of Fig. 11).
  shuffle::JbsOptions opts;
  opts.supplier.buffer_size = 4096;
  shuffle::JbsShufflePlugin tiny(opts);
  mr::LocalShufflePlugin local;
  EXPECT_EQ(RunWith(tiny, "tiny"), RunWith(local, "local_ref"));
}

TEST_F(PluginE2eTest, JbsAblationsStillCorrect) {
  mr::LocalShufflePlugin local;
  const std::string reference = RunWith(local, "local");

  shuffle::JbsOptions no_pipeline;
  no_pipeline.supplier.pipelined = false;
  shuffle::JbsShufflePlugin p1(no_pipeline);
  EXPECT_EQ(RunWith(p1, "nopipe"), reference);

  shuffle::JbsOptions no_consolidate;
  no_consolidate.merger.consolidate = false;
  no_consolidate.merger.round_robin = false;
  shuffle::JbsShufflePlugin p2(no_consolidate);
  EXPECT_EQ(RunWith(p2, "nocons"), reference);
}

TEST_F(PluginE2eTest, BaselineWithSpillsMatches) {
  mr::LocalShufflePlugin local;
  const std::string reference = RunWith(local, "local");
  baseline::HadoopShufflePlugin::Options hopts;
  hopts.in_memory_budget = 1024;  // force copier spills + read-back
  hopts.spill_dir = root_ / "spills2";
  baseline::HadoopShufflePlugin hadoop(hopts);
  EXPECT_EQ(RunWith(hadoop, "hadoop_spill"), reference);
}

}  // namespace
}  // namespace jbs
