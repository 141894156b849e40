// End-to-end: mapred.compress.map.output=true through the HTTP baseline,
// JBS/TCP and JBS/SoftRdma — identical results to uncompressed runs, with
// fewer bytes on the wire.
#include <gtest/gtest.h>

#include <filesystem>

#include "baseline/plugin.h"
#include "hdfs/minidfs.h"
#include "jbs/plugin.h"
#include "mapred/engine.h"
#include "mapred/local_shuffle.h"

namespace jbs {
namespace {

namespace fs = std::filesystem;

class CompressE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("compress_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    hdfs::MiniDfs::Options dopts;
    dopts.root = root_ / "dfs";
    dopts.num_datanodes = 2;
    dopts.block_size = 16384;
    dfs_ = std::make_unique<hdfs::MiniDfs>(dopts);
    std::string text;
    for (int i = 0; i < 1500; ++i) {
      text += "highly repetitive shuffle payload line number ";
      text += std::to_string(i % 40);
      text += '\n';
    }
    ASSERT_TRUE(dfs_->WriteFile("/in", AsBytes(text)).ok());
  }
  void TearDown() override { fs::remove_all(root_); }

  struct Outcome {
    std::string output;
    uint64_t wire_bytes = 0;
  };

  Outcome Run(mr::ShufflePlugin& plugin, bool compress,
              const std::string& tag) {
    mr::JobSpec spec;
    spec.name = "wc-" + tag;
    spec.input_path = "/in";
    spec.output_dir = "/out/" + tag;
    spec.num_reducers = 3;
    spec.map = [](std::string_view, std::string_view line, mr::Emitter& e) {
      e.Emit(line, "1");
    };
    spec.reduce = [](const std::string& key,
                     const std::vector<std::string>& values, mr::Emitter& e) {
      e.Emit(key, std::to_string(values.size()));
    };
    mr::LocalJobRunner::Options options;
    options.dfs = dfs_.get();
    options.plugin = &plugin;
    options.work_dir = root_ / ("work_" + tag);
    options.num_nodes = 2;
    options.conf.SetBool(conf::kCompressMapOutput, compress);
    mr::LocalJobRunner runner(options);
    auto result = runner.Run(spec);
    EXPECT_TRUE(result.ok()) << tag << ": " << result.status().ToString();
    Outcome outcome;
    if (!result.ok()) return outcome;
    outcome.wire_bytes = result->shuffle_bytes;
    for (const auto& file : result->output_files) {
      std::vector<uint8_t> data;
      EXPECT_TRUE(dfs_->ReadFile(file, data).ok());
      outcome.output.append(data.begin(), data.end());
    }
    return outcome;
  }

  fs::path root_;
  std::unique_ptr<hdfs::MiniDfs> dfs_;
};

TEST_F(CompressE2eTest, JbsTcpCompressedMatchesPlainAndShrinksWire) {
  shuffle::JbsShufflePlugin plain_plugin;
  auto plain = Run(plain_plugin, false, "plain");
  shuffle::JbsShufflePlugin compressed_plugin;
  auto compressed = Run(compressed_plugin, true, "comp");
  ASSERT_FALSE(plain.output.empty());
  EXPECT_EQ(compressed.output, plain.output);
  EXPECT_LT(compressed.wire_bytes, plain.wire_bytes / 2);
}

TEST_F(CompressE2eTest, JbsRdmaCompressed) {
  shuffle::JbsOptions options;
  options.transport = shuffle::TransportKind::kRdma;
  options.supplier.buffer_size = 16 * 1024;
  shuffle::JbsShufflePlugin rdma(options);
  auto compressed = Run(rdma, true, "rdma_comp");
  mr::LocalShufflePlugin local;
  auto reference = Run(local, false, "ref");
  EXPECT_EQ(compressed.output, reference.output);
}

TEST_F(CompressE2eTest, HttpBaselineCompressed) {
  baseline::HadoopShufflePlugin::Options options;
  options.spill_dir = root_ / "spill";
  options.in_memory_budget = 2048;  // force spill of compressed segments
  baseline::HadoopShufflePlugin http(options);
  auto compressed = Run(http, true, "http_comp");
  mr::LocalShufflePlugin local;
  auto reference = Run(local, false, "ref");
  EXPECT_EQ(compressed.output, reference.output);
}

}  // namespace
}  // namespace jbs
