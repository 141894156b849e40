#include "mapred/engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>

#include "common/rng.h"
#include "mapred/local_shuffle.h"

namespace jbs::mr {
namespace {

namespace fs = std::filesystem;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("engine_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    hdfs::MiniDfs::Options dopts;
    dopts.root = root_ / "dfs";
    dopts.num_datanodes = 4;
    dopts.replication = 2;
    dopts.block_size = 4096;
    dfs_ = std::make_unique<hdfs::MiniDfs>(dopts);
  }
  void TearDown() override { fs::remove_all(root_); }

  LocalJobRunner MakeRunner(int nodes = 4) {
    LocalJobRunner::Options opts;
    opts.dfs = dfs_.get();
    opts.plugin = &plugin_;
    opts.work_dir = root_ / "work";
    opts.num_nodes = nodes;
    opts.map_slots = 2;
    opts.reduce_slots = 2;
    opts.sort_buffer_bytes = 8192;
    return LocalJobRunner(opts);
  }

  void WriteTextInput(const std::string& path, const std::string& text) {
    ASSERT_TRUE(dfs_->WriteFile(path,
                                {reinterpret_cast<const uint8_t*>(text.data()),
                                 text.size()})
                    .ok());
  }

  std::string ReadOutput(const std::vector<std::string>& files) {
    std::string all;
    for (const auto& f : files) {
      std::vector<uint8_t> data;
      EXPECT_TRUE(dfs_->ReadFile(f, data).ok());
      all.append(reinterpret_cast<const char*>(data.data()), data.size());
    }
    return all;
  }

  static JobSpec WordCount(const std::string& in, const std::string& out,
                           int reducers) {
    JobSpec spec;
    spec.name = "wordcount";
    spec.input_path = in;
    spec.output_dir = out;
    spec.num_reducers = reducers;
    spec.map = [](std::string_view, std::string_view line, Emitter& e) {
      size_t pos = 0;
      while (pos < line.size()) {
        while (pos < line.size() && line[pos] == ' ') ++pos;
        size_t end = pos;
        while (end < line.size() && line[end] != ' ') ++end;
        if (end > pos) e.Emit(line.substr(pos, end - pos), "1");
        pos = end;
      }
    };
    spec.reduce = [](const std::string& key,
                     const std::vector<std::string>& values, Emitter& e) {
      int64_t sum = 0;
      for (const auto& v : values) sum += std::stoll(v);
      e.Emit(key, std::to_string(sum));
    };
    return spec;
  }

  std::map<std::string, int64_t> ParseCounts(const std::string& text) {
    std::map<std::string, int64_t> counts;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      EXPECT_NE(tab, std::string::npos);
      counts[line.substr(0, tab)] = std::stoll(line.substr(tab + 1));
    }
    return counts;
  }

  fs::path root_;
  std::unique_ptr<hdfs::MiniDfs> dfs_;
  LocalShufflePlugin plugin_;
};

TEST_F(EngineTest, WordCountEndToEnd) {
  // Input spans multiple 4KB blocks so multiple map tasks run.
  std::string text;
  std::map<std::string, int64_t> expected;
  Rng rng(42);
  const std::string words[] = {"alpha", "bravo", "charlie", "delta", "echo"};
  for (int line = 0; line < 600; ++line) {
    for (int w = 0; w < 4; ++w) {
      const auto& word = words[rng.Below(5)];
      text += word;
      text += w == 3 ? '\n' : ' ';
      ++expected[word];
    }
  }
  WriteTextInput("/in/words", text);

  auto runner = MakeRunner();
  auto result = runner.Run(WordCount("/in/words", "/out/wc", 3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->map_tasks, 1u);
  EXPECT_EQ(result->reduce_tasks, 3u);
  EXPECT_EQ(result->map_input_records, 600u);
  EXPECT_EQ(result->map_output_records, 2400u);
  EXPECT_EQ(result->reduce_input_records, 2400u);
  EXPECT_EQ(result->output_files.size(), 3u);

  auto counts = ParseCounts(ReadOutput(result->output_files));
  EXPECT_EQ(counts, expected);
}

TEST_F(EngineTest, EachKeyInExactlyOnePartition) {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "key" + std::to_string(i % 50) + "\n";
  }
  WriteTextInput("/in/keys", text);
  auto runner = MakeRunner();
  auto spec = WordCount("/in/keys", "/out/parts", 4);
  auto result = runner.Run(spec);
  ASSERT_TRUE(result.ok());
  // A key must not appear in two different output files.
  std::map<std::string, int> files_seen;
  for (const auto& file : result->output_files) {
    std::vector<uint8_t> data;
    ASSERT_TRUE(dfs_->ReadFile(file, data).ok());
    std::istringstream in(std::string(data.begin(), data.end()));
    std::string line;
    while (std::getline(in, line)) {
      ++files_seen[line.substr(0, line.find('\t'))];
    }
  }
  EXPECT_EQ(files_seen.size(), 50u);
  for (const auto& [key, n] : files_seen) EXPECT_EQ(n, 1) << key;
}

TEST_F(EngineTest, CombinerReducesShuffleVolume) {
  std::string text;
  for (int i = 0; i < 1000; ++i) text += "same same same different\n";
  WriteTextInput("/in/c", text);

  auto run_with = [&](bool combiner, const std::string& out) {
    LocalShufflePlugin plugin;
    LocalJobRunner::Options opts;
    opts.dfs = dfs_.get();
    opts.plugin = &plugin;
    opts.work_dir = root_ / ("work_" + out);
    opts.num_nodes = 2;
    opts.sort_buffer_bytes = 8192;
    LocalJobRunner runner(opts);
    auto spec = WordCount("/in/c", "/out/" + out, 2);
    if (combiner) spec.combine = spec.reduce;
    auto result = runner.Run(spec);
    EXPECT_TRUE(result.ok());
    return *result;
  };
  auto without = run_with(false, "nocomb");
  auto with = run_with(true, "comb");
  EXPECT_LT(with.shuffle_bytes, without.shuffle_bytes / 4);
  // Results identical.
  EXPECT_EQ(ReadOutput(with.output_files), ReadOutput(without.output_files));
}

TEST_F(EngineTest, FixedRecordInputSplitsAligned) {
  // 100-byte records (10B key + 90B value) across blocks of 4096 (not a
  // multiple of 100) — the alignment logic must not lose or duplicate any.
  constexpr int kRecords = 300;
  std::string data;
  Rng rng(7);
  for (int i = 0; i < kRecords; ++i) {
    char key[11];
    std::snprintf(key, sizeof(key), "%010llu",
                  static_cast<unsigned long long>(rng.Below(1000000)));
    data.append(key, 10);
    data.append(90, static_cast<char>('a' + i % 26));
  }
  WriteTextInput("/in/fixed", data);

  JobSpec spec;
  spec.input_path = "/in/fixed";
  spec.output_dir = "/out/fixed";
  spec.num_reducers = 2;
  spec.input_format = InputFormat::kFixedRecords;
  spec.map = [](std::string_view key, std::string_view value, Emitter& e) {
    e.Emit(key, value);
  };
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values, Emitter& e) {
    for (const auto& v : values) e.Emit(key, v);
  };
  auto runner = MakeRunner();
  auto result = runner.Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->map_input_records, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(result->reduce_input_records, static_cast<uint64_t>(kRecords));
}

TEST_F(EngineTest, MostMapsAreLocal) {
  std::string text(20000, 'x');
  for (size_t i = 80; i < text.size(); i += 80) text[i] = '\n';
  WriteTextInput("/in/local", text);
  auto runner = MakeRunner();
  auto result = runner.Run(WordCount("/in/local", "/out/local", 2));
  ASSERT_TRUE(result.ok());
  // Replication=2 on 4 nodes: every split has a local node available.
  EXPECT_EQ(result->local_maps, result->map_tasks);
}

TEST_F(EngineTest, MissingInputFails) {
  auto runner = MakeRunner();
  auto result = runner.Run(WordCount("/does/not/exist", "/out/x", 1));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, IncompleteSpecRejected) {
  auto runner = MakeRunner();
  JobSpec spec;
  spec.input_path = "/in";
  auto result = runner.Run(spec);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, MalformedCompressFlagRejected) {
  WriteTextInput("/in/typo", "a b a\n");
  LocalJobRunner::Options opts;
  opts.dfs = dfs_.get();
  opts.plugin = &plugin_;
  opts.work_dir = root_ / "work";
  opts.conf.Set(conf::kCompressMapOutput, "ture");
  auto result = LocalJobRunner(opts).Run(WordCount("/in/typo", "/out/typo", 1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(conf::kCompressMapOutput),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(EngineTest, LineOwnershipAcrossSplitBoundaries) {
  // A line straddling a block boundary belongs to the split where it
  // starts; no line may be read twice or dropped. Construct lines whose
  // lengths guarantee boundary straddles with a 4096-byte block.
  std::string text;
  int expected_lines = 0;
  Rng rng(31);
  while (text.size() < 20000) {
    const size_t len = 1 + rng.Below(200);
    text.append(len, 'x');
    text += '\n';
    ++expected_lines;
  }
  WriteTextInput("/in/boundary", text);
  mr::JobSpec spec;
  spec.input_path = "/in/boundary";
  spec.output_dir = "/out/boundary";
  spec.num_reducers = 2;
  spec.map = [](std::string_view, std::string_view, mr::Emitter& e) {
    e.Emit("lines", "1");
  };
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& e) {
    e.Emit(key, std::to_string(values.size()));
  };
  auto runner = MakeRunner();
  auto result = runner.Run(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->map_tasks, 2u);
  EXPECT_EQ(result->map_input_records,
            static_cast<uint64_t>(expected_lines));
}

TEST_F(EngineTest, FileWithoutTrailingNewline) {
  WriteTextInput("/in/nonl", "first line\nsecond line without newline");
  auto runner = MakeRunner();
  auto result = runner.Run(WordCount("/in/nonl", "/out/nonl", 1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->map_input_records, 2u);
}

TEST_F(EngineTest, EmptyLinesAreRecords) {
  WriteTextInput("/in/empty", "a\n\n\nb\n");
  auto runner = MakeRunner();
  auto result = runner.Run(WordCount("/in/empty", "/out/empty", 1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->map_input_records, 4u);
  EXPECT_EQ(result->map_output_records, 2u);  // empty lines emit no words
}

TEST_F(EngineTest, ManyReducersEmptyPartitionsOk) {
  WriteTextInput("/in/tiny", "one two\n");
  auto runner = MakeRunner();
  auto result = runner.Run(WordCount("/in/tiny", "/out/tiny", 8));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output_files.size(), 8u);
  auto counts = ParseCounts(ReadOutput(result->output_files));
  EXPECT_EQ(counts.size(), 2u);
}

}  // namespace
}  // namespace jbs::mr
