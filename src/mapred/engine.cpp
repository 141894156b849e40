#include "mapred/engine.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "mapred/collector.h"

namespace jbs::mr {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

LocalJobRunner::LocalJobRunner(Options options) : options_(std::move(options)) {
  std::filesystem::create_directories(options_.work_dir);
}

std::vector<LocalJobRunner::MapAssignment> LocalJobRunner::AssignMaps(
    const std::vector<hdfs::InputSplit>& splits, uint64_t* local_maps) {
  std::vector<MapAssignment> assignments;
  assignments.reserve(splits.size());
  std::vector<int> load(static_cast<size_t>(options_.num_nodes), 0);
  int map_task = 0;
  for (const hdfs::InputSplit& split : splits) {
    // Prefer the least-loaded node that holds the split locally; fall back
    // to the globally least-loaded node (a rough cut of delay scheduling,
    // which achieves ~98% local maps in practice).
    int chosen = -1;
    for (int host : split.hosts) {
      if (host < 0 || host >= options_.num_nodes) continue;
      if (chosen == -1 ||
          load[static_cast<size_t>(host)] < load[static_cast<size_t>(chosen)]) {
        chosen = host;
      }
    }
    if (chosen != -1) ++*local_maps;
    if (chosen == -1) {
      chosen = 0;
      for (int node = 1; node < options_.num_nodes; ++node) {
        if (load[static_cast<size_t>(node)] <
            load[static_cast<size_t>(chosen)]) {
          chosen = node;
        }
      }
    }
    ++load[static_cast<size_t>(chosen)];
    assignments.push_back(MapAssignment{map_task++, chosen, split});
  }
  return assignments;
}

Status LocalJobRunner::ForEachInputRecord(
    const JobSpec& spec, const hdfs::InputSplit& split,
    const std::function<void(std::string_view, std::string_view)>& fn,
    uint64_t* records) {
  switch (spec.input_format) {
    case InputFormat::kLines: {
      // Hadoop TextInputFormat semantics: a split owns every line that
      // *starts* within it. Unless it begins at offset 0 it skips the
      // first (partial) line, and it reads past its end to finish the
      // last line it started.
      auto file = options_.dfs->Stat(split.path);
      JBS_RETURN_IF_ERROR(file.status());
      constexpr uint64_t kMaxLine = 1 << 20;
      const uint64_t read_end =
          std::min<uint64_t>(file->length, split.offset + split.length + kMaxLine);
      std::vector<uint8_t> data;
      JBS_RETURN_IF_ERROR(options_.dfs->ReadRange(
          split.path, split.offset, read_end - split.offset, data));
      std::string_view text(reinterpret_cast<const char*>(data.data()),
                            data.size());
      size_t pos = 0;
      if (split.offset != 0) {
        const size_t newline = text.find('\n');
        if (newline == std::string_view::npos) return Status::Ok();
        pos = newline + 1;
      }
      // Consume lines that start within [0, split.length).
      while (pos < text.size() &&
             split.offset + pos < split.offset + split.length) {
        size_t newline = text.find('\n', pos);
        if (newline == std::string_view::npos) {
          if (read_end < file->length) {
            return Internal("line longer than 1MB in " + split.path);
          }
          newline = text.size();
        }
        const std::string key = std::to_string(split.offset + pos);
        fn(key, text.substr(pos, newline - pos));
        ++*records;
        pos = newline + 1;
      }
      return Status::Ok();
    }
    case InputFormat::kFixedRecords: {
      const auto rec = static_cast<uint64_t>(spec.fixed_record_size);
      // Own the records that *start* within the split, aligned globally.
      const uint64_t first =
          (split.offset + rec - 1) / rec * rec;
      auto file = options_.dfs->Stat(split.path);
      JBS_RETURN_IF_ERROR(file.status());
      const uint64_t limit = std::min<uint64_t>(
          file->length / rec * rec, split.offset + split.length);
      if (first >= limit) return Status::Ok();
      // Last owned record may extend past the split end.
      const uint64_t last_start = (limit - 1) / rec * rec;
      const uint64_t read_len = last_start + rec - first;
      std::vector<uint8_t> data;
      JBS_RETURN_IF_ERROR(
          options_.dfs->ReadRange(split.path, first, read_len, data));
      const char* base = reinterpret_cast<const char*>(data.data());
      for (uint64_t off = 0; off + rec <= data.size(); off += rec) {
        std::string_view key(base + off,
                             static_cast<size_t>(spec.fixed_key_size));
        std::string_view value(base + off + spec.fixed_key_size,
                               rec - static_cast<uint64_t>(spec.fixed_key_size));
        fn(key, value);
        ++*records;
      }
      return Status::Ok();
    }
  }
  return Internal("unknown input format");
}

Status LocalJobRunner::RunMapTask(const JobSpec& spec,
                                  const MapAssignment& assignment,
                                  ShuffleServer* server,
                                  JobCounters* counters) {
  MapOutputCollector::Options copts;
  copts.num_partitions = spec.num_reducers;
  copts.partitioner = spec.partitioner;
  copts.sort_buffer_bytes = options_.sort_buffer_bytes;
  copts.work_dir = options_.work_dir /
                   ("node" + std::to_string(assignment.node)) /
                   ("map_" + std::to_string(assignment.map_task));
  copts.combiner = spec.combine;
  copts.compress = options_.conf.GetBool(conf::kCompressMapOutput, false);
  MapOutputCollector collector(copts);

  uint64_t input_records = 0;
  JBS_RETURN_IF_ERROR(ForEachInputRecord(
      spec, assignment.split,
      [&](std::string_view key, std::string_view value) {
        spec.map(key, value, collector);
      },
      &input_records));
  JBS_RETURN_IF_ERROR(collector.status());

  auto handle = collector.Finish(assignment.map_task, assignment.node);
  JBS_RETURN_IF_ERROR(handle.status());
  JBS_RETURN_IF_ERROR(server->PublishMof(*handle));

  MutexLock lock(counters_mu_);
  counters->map_input_records += input_records;
  counters->map_output_records += collector.records_collected();
  counters->map_output_bytes += collector.bytes_collected();
  counters->map_spills += static_cast<uint64_t>(collector.spills());
  return Status::Ok();
}

Status LocalJobRunner::RunReduceTask(const JobSpec& spec, int reduce_task,
                                     int node, ShuffleClient* client,
                                     const std::vector<MofLocation>& sources,
                                     JobCounters* counters) {
  auto merged = client->FetchAndMerge(reduce_task, sources);
  JBS_RETURN_IF_ERROR(merged.status());

  const std::string out_path =
      spec.output_dir + "/part-r-" + std::to_string(reduce_task);
  auto writer = options_.dfs->Create(out_path, /*preferred_node=*/node);
  JBS_RETURN_IF_ERROR(writer.status());

  uint64_t input_records = 0;
  uint64_t output_records = 0;
  class DfsEmitter final : public Emitter {
   public:
    DfsEmitter(hdfs::MiniDfs::Writer* writer, OutputFormat format,
               uint64_t* count)
        : writer_(writer), format_(format), count_(count) {}
    void Emit(std::string_view key, std::string_view value) override {
      buffer_.clear();
      switch (format_) {
        case OutputFormat::kKeyTabValue:
          buffer_.append(key).append("\t").append(value).append("\n");
          break;
        case OutputFormat::kRaw:
          buffer_.append(key).append(value);
          break;
        case OutputFormat::kValueOnly:
          buffer_.append(value).append("\n");
          break;
      }
      status_ = writer_->Append(
          {reinterpret_cast<const uint8_t*>(buffer_.data()), buffer_.size()});
      ++*count_;
    }
    const Status& status() const { return status_; }

   private:
    hdfs::MiniDfs::Writer* writer_;
    OutputFormat format_;
    uint64_t* count_;
    std::string buffer_;
    Status status_;
  } emitter(&*writer, options_.output_format, &output_records);

  GroupIterator groups(merged->get());
  std::string key;
  std::vector<std::string> values;
  while (groups.NextGroup(&key, &values)) {
    input_records += values.size();
    spec.reduce(key, values, emitter);
    JBS_RETURN_IF_ERROR(emitter.status());
  }
  JBS_RETURN_IF_ERROR(groups.status());
  JBS_RETURN_IF_ERROR(writer->Close());

  MutexLock lock(counters_mu_);
  counters->reduce_input_records += input_records;
  counters->reduce_output_records += output_records;
  counters->output_files.push_back(out_path);
  return Status::Ok();
}

StatusOr<JobCounters> LocalJobRunner::Run(const JobSpec& spec) {
  if (options_.dfs == nullptr || options_.plugin == nullptr) {
    return InvalidArgument("LocalJobRunner needs a dfs and a shuffle plugin");
  }
  if (!spec.map || !spec.reduce || spec.num_reducers < 1) {
    return InvalidArgument("JobSpec incomplete");
  }
  // Fail loudly instead of letting a typo run the job uncompressed.
  if (const auto v = options_.conf.Get(conf::kCompressMapOutput);
      v && !Config::ParseBool(*v)) {
    return InvalidArgument(std::string(conf::kCompressMapOutput) + "=" + *v +
                           ": want true or false");
  }
  const auto job_start = std::chrono::steady_clock::now();
  JobCounters counters;

  auto splits = options_.dfs->GetSplits(
      spec.input_path,
      options_.split_size == 0 ? options_.dfs->block_size()
                               : options_.split_size);
  JBS_RETURN_IF_ERROR(splits.status());
  counters.map_tasks = splits->size();
  counters.reduce_tasks = static_cast<uint64_t>(spec.num_reducers);

  // Per-node shuffle servers and clients.
  std::vector<std::unique_ptr<ShuffleServer>> servers;
  std::vector<std::unique_ptr<ShuffleClient>> clients;
  for (int node = 0; node < options_.num_nodes; ++node) {
    servers.push_back(options_.plugin->CreateServer(node, options_.conf));
    JBS_RETURN_IF_ERROR(servers.back()->Start());
  }
  for (int node = 0; node < options_.num_nodes; ++node) {
    clients.push_back(options_.plugin->CreateClient(node, options_.conf));
  }
  auto stop_all = [&] {
    for (auto& client : clients) client->Stop();
    for (auto& server : servers) server->Stop();
  };

  auto assignments = AssignMaps(*splits, &counters.local_maps);

  // ---- Map phase ----
  Mutex status_mu;
  Status first_error;
  auto record_error = [&](const Status& st) {
    MutexLock lock(status_mu);
    if (first_error.ok() && !st.ok()) first_error = st;
  };
  {
    ThreadPool pool(
        static_cast<size_t>(options_.num_nodes * options_.map_slots),
        "map-slots");
    for (const MapAssignment& assignment : assignments) {
      pool.Submit([&, assignment] {
        // Task-level fault tolerance: re-execute a failed attempt, like
        // the JobTracker rescheduling a TaskAttempt.
        Status st;
        for (int attempt = 0; attempt < options_.max_task_attempts;
             ++attempt) {
          if (attempt > 0) {
            MutexLock lock(counters_mu_);
            ++counters.task_retries;
          }
          st = RunMapTask(spec, assignment,
                          servers[static_cast<size_t>(assignment.node)].get(),
                          &counters);
          if (st.ok()) break;
          JBS_WARN << "map task " << assignment.map_task << " attempt "
                   << attempt << " failed: " << st.ToString();
        }
        record_error(st);
      });
    }
    pool.Shutdown();
  }
  if (!first_error.ok()) {
    stop_all();
    return first_error;
  }
  counters.map_phase_sec = SecondsSince(job_start);

  // ---- Shuffle + reduce phase ----
  // Every reducer fetches from every map's node-local server.
  std::vector<MofLocation> sources;
  sources.reserve(assignments.size());
  for (const MapAssignment& assignment : assignments) {
    MofLocation loc;
    loc.map_task = assignment.map_task;
    loc.node = assignment.node;
    loc.host = "127.0.0.1";
    loc.port = servers[static_cast<size_t>(assignment.node)]->port();
    sources.push_back(loc);
  }
  const auto reduce_start = std::chrono::steady_clock::now();
  {
    ThreadPool pool(
        static_cast<size_t>(options_.num_nodes * options_.reduce_slots),
        "reduce-slots");
    for (int r = 0; r < spec.num_reducers; ++r) {
      const int node = r % options_.num_nodes;
      pool.Submit([&, r, node] {
        Status st;
        for (int attempt = 0; attempt < options_.max_task_attempts;
             ++attempt) {
          if (attempt > 0) {
            {
              MutexLock lock(counters_mu_);
              ++counters.task_retries;
            }
            // A fresh attempt rewrites its output file.
            (void)options_.dfs->Delete(spec.output_dir + "/part-r-" +
                                       std::to_string(r));
          }
          st = RunReduceTask(spec, r, node,
                             clients[static_cast<size_t>(node)].get(),
                             sources, &counters);
          if (st.ok()) break;
          JBS_WARN << "reduce task " << r << " attempt " << attempt
                   << " failed: " << st.ToString();
        }
        record_error(st);
      });
    }
    pool.Shutdown();
  }
  stop_all();
  if (!first_error.ok()) return first_error;

  for (const auto& client : clients) {
    counters.shuffle_bytes += client->stats().bytes_fetched;
  }
  counters.reduce_phase_sec = SecondsSince(reduce_start);
  counters.total_sec = SecondsSince(job_start);
  std::sort(counters.output_files.begin(), counters.output_files.end());
  JBS_INFO << "job '" << spec.name << "' done: " << counters.map_tasks
           << " maps, " << counters.reduce_tasks << " reducers, "
           << counters.total_sec << "s";
  return counters;
}

}  // namespace jbs::mr
