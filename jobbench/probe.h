// Decorators around the engine's shuffle plug-in boundary and the user
// functions of a JobSpec. They time every call the engine makes into a
// layer, from outside the program: ShuffleServer Start/PublishMof/Stop,
// ShuffleClient FetchAndMerge/Stop, RecordStream::Next of the merged
// stream, and JobSpec map/combine/reduce. Nothing under src/ knows they
// exist.
//
// One ProbePlugin wraps one inner plugin for a whole run. The benchmark
// brackets each job with BeginJob()/EndJob(); the jobs of one probe run
// strictly one after another.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "mapred/api.h"
#include "mapred/shuffle.h"
#include "spans.h"

namespace jobbench {

/// One reducer as seen from the plug-in boundary: from the FetchAndMerge
/// call to the destruction of the merged stream it returned.
struct ReduceTaskSample {
  int partition = 0;
  int64_t start_us = 0;
  int64_t fetch_end_us = 0;  // FetchAndMerge returned
  int64_t end_us = 0;        // merged stream destroyed
  int64_t merge_ns = 0;      // summed time inside merged-stream Next()
  int64_t reduce_ns = 0;     // summed time inside JobSpec::reduce
  uint64_t merge_calls = 0;
  uint64_t reduce_calls = 0;
};

/// Everything the decorators saw during one job.
struct JobObservation {
  // Plug-in boundary, per job (always collected: a few calls per task).
  double start_s = 0;    // summed ShuffleServer::Start
  double publish_s = 0;  // summed ShuffleServer::PublishMof
  double stop_s = 0;     // summed client + server Stop
  std::vector<double> fetch_wait_s;  // FetchAndMerge duration per reducer
  // ShuffleClient::stats() deltas, creation to Stop, summed over nodes.
  uint64_t fetches = 0;
  uint64_t bytes_fetched = 0;
  // Per-record layers (traced jobs only).
  std::vector<ReduceTaskSample> reduce_tasks;
  double map_fn_s = 0;
  double combine_s = 0;
};

class ProbePlugin final : public jbs::mr::ShufflePlugin {
 public:
  /// `spans` may be null when no job of this probe is traced.
  ProbePlugin(jbs::mr::ShufflePlugin* inner, SpanLog* spans);
  ~ProbePlugin() override;
  ProbePlugin(const ProbePlugin&) = delete;
  ProbePlugin& operator=(const ProbePlugin&) = delete;

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<jbs::mr::ShuffleServer> CreateServer(
      int node, const jbs::Config& conf) override;
  std::unique_ptr<jbs::mr::ShuffleClient> CreateClient(
      int node, const jbs::Config& conf) override;

  /// Fault injection for the benchmark's self-check: every job's merged
  /// stream for partition 0 silently loses its first record.
  void set_drop_first_record(bool drop) { drop_first_record_ = drop; }

  /// Starts a job. `traced` turns on spans and the per-record wrappers;
  /// `ids` are the job's span identifiers (ignored when untraced).
  void BeginJob(const JobSpanIds& ids, bool traced) EXCLUDES(mu_);
  JobObservation EndJob() EXCLUDES(mu_);

  /// Returns `spec` with map, combine and reduce wrapped in timers that
  /// report to this probe while a traced job runs.
  jbs::mr::JobSpec Wrap(const jbs::mr::JobSpec& spec);

 private:
  class Server;
  class Client;
  class Stream;
  struct FnSlot;

  bool traced() const { return traced_.load(std::memory_order_relaxed); }
  FnSlot* Slot() EXCLUDES(mu_);
  /// Records a span of the current job if it is traced; returns its id.
  uint64_t AddSpan(const char* name, uint64_t parent, int64_t start_us,
                   int64_t end_us, std::string args = {});
  void AddReduceTask(const ReduceTaskSample& sample) EXCLUDES(mu_);

  jbs::mr::ShufflePlugin* inner_;
  SpanLog* spans_;
  bool drop_first_record_ = false;
  std::atomic<bool> traced_{false};
  JobSpanIds ids_;

  // Per-call accumulators (nanoseconds), touched by task threads.
  std::atomic<int64_t> start_ns_{0};
  std::atomic<int64_t> publish_ns_{0};
  std::atomic<int64_t> stop_ns_{0};
  std::atomic<uint64_t> fetches_{0};
  std::atomic<uint64_t> bytes_fetched_{0};

  jbs::Mutex mu_;
  std::vector<double> fetch_wait_s_ GUARDED_BY(mu_);
  std::vector<ReduceTaskSample> reduce_tasks_ GUARDED_BY(mu_);
  // Per-thread map/combine accumulators, summed at EndJob once every task
  // thread of the job has been joined.
  std::vector<std::unique_ptr<FnSlot>> slots_ GUARDED_BY(mu_);
};

}  // namespace jobbench
