#include "probe.h"

#include <chrono>

namespace jobbench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// Bumped by every BeginJob/EndJob of every probe, so a thread's cached
// slot from an earlier job (or another probe) is never reused.
std::atomic<uint64_t> g_generation{1};

// The reducer whose merged stream this thread is draining. The engine
// calls FetchAndMerge, the reduce function and the stream's destructor on
// one reduce-slot thread, so reduce-function time lands on its reducer.
thread_local ReduceTaskSample* tl_task = nullptr;

}  // namespace

struct alignas(64) ProbePlugin::FnSlot {
  int64_t map_ns = 0;
  int64_t combine_ns = 0;
};

class ProbePlugin::Stream final : public jbs::mr::RecordStream {
 public:
  Stream(ProbePlugin* probe, std::unique_ptr<jbs::mr::RecordStream> inner,
         const ReduceTaskSample& sample, bool traced, bool drop_first)
      : probe_(probe),
        inner_(std::move(inner)),
        sample_(sample),
        traced_(traced),
        drop_first_(drop_first) {
    if (traced_) tl_task = &sample_;
  }
  ~Stream() override {
    if (!traced_) return;
    if (tl_task == &sample_) tl_task = nullptr;
    sample_.end_us = NowUs();
    probe_->AddReduceTask(sample_);
  }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  bool Next(jbs::mr::Record* record) override {
    if (drop_first_) {
      drop_first_ = false;
      jbs::mr::Record dropped;
      if (!TimedNext(&dropped)) return false;
    }
    return TimedNext(record);
  }
  const jbs::Status& status() const override { return inner_->status(); }

 private:
  bool TimedNext(jbs::mr::Record* record) {
    if (!traced_) return inner_->Next(record);
    const auto start = Clock::now();
    const bool more = inner_->Next(record);
    sample_.merge_ns += NanosSince(start);
    ++sample_.merge_calls;
    return more;
  }

  ProbePlugin* probe_;
  std::unique_ptr<jbs::mr::RecordStream> inner_;
  ReduceTaskSample sample_;
  const bool traced_;
  bool drop_first_;
};

class ProbePlugin::Server final : public jbs::mr::ShuffleServer {
 public:
  Server(ProbePlugin* probe, int node,
         std::unique_ptr<jbs::mr::ShuffleServer> inner)
      : probe_(probe), node_(node), inner_(std::move(inner)) {}

  jbs::Status Start() override {
    const int64_t start = NowUs();
    jbs::Status st = inner_->Start();
    const int64_t end = NowUs();
    probe_->start_ns_.fetch_add((end - start) * 1000);
    probe_->AddSpan("server_start", probe_->ids_.job_span, start, end,
                    "\"node\":" + std::to_string(node_));
    return st;
  }
  uint16_t port() const override { return inner_->port(); }
  jbs::Status PublishMof(const jbs::mr::MofHandle& handle) override {
    const int64_t start = NowUs();
    jbs::Status st = inner_->PublishMof(handle);
    const int64_t end = NowUs();
    probe_->publish_ns_.fetch_add((end - start) * 1000);
    probe_->AddSpan("publish", probe_->ids_.map_phase, start, end,
                    "\"map\":" + std::to_string(handle.map_task));
    return st;
  }
  void Stop() override {
    const int64_t start = NowUs();
    inner_->Stop();
    const int64_t end = NowUs();
    probe_->stop_ns_.fetch_add((end - start) * 1000);
    probe_->AddSpan("stop", probe_->ids_.reduce_phase, start, end,
                    "\"side\":\"server\",\"node\":" + std::to_string(node_));
  }
  Stats stats() const override { return inner_->stats(); }

 private:
  ProbePlugin* probe_;
  const int node_;
  std::unique_ptr<jbs::mr::ShuffleServer> inner_;
};

class ProbePlugin::Client final : public jbs::mr::ShuffleClient {
 public:
  Client(ProbePlugin* probe, int node,
         std::unique_ptr<jbs::mr::ShuffleClient> inner)
      : probe_(probe),
        node_(node),
        inner_(std::move(inner)),
        base_(inner_->stats()) {}
  ~Client() override { Account(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  jbs::StatusOr<std::unique_ptr<jbs::mr::RecordStream>> FetchAndMerge(
      int partition,
      const std::vector<jbs::mr::MofLocation>& sources) override {
    ReduceTaskSample sample;
    sample.partition = partition;
    sample.start_us = NowUs();
    auto merged = inner_->FetchAndMerge(partition, sources);
    sample.fetch_end_us = NowUs();
    {
      jbs::MutexLock lock(probe_->mu_);
      probe_->fetch_wait_s_.push_back(
          static_cast<double>(sample.fetch_end_us - sample.start_us) / 1e6);
    }
    const bool drop = probe_->drop_first_record_ && partition == 0;
    if (!merged.ok() || (!probe_->traced() && !drop)) return merged;
    return std::unique_ptr<jbs::mr::RecordStream>(std::make_unique<Stream>(
        probe_, std::move(merged).value(), sample, probe_->traced(), drop));
  }

  void Stop() override {
    const int64_t start = NowUs();
    inner_->Stop();
    const int64_t end = NowUs();
    probe_->stop_ns_.fetch_add((end - start) * 1000);
    probe_->AddSpan("stop", probe_->ids_.reduce_phase, start, end,
                    "\"side\":\"client\",\"node\":" + std::to_string(node_));
    Account();
  }
  Stats stats() const override { return inner_->stats(); }

 private:
  // Folds this client's share of the shuffle into the job: the delta of
  // ShuffleClient::stats() since creation. A delta, because some plug-ins
  // back stats() with per-node counters shared by every client they make.
  void Account() {
    if (accounted_) return;
    accounted_ = true;
    const Stats now = inner_->stats();
    probe_->fetches_.fetch_add(now.fetches - base_.fetches);
    probe_->bytes_fetched_.fetch_add(now.bytes_fetched - base_.bytes_fetched);
  }

  ProbePlugin* probe_;
  const int node_;
  std::unique_ptr<jbs::mr::ShuffleClient> inner_;
  const Stats base_;
  bool accounted_ = false;
};

ProbePlugin::ProbePlugin(jbs::mr::ShufflePlugin* inner, SpanLog* spans)
    : inner_(inner), spans_(spans) {}

ProbePlugin::~ProbePlugin() = default;

std::unique_ptr<jbs::mr::ShuffleServer> ProbePlugin::CreateServer(
    int node, const jbs::Config& conf) {
  return std::make_unique<Server>(this, node,
                                  inner_->CreateServer(node, conf));
}

std::unique_ptr<jbs::mr::ShuffleClient> ProbePlugin::CreateClient(
    int node, const jbs::Config& conf) {
  return std::make_unique<Client>(this, node,
                                  inner_->CreateClient(node, conf));
}

void ProbePlugin::BeginJob(const JobSpanIds& ids, bool traced) {
  ids_ = ids;
  traced_.store(traced && spans_ != nullptr);
  start_ns_ = 0;
  publish_ns_ = 0;
  stop_ns_ = 0;
  fetches_ = 0;
  bytes_fetched_ = 0;
  g_generation.fetch_add(1);
  jbs::MutexLock lock(mu_);
  fetch_wait_s_.clear();
  reduce_tasks_.clear();
  slots_.clear();
}

JobObservation ProbePlugin::EndJob() {
  g_generation.fetch_add(1);
  JobObservation obs;
  obs.start_s = static_cast<double>(start_ns_.load()) / 1e9;
  obs.publish_s = static_cast<double>(publish_ns_.load()) / 1e9;
  obs.stop_s = static_cast<double>(stop_ns_.load()) / 1e9;
  obs.fetches = fetches_.load();
  obs.bytes_fetched = bytes_fetched_.load();
  jbs::MutexLock lock(mu_);
  obs.fetch_wait_s = std::move(fetch_wait_s_);
  fetch_wait_s_.clear();
  obs.reduce_tasks = std::move(reduce_tasks_);
  reduce_tasks_.clear();
  for (const auto& slot : slots_) {
    obs.map_fn_s += static_cast<double>(slot->map_ns) / 1e9;
    obs.combine_s += static_cast<double>(slot->combine_ns) / 1e9;
  }
  slots_.clear();
  traced_.store(false);
  return obs;
}

ProbePlugin::FnSlot* ProbePlugin::Slot() {
  struct Cached {
    const ProbePlugin* owner = nullptr;
    uint64_t generation = 0;
    FnSlot* slot = nullptr;
  };
  thread_local Cached cached;
  const uint64_t generation = g_generation.load(std::memory_order_relaxed);
  if (cached.owner != this || cached.generation != generation) {
    auto slot = std::make_unique<FnSlot>();
    cached = Cached{this, generation, slot.get()};
    jbs::MutexLock lock(mu_);
    slots_.push_back(std::move(slot));
  }
  return cached.slot;
}

jbs::mr::JobSpec ProbePlugin::Wrap(const jbs::mr::JobSpec& spec) {
  jbs::mr::JobSpec wrapped = spec;
  wrapped.map = [this, inner = spec.map](std::string_view key,
                                         std::string_view value,
                                         jbs::mr::Emitter& out) {
    const auto start = Clock::now();
    inner(key, value, out);
    Slot()->map_ns += NanosSince(start);
  };
  if (spec.combine) {
    wrapped.combine = [this, inner = spec.combine](
                          const std::string& key,
                          const std::vector<std::string>& values,
                          jbs::mr::Emitter& out) {
      const auto start = Clock::now();
      inner(key, values, out);
      Slot()->combine_ns += NanosSince(start);
    };
  }
  wrapped.reduce = [inner = spec.reduce](
                       const std::string& key,
                       const std::vector<std::string>& values,
                       jbs::mr::Emitter& out) {
    const auto start = Clock::now();
    inner(key, values, out);
    if (tl_task != nullptr) {
      tl_task->reduce_ns += NanosSince(start);
      ++tl_task->reduce_calls;
    }
  };
  return wrapped;
}

uint64_t ProbePlugin::AddSpan(const char* name, uint64_t parent,
                              int64_t start_us, int64_t end_us,
                              std::string args) {
  if (!traced()) return 0;
  const uint64_t id = spans_->NewId();
  spans_->Add(Span{.id = id,
                   .parent = parent,
                   .job = ids_.job,
                   .name = name,
                   .start_us = start_us,
                   .end_us = end_us,
                   .tid = ThreadNumber(),
                   .args = std::move(args)});
  return id;
}

void ProbePlugin::AddReduceTask(const ReduceTaskSample& sample) {
  {
    jbs::MutexLock lock(mu_);
    reduce_tasks_.push_back(sample);
  }
  // The task span, then its children laid end to end inside it: the one
  // FetchAndMerge call, then the merged-stream and reduce-function time
  // aggregated over every record (they interleave record by record).
  const uint64_t task =
      AddSpan("reduce_task", ids_.reduce_phase, sample.start_us,
              sample.end_us,
              "\"partition\":" + std::to_string(sample.partition));
  AddSpan("fetch_wait", task, sample.start_us, sample.fetch_end_us);
  const int64_t merge_end = sample.fetch_end_us + sample.merge_ns / 1000;
  AddSpan("merge_next", task, sample.fetch_end_us, merge_end,
          "\"aggregated\":true,\"calls\":" +
              std::to_string(sample.merge_calls));
  AddSpan("reduce_fn", task, merge_end, merge_end + sample.reduce_ns / 1000,
          "\"aggregated\":true,\"calls\":" +
              std::to_string(sample.reduce_calls));
}

}  // namespace jobbench
