#include "jbs/net_merger.h"

#include <algorithm>
#include <optional>

#include "common/bytes.h"
#include "common/compress.h"
#include "common/logging.h"
#include "jbs/protocol.h"

namespace jbs::shuffle {

namespace {

/// Remote-node connections a merger keeps open; the least recently used is
/// closed past this (the paper's cap of 512).
constexpr size_t kConnectionCacheCapacity = 512;

}  // namespace

/// One attempt's outcome. `fault` says how a failure settles; it is set
/// where the error is created.
struct NetMerger::Attempt {
  enum class Fault {
    kTransient,  // the conversation failed: retry after backoff
    kConnect,    // the dial failed: retry, charged as a connect fault
    kCorrupt,    // bad chunk CRC or payload: retry, charged as corruption
    kPermanent,  // the supplier answered kFetchError: fail over, no retry
    kBusy,       // the supplier shed the request: pushback, not a failure
    kFinal,      // stopping, or the fetch deadline ran out
  };

  StatusOr<FetchedSegment> result = Unavailable("not fetched");
  Fault fault = Fault::kTransient;
  uint32_t retry_after_ms = 0;  // kBusy: the supplier's hint
};

NetMerger::NetMerger(Options options)
    : options_(options),
      connections_(options.transport, kConnectionCacheCapacity,
                   options.connection_idle_ms),
      rng_(options.backoff_jitter_seed) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (options_.trace != nullptr) {
    trace_ = options_.trace;
  } else {
    owned_trace_ = std::make_unique<TraceRecorder>();
    trace_ = owned_trace_.get();
  }
  // shuffle_* names are shared with the baseline MofCopierClient (same
  // instrumentation, different `client` label) so JBS-vs-baseline
  // comparisons read one exposition; jbs_netmerger_* are JBS-internal.
  const MetricLabels base = BaseLabels();
  fetches_c_ = metrics_->GetCounter("shuffle_fetches_total", base);
  bytes_fetched_c_ = metrics_->GetCounter("shuffle_bytes_fetched_total", base);
  connections_opened_c_ =
      metrics_->GetCounter("shuffle_connections_opened_total", base);
  fetch_errors_c_ = metrics_->GetCounter("shuffle_fetch_errors_total", base);
  fetch_latency_ms_h_ =
      metrics_->GetHistogram("shuffle_fetch_latency_ms", base);
  chunks_c_ = metrics_->GetCounter("jbs_netmerger_chunks_total", base);
  node_switches_c_ =
      metrics_->GetCounter("jbs_netmerger_node_switches_total", base);
  fetch_retries_c_ =
      metrics_->GetCounter("jbs_netmerger_fetch_retries_total", base);
  deadline_expiries_c_ =
      metrics_->GetCounter("jbs_netmerger_deadline_expiries_total", base);
  fetch_attempts_h_ =
      metrics_->GetHistogram("jbs_netmerger_fetch_attempts", base);
  chunks_corrupt_c_ =
      metrics_->GetCounter("jbs_netmerger_chunks_corrupt_total", base);
  chunks_compressed_c_ =
      metrics_->GetCounter("jbs_netmerger_chunks_compressed_total", base);
  failovers_c_ = metrics_->GetCounter("jbs_netmerger_failovers_total", base);
  pushback_c_ = metrics_->GetCounter("jbs_netmerger_pushback_total", base);
  stats_base_ = {fetches_c_->value(), bytes_fetched_c_->value(),
                 connections_opened_c_->value()};
  health_ = std::make_unique<NodeHealthTracker>(options_.health, metrics_,
                                                base);
  workers_.reserve(static_cast<size_t>(options_.data_threads));
  for (int i = 0; i < options_.data_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MetricLabels NetMerger::BaseLabels() const {
  MetricLabels labels{{"client", "netmerger"}};
  if (!options_.instance.empty()) {
    labels.emplace_back("instance", options_.instance);
  }
  return labels;
}

void NetMerger::SetQueueDepth(const std::string& node, size_t depth) {
  MetricLabels labels = BaseLabels();
  labels.emplace_back("node", node);
  metrics_->GetGauge("jbs_netmerger_queue_depth", std::move(labels))
      ->Set(static_cast<double>(depth));
}

void NetMerger::RefreshConnectionGauges() const {
  const net::ConnectionManager::Stats cs = connections_.stats();
  const MetricLabels base = BaseLabels();
  const auto set = [&](const char* name, double v) {
    metrics_->GetGauge(name, base)->Set(v);
  };
  set("jbs_connmgr_hits", static_cast<double>(cs.hits));
  set("jbs_connmgr_misses", static_cast<double>(cs.misses));
  set("jbs_connmgr_evictions", static_cast<double>(cs.evictions));
  set("jbs_connmgr_dial_failures", static_cast<double>(cs.dial_failures));
  set("jbs_connmgr_idle_evictions", static_cast<double>(cs.idle_evictions));
  set("jbs_connmgr_active_connections",
      static_cast<double>(connections_.active_connections()));
}

NetMerger::~NetMerger() { Stop(); }

void NetMerger::Stop() {
  std::map<std::string, std::deque<FetchTask>> orphans;
  {
    MutexLock lock(sched_mu_);
    if (stopping_) return;
    stopping_ = true;
    cancelled_.store(true);
    orphans.swap(node_queues_);
  }
  work_cv_.NotifyAll();
  // Wake data threads blocked in Send/Receive and make any racing dial
  // fail fast.
  connections_.Shutdown();
  // Fail every queued task, waiting retries included, so its caller
  // unblocks; in-flight tasks settle once their connection dies.
  for (auto& [node, queue] : orphans) {
    for (FetchTask& task : queue) {
      CompleteTask(task, Unavailable("NetMerger stopped"));
    }
    SetQueueDepth(node, 0);
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  RefreshConnectionGauges();
}

mr::ShuffleClient::Stats NetMerger::stats() const {
  Stats out;
  out.fetches = fetches_c_->value() - stats_base_.fetches;
  out.bytes_fetched = bytes_fetched_c_->value() - stats_base_.bytes_fetched;
  out.connections_opened =
      connections_opened_c_->value() - stats_base_.connections_opened;
  return out;
}

NodeState NetMerger::node_health(const std::string& node) {
  return health_->state(node);
}

size_t NetMerger::pending_node_count() const {
  MutexLock lock(sched_mu_);
  return node_queues_.size();
}

StatusOr<std::unique_ptr<mr::RecordStream>> NetMerger::FetchAndMerge(
    int partition, const std::vector<mr::MofLocation>& sources) {
  // Duplicate locations for one map are either exact duplicates (a
  // speculative attempt reported twice — collapse to one fetch, since
  // fetching twice would consume the stored bytes twice) or replicas:
  // distinct nodes that each hold a copy of the map's output. Replicas
  // become failover alternates — the fetch reroutes to the next copy when
  // its current node exhausts attempts or sits in the penalty box.
  struct Replica {
    mr::MofLocation primary;
    std::vector<mr::MofLocation> alternates;
  };
  std::vector<Replica> unique;
  unique.reserve(sources.size());
  {
    std::map<int, size_t> by_map;  // map_task -> index into `unique`
    for (const mr::MofLocation& source : sources) {
      auto [it, inserted] = by_map.emplace(source.map_task, unique.size());
      if (inserted) {
        unique.push_back(Replica{source, {}});
        continue;
      }
      Replica& replica = unique[it->second];
      const auto same_place = [&](const mr::MofLocation& loc) {
        return loc.host == source.host && loc.port == source.port &&
               loc.node == source.node;
      };
      if (same_place(replica.primary) ||
          std::any_of(replica.alternates.begin(), replica.alternates.end(),
                      same_place)) {
        continue;  // exact duplicate
      }
      replica.alternates.push_back(source);
    }
  }

  auto context = std::make_shared<CallContext>();
  {
    // Not yet shared with any worker, but `remaining` is guarded and this
    // is nowhere near a hot path: take the lock rather than carve out an
    // escape hatch.
    MutexLock context_lock(context->mu);
    context->remaining = unique.size();
  }
  {
    MutexLock lock(sched_mu_);
    if (stopping_) return Unavailable("NetMerger stopped");
    // Consolidation: requests are grouped by target node, ordered by
    // arrival within each group.
    for (const Replica& replica : unique) {
      const uint64_t fetch_id = trace_->BeginFetch();
      trace_->Record(fetch_id, TraceEvent::kQueued, replica.primary.map_task);
      FetchTask task;
      task.source = replica.primary;
      task.partition = partition;
      task.fetch_id = fetch_id;
      task.context = context;
      task.alternates = replica.alternates;
      // Initial routing: prefer the first replica not currently serving a
      // penalty sentence. If every copy is boxed, queue on the primary and
      // let the scheduler wait out the earliest release.
      if (health_->penalized(NodeKey(task.source))) {
        if (const auto healthy = HealthyAlternate(task)) {
          std::swap(task.source, task.alternates[*healthy]);
        }
      }
      PushLocked(std::move(task));
    }
  }
  work_cv_.NotifyAll();

  MutexLock lock(context->mu);
  while (context->remaining != 0) context->done_cv.Wait(lock);
  if (!context->error.ok()) return context->error;

  // Network-levitated merge: all segments live in memory; merge directly.
  std::vector<std::unique_ptr<mr::RecordStream>> streams;
  streams.reserve(unique.size());
  for (const Replica& replica : unique) {
    auto it = context->segments.find(replica.primary.map_task);
    if (it == context->segments.end()) {
      return Internal("segment missing for map " +
                      std::to_string(replica.primary.map_task));
    }
    auto stream = mr::OpenSegment(std::move(it->second.bytes),
                                  it->second.compressed);
    JBS_RETURN_IF_ERROR(stream.status());
    streams.push_back(std::move(stream).value());
  }
  return std::unique_ptr<mr::RecordStream>(
      std::make_unique<mr::KWayMerger>(std::move(streams)));
}

bool NetMerger::NextTask(std::string* node, FetchTask* task) {
  MutexLock lock(sched_mu_);
  for (;;) {
    if (stopping_) return false;
    // Reroute queued work off penalized nodes: a task with a healthy
    // replica should not wait out another node's sentence. Bounded by the
    // per-task reroute budget so two half-dead replicas can't ping-pong a
    // task forever.
    std::vector<FetchTask> moved;
    for (auto it = node_queues_.begin(); it != node_queues_.end();) {
      auto& [key, queue] = *it;
      if (!health_->penalized(key)) {
        ++it;
        continue;
      }
      for (auto qit = queue.begin(); qit != queue.end();) {
        std::optional<size_t> healthy;
        if (!qit->retrying() && qit->reroutes < options_.max_failovers) {
          healthy = HealthyAlternate(*qit);
        }
        if (!healthy) {
          ++qit;
          continue;
        }
        FailOver(*qit, *healthy);
        moved.push_back(std::move(*qit));
        qit = queue.erase(qit);
      }
      SetQueueDepth(key, queue.size());
      it = queue.empty() ? node_queues_.erase(it) : std::next(it);
    }
    for (FetchTask& rerouted : moved) {
      PushLocked(std::move(rerouted));
    }
    // Candidate nodes: nonempty queue, not currently serviced by another
    // data thread (one in-flight conversation per connection), front task
    // past its delay, and not in the penalty box unless that task is
    // between retries. `wake` is the earliest moment a skipped node opens.
    const Clock::time_point now = Clock::now();
    std::optional<Clock::time_point> wake;
    const auto wake_by = [&](Clock::time_point t) {
      if (!wake || t < *wake) wake = t;
    };
    bool skipped_penalized = false;
    auto claimable = [&](const std::string& key,
                         const std::deque<FetchTask>& queue) {
      if (queue.empty() || busy_nodes_.contains(key)) return false;
      const FetchTask& front = queue.front();
      if (front.not_before > now) {
        wake_by(front.not_before);
        return false;
      }
      if (!front.retrying() && health_->penalized(key)) {
        skipped_penalized = true;
        return false;
      }
      return true;
    };
    auto take_from = [&](const std::string& key,
                         std::deque<FetchTask>& queue) {
      *node = key;
      *task = std::move(queue.front());
      queue.pop_front();
      busy_nodes_.insert(key);
      if (options_.round_robin) rr_last_ = key;
      SetQueueDepth(key, queue.size());
      // Erase drained queues: otherwise node_queues_ keeps one tombstone
      // entry per remote node ever fetched from for the job's lifetime.
      // (*node is the surviving copy; `key` dangles after the erase.)
      if (queue.empty()) node_queues_.erase(*node);
      return true;
    };
    if (options_.round_robin && !node_queues_.empty()) {
      // Start scanning strictly after the last serviced node, wrapping.
      auto start = node_queues_.upper_bound(rr_last_);
      for (size_t i = 0; i < node_queues_.size(); ++i) {
        if (start == node_queues_.end()) start = node_queues_.begin();
        if (claimable(start->first, start->second)) {
          return take_from(start->first, start->second);
        }
        ++start;
      }
    } else {
      // FIFO-by-key-order (the unbalanced policy JBS replaces).
      for (auto& [key, queue] : node_queues_) {
        if (claimable(key, queue)) {
          return take_from(key, queue);
        }
      }
    }
    if (skipped_penalized) {
      // Sleep no longer than until the box next opens. A sentence that
      // expired since the scan rescans at once.
      wake_by(health_->earliest_release().value_or(now));
    }
    if (wake) {
      (void)work_cv_.WaitUntil(lock, *wake);
    } else {
      work_cv_.Wait(lock);
    }
  }
}

void NetMerger::WorkerLoop() {
  std::string node;
  FetchTask task;
  std::string last_node;
  while (NextTask(&node, &task)) {
    if (node != last_node && !last_node.empty()) {
      node_switches_c_->Increment();
    }
    last_node = node;
    // Settle consumes the task, dropping the shared context before NextTask
    // blocks, so the FetchAndMerge caller is the last owner.
    Attempt attempt = RunAttempt(task);
    Settle(node, std::move(task), std::move(attempt));
    {
      MutexLock lock(sched_mu_);
      busy_nodes_.erase(node);
    }
    work_cv_.NotifyAll();
  }
}

int64_t NetMerger::NextBackoffMs(int attempt) {
  // Shared capped+jittered helper (common/rng.h): the shift is bounded
  // (`20 << 40` is UB on int and a multi-day delay besides) and the
  // jitter decorrelates retries hammering one recovering node.
  MutexLock lock(rng_mu_);
  return CappedJitteredBackoffMs(options_.retry_backoff_ms, attempt,
                                 options_.max_retry_backoff_ms, rng_);
}

int64_t NetMerger::PushbackDelayMs(uint32_t hint_ms) {
  // Honor the server's hint but desynchronize: every shed merger got
  // roughly the same hint, and returning in lockstep would re-create the
  // queue spike that caused the shed. Jitter adds up to +50%.
  int64_t delay = std::max<int64_t>(1, hint_ms);
  {
    MutexLock lock(rng_mu_);
    delay += static_cast<int64_t>(
        rng_.Below(static_cast<uint64_t>(delay / 2 + 1)));
  }
  if (options_.max_retry_backoff_ms > 0) {
    delay = std::min<int64_t>(delay, options_.max_retry_backoff_ms);
  }
  return delay;
}

Status NetMerger::SendHello(net::Connection& conn,
                            const net::Deadline& deadline) {
  Hello hello;
  hello.version = kProtocolVersion;
  if (options_.advertise_wire_compress) hello.caps |= kCapWireCompression;
  return conn.Send(EncodeHello(hello), deadline);
}

NetMerger::Attempt NetMerger::RunAttempt(FetchTask& task) {
  // One deadline budgets the whole fetch — retries and replica failovers
  // included — so a silent peer costs bounded time, not attempts x
  // timeout x replicas.
  if (!task.deadline_armed) {
    task.deadline = net::Deadline::AfterMs(options_.fetch_deadline_ms);
    task.deadline_armed = true;
  }
  if (!task.retrying()) task.claimed = Clock::now();
  if (cancelled_.load()) {
    return {Unavailable("NetMerger stopped"), Attempt::Fault::kFinal};
  }
  if (task.deadline.expired()) {
    deadline_expiries_c_->Increment();
    return {DeadlineExceeded("fetch deadline exhausted for map " +
                             std::to_string(task.source.map_task)),
            Attempt::Fault::kFinal};
  }
  const net::Deadline dial_deadline = net::Deadline::Sooner(
      task.deadline, net::Deadline::AfterMs(options_.connect_timeout_ms));
  bool dialed = false;
  auto conn = connections_.GetOrConnect(task.source.host, task.source.port,
                                        dial_deadline, &dialed);
  // The manager is the sole authority on whether this lookup opened a
  // connection, so each dial is counted once.
  if (dialed) connections_opened_c_->Increment();
  if (!conn.ok()) return {conn.status(), Attempt::Fault::kConnect};
  trace_->Record(task.fetch_id, TraceEvent::kDialed, task.attempts + 1);
  // The capability hello goes out once per connection, not per fetch — a
  // cache hit reuses a socket the server already knows.
  const Status hello = dialed ? SendHello(**conn, dial_deadline)
                              : Status::Ok();
  Attempt attempt;
  attempt.result = hello.ok()
                       ? FetchSegment(**conn, task, task.deadline, &attempt)
                       : StatusOr<FetchedSegment>(hello);
  // A failed connection is never reused. Without consolidation (the
  // Hadoop-style ablation) none is: each fetch dials its own.
  if (!attempt.result.ok() || !options_.consolidate) {
    connections_.Invalidate(task.source.host, task.source.port);
  }
  return attempt;
}

void NetMerger::Settle(const std::string& node, FetchTask task,
                       Attempt attempt) {
  using Fault = Attempt::Fault;
  const Fault fault = attempt.fault;
  const bool failed = !attempt.result.ok();
  const bool cancelled = cancelled_.load();
  // Puts the task back at the front of its node's queue, not claimable
  // for `delay_ms`, clamped so the wait never overruns the fetch deadline.
  const auto retry_after = [&](int64_t delay_ms) {
    delay_ms = std::min(delay_ms, task.deadline.remaining_ms());
    task.not_before = Clock::now() + std::chrono::milliseconds(delay_ms);
    Requeue(std::move(task));
  };
  const bool busy = failed && fault == Fault::kBusy && !cancelled;
  if (busy) pushback_c_->Increment();
  if (busy && task.pushbacks < options_.pushback_retry_budget) {
    // Server pushback (DESIGN.md §16): the supplier shed this request
    // under admission control. No attempt is spent and no health
    // bookkeeping runs — the node is healthy, just saturated. The task
    // waits out the retry-after hint, against the pushback budget.
    ++task.pushbacks;
    trace_->Record(task.fetch_id, TraceEvent::kRetry, task.attempts);
    return retry_after(PushbackDelayMs(attempt.retry_after_ms));
  }
  ++task.attempts;
  if (!cancelled && (!failed || fault == Fault::kPermanent || busy)) {
    // The node is alive and speaking protocol: streak cleared.
    health_->RecordSuccess(node);
  }
  // A success, a stop, an expired deadline and a spent pushback budget
  // complete the task. Pushback never promotes a replica: every copy of a
  // hot partition is likely saturated too, and rerouting just spreads the
  // overload.
  const bool settled = !failed || cancelled || fault == Fault::kFinal || busy;
  if (!settled && fault != Fault::kPermanent) {
    // Every transient failure counts against the node. A fresh penalty
    // sentence also evicts the cached connection so the first fetch after
    // release re-dials instead of inheriting a wedged socket.
    using Failure = NodeHealthTracker::Failure;
    const Failure kind =
        fault == Fault::kConnect   ? Failure::kConnect
        : fault == Fault::kCorrupt ? Failure::kCorrupt
        : attempt.result.status().code() == StatusCode::kDeadlineExceeded
            ? Failure::kTimeout
            : Failure::kOther;
    if (health_->RecordFailure(node, kind)) {
      connections_.Invalidate(task.source.host, task.source.port);
    }
    if (task.attempts < options_.max_fetch_attempts) {
      fetch_retries_c_->Increment();
      trace_->Record(task.fetch_id, TraceEvent::kRetry, task.attempts);
      return retry_after(NextBackoffMs(task.attempts));
    }
  }
  // Out of attempts on this node, or a permanent verdict (retrying the
  // node cannot heal it): fail over to a replica — preferably one not
  // serving a sentence; failing that, the first one anyway, since its box
  // may open before this node heals.
  if (!settled && !task.alternates.empty() &&
      task.reroutes < options_.max_failovers && !task.deadline.expired()) {
    JBS_DEBUG << "failover: map " << task.source.map_task << " from " << node
              << " after: " << attempt.result.status().message();
    FailOver(task, HealthyAlternate(task).value_or(0));
    Requeue(std::move(task));
    return;
  }
  fetch_latency_ms_h_->Observe(std::chrono::duration<double, std::milli>(
                                   Clock::now() - task.claimed)
                                   .count());
  fetch_attempts_h_->Observe(static_cast<double>(task.attempts));
  CompleteTask(task, std::move(attempt.result));
}

std::optional<size_t> NetMerger::HealthyAlternate(const FetchTask& task) {
  for (size_t i = 0; i < task.alternates.size(); ++i) {
    if (!health_->penalized(NodeKey(task.alternates[i]))) return i;
  }
  return std::nullopt;
}

void NetMerger::FailOver(FetchTask& task, size_t index) {
  std::swap(task.source, task.alternates[index]);
  ++task.reroutes;
  task.attempts = 0;
  task.pushbacks = 0;
  task.not_before = {};
  failovers_c_->Increment();
  trace_->Record(task.fetch_id, TraceEvent::kFailover,
                 static_cast<int64_t>(task.alternates.size()));
}

void NetMerger::PushLocked(FetchTask task) {
  const std::string node = NodeKey(task.source);
  auto& queue = node_queues_[node];
  if (task.retrying()) {
    queue.push_front(std::move(task));
  } else {
    queue.push_back(std::move(task));
  }
  SetQueueDepth(node, queue.size());
}

void NetMerger::Requeue(FetchTask task) {
  {
    MutexLock lock(sched_mu_);
    if (!stopping_) {
      PushLocked(std::move(task));
      return;
    }
  }
  // Stop() already drained the queues; cancelled_ is set, so this is not
  // counted as a fetch error.
  CompleteTask(task, Unavailable("NetMerger stopped"));
}

StatusOr<NetMerger::FetchedSegment> NetMerger::FetchSegment(
    net::Connection& conn, const FetchTask& task,
    const net::Deadline& deadline, Attempt* attempt) {
  FetchedSegment fetched;
  std::vector<uint8_t>& segment = fetched.bytes;
  // Per-chunk counters accumulate locally and fold into the registry once
  // per segment, so a multi-chunk fetch issues one atomic add per counter,
  // not one per round trip.
  uint64_t local_chunks = 0;
  uint64_t local_bytes = 0;

  // Each wire operation gets the tighter of the fetch budget and the
  // per-chunk timeout; the chunk clock restarts per operation, so a slow
  // *peer* trips it but a long multi-chunk segment does not.
  const auto op_deadline = [&] {
    return net::Deadline::Sooner(
        deadline, net::Deadline::AfterMs(options_.chunk_timeout_ms));
  };

  const auto send_request = [&](uint64_t offset) -> Status {
    FetchRequest request;
    request.map_task = task.source.map_task;
    request.partition = task.partition;
    request.offset = offset;
    request.max_len = static_cast<uint32_t>(options_.chunk_size);
    return conn.Send(EncodeRequest(request), op_deadline());
  };
  // Receives one data reply, validating it continues the segment at
  // `expect_offset`; appends the payload and returns its size.
  const auto receive_chunk = [&](uint64_t expect_offset,
                                 uint64_t* total) -> StatusOr<uint64_t> {
    auto reply = conn.Receive(op_deadline());
    JBS_RETURN_IF_ERROR(reply.status());
    if (reply->type == kFetchError) {
      auto error = DecodeError(*reply);
      attempt->fault = Attempt::Fault::kPermanent;
      return IoError("fetch error: " +
                     (error ? error->message : "undecodable"));
    }
    if (reply->type == kErrorBusy) {
      // Checked before any data decode, so a busy frame can never reach
      // the CRC verifier and masquerade as chunk corruption.
      auto busy = DecodeBusy(*reply);
      if (!busy) return IoError("undecodable busy frame");
      attempt->fault = Attempt::Fault::kBusy;
      attempt->retry_after_ms = busy->retry_after_ms;
      return ResourceExhausted(
          "server busy: map " + std::to_string(task.source.map_task) +
          " shed, retry after " + std::to_string(busy->retry_after_ms) +
          "ms");
    }
    std::span<const uint8_t> data;
    auto header = DecodeData(*reply, &data);
    if (!header) return IoError("undecodable fetch data frame");
    if (options_.verify_crc && (header->flags & kChunkHasCrc) != 0) {
      // End-to-end integrity: recompute the wire CRC (header fields folded
      // over the payload CRC) before any byte can enter the merge. Runs
      // before the sequence check so a flipped offset or length field is
      // attributed to corruption, not to a confused server.
      const uint32_t got = ChunkWireCrc(*header, Crc32(data));
      if (got != header->crc32) {
        chunks_corrupt_c_->Increment();
        trace_->Record(task.fetch_id, TraceEvent::kCorrupt,
                       static_cast<int64_t>(header->offset));
        attempt->fault = Attempt::Fault::kCorrupt;
        return IoError("chunk CRC mismatch for map " +
                       std::to_string(task.source.map_task) + " at offset " +
                       std::to_string(header->offset));
      }
    }
    if (header->map_task != task.source.map_task ||
        header->partition != task.partition ||
        header->offset != expect_offset) {
      return Internal("fetch reply out of sequence");
    }
    *total = header->segment_total;
    fetched.compressed = (header->flags & kSegmentCompressed) != 0;
    // Wire compression: the CRC above covered the compressed payload, so
    // a damaged chunk was already rejected without paying for this
    // decompress. Offsets stay in logical coordinates — only the payload
    // shrank — so the stride/window bookkeeping below never notices.
    uint64_t logical = data.size();
    if ((header->flags & kChunkCompressed) != 0) {
      auto decoded = Decompress(data);
      if (!decoded.ok()) {
        // A payload that passed its CRC but won't decompress means the
        // supplier shipped damaged bytes — charged like wire corruption.
        chunks_corrupt_c_->Increment();
        trace_->Record(task.fetch_id, TraceEvent::kCorrupt,
                       static_cast<int64_t>(header->offset));
        attempt->fault = Attempt::Fault::kCorrupt;
        return IoError("chunk decompress failed for map " +
                       std::to_string(task.source.map_task) + " at offset " +
                       std::to_string(header->offset) + ": " +
                       decoded.status().message());
      }
      // The server must honor our max_len ask and the segment bound in
      // logical bytes; a violation here is a protocol breach, not line
      // noise, so it is not retried as corruption.
      if (decoded->size() > options_.chunk_size ||
          expect_offset + decoded->size() > header->segment_total) {
        return Internal("compressed chunk overruns its logical bounds");
      }
      logical = decoded->size();
      chunks_compressed_c_->Increment();
      segment.insert(segment.end(), decoded->begin(), decoded->end());
    } else {
      segment.insert(segment.end(), data.begin(), data.end());
    }
    ++local_chunks;
    local_bytes += logical;
    trace_->Record(task.fetch_id, TraceEvent::kChunkReceived,
                   static_cast<int64_t>(logical));
    return logical;
  };

  // First chunk alone: it establishes segment_total (so the segment vector
  // is reserved once instead of reallocating per chunk) and the server's
  // chunk stride (the server may cap below our chunk_size ask).
  JBS_RETURN_IF_ERROR(send_request(0));
  trace_->Record(task.fetch_id, TraceEvent::kRequestSent);
  uint64_t total = 0;
  auto first = receive_chunk(0, &total);
  JBS_RETURN_IF_ERROR(first.status());
  segment.reserve(total);
  uint64_t offset = *first;
  if (offset < total) {
    if (*first == 0) return Internal("server made no progress");
    const uint64_t stride = *first;
    // Windowed pipelining: keep up to fetch_window chunk requests in
    // flight so the server's disk stage works ahead of the network and
    // each reply costs far less than a full round trip. fetch_window = 1
    // degrades to the seed's stop-and-wait ping-pong.
    const int window = std::max(1, options_.fetch_window);
    uint64_t next_send = offset;
    int in_flight = 0;
    while (offset < total) {
      while (in_flight < window && next_send < total) {
        JBS_RETURN_IF_ERROR(send_request(next_send));
        next_send += stride;
        ++in_flight;
      }
      auto chunk = receive_chunk(offset, &total);
      JBS_RETURN_IF_ERROR(chunk.status());
      if (*chunk == 0) return Internal("server made no progress");
      offset += *chunk;
      --in_flight;
    }
  }
  chunks_c_->Increment(local_chunks);
  bytes_fetched_c_->Increment(local_bytes);
  fetches_c_->Increment();
  return fetched;
}

void NetMerger::CompleteTask(const FetchTask& task,
                             StatusOr<FetchedSegment> result) {
  std::shared_ptr<CallContext> context = task.context;
  MutexLock lock(context->mu);
  if (result.ok()) {
    trace_->Record(task.fetch_id, TraceEvent::kMerged,
                   static_cast<int64_t>(result->bytes.size()));
    context->segments[task.source.map_task] = std::move(result).value();
  } else {
    trace_->Record(task.fetch_id, TraceEvent::kFailed,
                   static_cast<int64_t>(result.status().code()));
    if (context->error.ok()) context->error = result.status();
    if (!cancelled_.load()) {
      // Tasks drained by Stop() aren't fetch failures; count only fetches
      // that genuinely exhausted their attempts.
      fetch_errors_c_->Increment();
    }
  }
  --context->remaining;
  if (context->remaining == 0) context->done_cv.NotifyAll();
}

}  // namespace jbs::shuffle
