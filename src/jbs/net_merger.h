// NetMerger (§III-C): the native client half of JBS. One per node, shared
// by every ReduceTask on that node, replacing their MOFCopier thread pools.
// Fetch requests from all reducers are consolidated into one queue per
// remote node (so live connections scale with nodes, not copiers), ordered
// by arrival within a node, and injected round-robin across nodes to keep
// any one ReduceTask's burst from monopolizing the network. Fetched
// segments stay in memory and feed the network-levitated merge — no
// reduce-side spill.
//
// A data thread runs one attempt per claim. A failed attempt's task goes
// back to the front of its node's queue until its backoff or pushback
// delay passes, or to a replica's queue; the thread serves other nodes.
//
// Every wire operation is deadline-bounded: a fetch gets one time budget
// covering all retry attempts, each dial and each chunk round trip may be
// bounded tighter, and Stop() cancels everything in flight — queued and
// executing fetches complete with kUnavailable, so no FetchAndMerge caller
// is left blocked on a silent peer.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/rng.h"
#include "jbs/node_health.h"
#include "mapred/shuffle.h"
#include "transport/connection_manager.h"
#include "transport/deadline.h"
#include "transport/transport.h"

namespace jbs::shuffle {

class NetMerger final : public mr::ShuffleClient {
 public:
  struct Options {
    bool operator==(const Options&) const = default;

    net::Transport* transport = nullptr;  // required
    int data_threads = 3;                 // paper: 3 native threads
    size_t chunk_size = 128 * 1024;       // max bytes per fetch round trip
    int fetch_window = 4;  // chunk requests kept in flight per connection
                           // (1 = the seed's stop-and-wait ping-pong)
    bool consolidate = true;   // ablation: false = connection per fetch
    bool round_robin = true;   // ablation: false = drain nodes in key order
    int max_fetch_attempts = 3;      // transient-failure retries per fetch
    int retry_backoff_ms = 20;       // doubled per attempt, jittered
    int max_retry_backoff_ms = 2000;  // backoff ceiling (0 = uncapped)
    // Overload pushback (DESIGN.md §16): a kErrorBusy reply is not a
    // failure — the supplier shed the request under admission control.
    // Busy retries honor the server's retry-after hint (plus capped
    // jitter) and draw from this budget, a ledger separate from
    // max_fetch_attempts and from the fetch deadline, so a long overload
    // episode neither burns failure attempts nor converts into spurious
    // failovers / health penalties. Exhausting the budget completes the
    // fetch with kResourceExhausted (no failover — every replica of a hot
    // partition is likely saturated too, and hammering the next one only
    // spreads the overload).
    int pushback_retry_budget = 32;
    int64_t fetch_deadline_ms = 0;   // budget for one fetch incl. retries
                                     // (0 = unbounded)
    int64_t connect_timeout_ms = 0;  // per-dial bound (0 = unbounded)
    int64_t chunk_timeout_ms = 0;    // per chunk round trip (0 = unbounded)
    int64_t connection_idle_ms = 0;  // evict cached connections idle this
                                     // long (0 = LRU only)
    bool verify_crc = true;  // verify chunk CRCs before a byte enters the
                             // merge; a mismatch is a retryable fetch fault
    // Advertise kCapWireCompression in the hello sent on every fresh dial,
    // inviting the supplier to ship eligible chunks compressed (the merger
    // can always decompress — this knob exists for the ablation bench).
    // Whether chunks actually compress is the supplier's decision.
    bool advertise_wire_compress = true;
    // Penalty box (see node_health.h): consecutive failures against one
    // remote node mark it suspect, then penalized; injection routes around
    // a penalized node until its sentence expires.
    NodeHealthTracker::Options health;
    int max_failovers = 4;  // replica reroutes per fetch (bounds ping-pong
                            // between two half-dead replica holders)
    uint64_t backoff_jitter_seed = 0x6A6274735F6E6D32ull;  // deterministic
    // Observability: a shared MetricsRegistry / TraceRecorder (e.g. the
    // plugin's, so client and server publish into one exposition), or
    // nullptr for a private one owned by this merger. `instance`
    // distinguishes per-instance gauges when the registry is shared.
    MetricsRegistry* metrics = nullptr;
    TraceRecorder* trace = nullptr;
    std::string instance{};
  };

  explicit NetMerger(Options options);
  ~NetMerger() override;

  const Options& options() const { return options_; }

  StatusOr<std::unique_ptr<mr::RecordStream>> FetchAndMerge(
      int partition, const std::vector<mr::MofLocation>& sources) override
      EXCLUDES(sched_mu_);

  /// Cancels all fetch work and joins the data threads. Queued and
  /// in-flight fetches fail with kUnavailable, so every FetchAndMerge
  /// caller — including ones blocked on a silent peer — returns promptly.
  void Stop() override EXCLUDES(sched_mu_);
  Stats stats() const override;

  /// Health-tracker view of one remote node ("host:port"), for tests and
  /// operators; an expired sentence is applied on read.
  NodeState node_health(const std::string& node);

  /// The registry this merger publishes into (owned or shared), with the
  /// connection-manager gauges refreshed first, so one call reads live
  /// values.
  MetricsRegistry& metrics() const {
    RefreshConnectionGauges();
    return *metrics_;
  }
  /// Per-fetch lifecycle timeline (owned or shared).
  TraceRecorder& trace() const { return *trace_; }

  /// Remote nodes with queued (not yet claimed) fetch tasks. Drained
  /// nodes are removed, so an idle merger reports 0.
  size_t pending_node_count() const EXCLUDES(sched_mu_);

 private:
  /// A fully fetched segment plus how to interpret it.
  struct FetchedSegment {
    std::vector<uint8_t> bytes;
    bool compressed = false;
  };

  /// One FetchAndMerge call in flight.
  struct CallContext {
    Mutex mu;
    CondVar done_cv;
    size_t remaining GUARDED_BY(mu) = 0;
    Status error GUARDED_BY(mu);
    std::map<int, FetchedSegment> segments GUARDED_BY(mu);  // map_task -> segment
  };

  using Clock = std::chrono::steady_clock;

  /// One fetch and its retry state. A data thread claims it, runs one
  /// attempt, and Settle() completes it or puts it back in a queue.
  struct FetchTask {
    mr::MofLocation source;
    int partition = 0;
    uint64_t fetch_id = 0;  // TraceRecorder id for this fetch's timeline
    std::shared_ptr<CallContext> context;
    // Replica routing: alternate locations holding the same map output
    // (duplicate sources that disagreed on host). When `source` exhausts
    // its attempts or sits in the penalty box, the task moves to an
    // alternate instead of failing the reduce.
    std::vector<mr::MofLocation> alternates;
    int reroutes = 0;  // failovers consumed (bounded by max_failovers)
    // Ledgers for the current `source`; a failover resets them.
    int attempts = 0;   // attempts spent; an honored pushback spends none
    int pushbacks = 0;  // kErrorBusy replies honored
    Clock::time_point claimed{};  // first claim on this source
    // Not claimable before this: the backoff or pushback delay.
    Clock::time_point not_before{};
    // One deadline budgets the whole fetch across retries AND failovers;
    // armed at the first claim so queue wait doesn't count twice.
    bool deadline_armed = false;
    net::Deadline deadline;

    /// Between retries on `source`: keeps its node through the penalty
    /// box and is never rerouted.
    bool retrying() const { return attempts > 0 || pushbacks > 0; }
  };

  /// One attempt's outcome, and how Settle() treats a failure.
  struct Attempt;

  static std::string NodeKey(const mr::MofLocation& loc) {
    return loc.host + ":" + std::to_string(loc.port);
  }

  void WorkerLoop() EXCLUDES(sched_mu_);
  /// Picks the next (node, task) respecting per-node exclusivity, the
  /// round-robin policy, each front task's `not_before`, and the penalty
  /// box: penalized nodes are skipped, their queued tasks rerouted to
  /// healthy replicas when possible. Blocks until work is claimable or
  /// shutdown.
  bool NextTask(std::string* node, FetchTask* task) EXCLUDES(sched_mu_);
  /// Dials (or reuses) the node's connection and runs one fetch attempt.
  Attempt RunAttempt(FetchTask& task);
  /// Decides the attempt's outcome: completes the task, requeues it at
  /// the front of its node's queue after a delay, or fails it over.
  void Settle(const std::string& node, FetchTask task, Attempt attempt)
      EXCLUDES(sched_mu_);
  /// Index of the first alternate not in the penalty box.
  std::optional<size_t> HealthyAlternate(const FetchTask& task);
  /// Moves `task` onto alternates[index] with fresh per-source ledgers,
  /// counting and tracing the failover.
  void FailOver(FetchTask& task, size_t index);
  /// Adds `task` to its source's queue: at the front when it is between
  /// retries there (so no other task is claimed on that node first), else
  /// at the back.
  void PushLocked(FetchTask task) REQUIRES(sched_mu_);
  /// PushLocked, or completes the task with kUnavailable when stopping.
  void Requeue(FetchTask task) EXCLUDES(sched_mu_);
  /// Sends the protocol-v2 capability hello on a freshly dialed
  /// connection (one-way; the server never replies). A send failure is a
  /// transient fault: the socket is already sick.
  Status SendHello(net::Connection& conn, const net::Deadline& deadline);
  /// Runs the chunked fetch conversation; returns the segment. Each chunk
  /// round trip is bounded by the sooner of `deadline` and the per-chunk
  /// timeout. An error's kind (and a busy reply's hint) goes to `attempt`.
  StatusOr<FetchedSegment> FetchSegment(net::Connection& conn,
                                        const FetchTask& task,
                                        const net::Deadline& deadline,
                                        Attempt* attempt);
  void CompleteTask(const FetchTask& task, StatusOr<FetchedSegment> result);
  /// Capped, jittered exponential backoff for retry `attempt` (>= 1).
  int64_t NextBackoffMs(int attempt) EXCLUDES(rng_mu_);
  /// Delay before honoring a kErrorBusy reply: the server's retry-after
  /// hint plus up to 50% jitter, capped by max_retry_backoff_ms.
  int64_t PushbackDelayMs(uint32_t hint_ms) EXCLUDES(rng_mu_);
  /// Labels shared by all of this merger's metrics.
  MetricLabels BaseLabels() const;
  /// Publishes `depth` for the node's queue-depth gauge. Touches only the
  /// registry, so it is callable with or without sched_mu_ held (the
  /// registry lock is a leaf, so nesting under sched_mu_ is safe).
  void SetQueueDepth(const std::string& node, size_t depth);
  /// Re-exports the connection-manager counters as gauges (they're owned
  /// by the manager, not the registry). Called from metrics() and Stop(),
  /// so dumps taken after shutdown still carry final values.
  void RefreshConnectionGauges() const;

  Options options_;
  net::ConnectionManager connections_;

  // Observability plumbing: pointers into metrics_ (never null; falls back
  // to the owned registry/recorder when options don't share one).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<TraceRecorder> owned_trace_;
  TraceRecorder* trace_ = nullptr;
  // Counter values at construction: the registry may be shared with
  // earlier mergers, and stats() reports this merger's work only.
  Stats stats_base_;
  MetricCounter* fetches_c_ = nullptr;
  MetricCounter* chunks_c_ = nullptr;
  MetricCounter* bytes_fetched_c_ = nullptr;
  MetricCounter* connections_opened_c_ = nullptr;
  MetricCounter* node_switches_c_ = nullptr;
  MetricCounter* fetch_errors_c_ = nullptr;
  MetricCounter* fetch_retries_c_ = nullptr;
  MetricCounter* deadline_expiries_c_ = nullptr;
  MetricCounter* chunks_corrupt_c_ = nullptr;
  MetricCounter* chunks_compressed_c_ = nullptr;
  MetricCounter* failovers_c_ = nullptr;
  MetricCounter* pushback_c_ = nullptr;
  MetricHistogram* fetch_latency_ms_h_ = nullptr;
  MetricHistogram* fetch_attempts_h_ = nullptr;

  // Built in the constructor once metrics_ is wired (it publishes the
  // per-node health gauges into the same registry).
  std::unique_ptr<NodeHealthTracker> health_;

  mutable Mutex sched_mu_;
  CondVar work_cv_;
  std::map<std::string, std::deque<FetchTask>> node_queues_
      GUARDED_BY(sched_mu_);
  std::set<std::string> busy_nodes_ GUARDED_BY(sched_mu_);
  // Last node serviced (round-robin pointer).
  std::string rr_last_ GUARDED_BY(sched_mu_);
  bool stopping_ GUARDED_BY(sched_mu_) = false;
  // Set with stopping_, under sched_mu_; read without the lock.
  std::atomic<bool> cancelled_{false};

  Mutex rng_mu_;
  Rng rng_ GUARDED_BY(rng_mu_);

  std::vector<std::thread> workers_;
};

}  // namespace jbs::shuffle
