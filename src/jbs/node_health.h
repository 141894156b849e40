// Per-remote-node health tracking for the NetMerger: a
// healthy -> suspect -> penalized state machine driven by consecutive
// connect failures, chunk timeouts, and corruption events. A penalized
// node sits in a penalty box whose sentence doubles per relapse (capped),
// so request injection routes around a dying supplier instead of retrying
// it forever — the redundancy-aware behavior Coded MapReduce exploits by
// placing map outputs at multiple nodes. One successful fetch restores the
// node to healthy and resets the sentence.
//
// Every state is mirrored into a `jbs_netmerger_node_health{node=...}`
// gauge (0 = healthy, 1 = suspect, 2 = penalized) and every sentence bumps
// `jbs_netmerger_penalties_total`, so the box is observable from one
// registry dump.
#pragma once

#include <chrono>
#include <map>
#include <optional>
#include <string>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace jbs::shuffle {

enum class NodeState : int {
  kHealthy = 0,
  kSuspect = 1,    // failing, still routable
  kPenalized = 2,  // in the box; injection skips it until release
};

class NodeHealthTracker {
 public:
  struct Options {
    bool operator==(const Options&) const = default;

    int suspect_after = 1;    // consecutive failures -> suspect
    int penalize_after = 3;   // consecutive failures -> penalized
                              // (<= 0 disables the penalty box entirely)
    int64_t penalty_ms = 200;       // first sentence; doubles per relapse
    int64_t penalty_max_ms = 10000; // sentence ceiling (0 = uncapped)
  };

  enum class Failure {
    kConnect,  // dial refused / dial deadline blown
    kTimeout,  // chunk round trip exceeded its bound
    kCorrupt,  // chunk failed CRC verification
    kOther,    // connection died mid-conversation, undecodable reply, ...
  };

  /// `metrics` must outlive the tracker; `base_labels` are the owning
  /// merger's shared labels (client/instance), extended with `node`.
  NodeHealthTracker(Options options, MetricsRegistry* metrics,
                    MetricLabels base_labels);

  /// Records one failed interaction with `node`. Returns true exactly when
  /// this failure pushed the node INTO the penalty box (a transition edge,
  /// not a level), so the caller can evict cached connections once per
  /// sentence.
  bool RecordFailure(const std::string& node, Failure kind) EXCLUDES(mu_);

  /// A completed fetch: node back to healthy, streak and sentence reset.
  void RecordSuccess(const std::string& node) EXCLUDES(mu_);

  /// Current state; a served sentence expires here (penalized -> suspect
  /// on probation — the failure streak is kept, so a node that is still
  /// dead goes straight back in with a doubled sentence).
  NodeState state(const std::string& node) EXCLUDES(mu_);

  bool penalized(const std::string& node) {
    return state(node) == NodeState::kPenalized;
  }

  /// Earliest release time among nodes still serving a sentence, for
  /// schedulers that need to sleep until the box next opens. nullopt when
  /// the box is empty.
  std::optional<std::chrono::steady_clock::time_point> earliest_release()
      EXCLUDES(mu_);

  /// Total sentences handed out.
  uint64_t penalties() const { return penalties_c_->value(); }

 private:
  struct Node {
    NodeState state = NodeState::kHealthy;
    int consecutive_failures = 0;
    int penalty_level = 0;  // sentences served back-to-back; doubles the box
    std::chrono::steady_clock::time_point release{};
    MetricGauge* gauge = nullptr;
  };

  /// Looks up (or registers) the node entry.
  Node& GetNode(const std::string& node) REQUIRES(mu_);
  /// Applies expiry, updates the gauge.
  void Refresh(Node& entry) REQUIRES(mu_);
  void SetState(Node& entry, NodeState state) REQUIRES(mu_);

  const Options options_;
  MetricsRegistry* metrics_;
  const MetricLabels base_labels_;
  MetricCounter* penalties_c_;

  Mutex mu_;
  std::map<std::string, Node> nodes_ GUARDED_BY(mu_);
};

}  // namespace jbs::shuffle
