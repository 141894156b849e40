// Connection reuse with an LRU cap (§IV-A): "Since the cost of setting up
// RDMA connection is relatively high, we keep newly created connections
// for reuse by default. We allow a maximum of 512 active connections. When
// this threshold is reached, connections are torn down based on the LRU
// order." Shared by the TCP path (§IV-B uses the same 512 threshold).
//
// Long-lived cached connections go stale (peer restarted, NAT mapping
// expired) without the socket observing it; an optional idle timeout
// tears down connections unused for that long, so a fetch re-dials
// instead of burning its deadline on a dead wire.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "transport/transport.h"

namespace jbs::net {

class ConnectionManager {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  /// `idle_timeout_ms > 0` evicts cached connections not used for that
  /// long (checked on lookup); 0 keeps connections until LRU eviction.
  ConnectionManager(Transport* transport, size_t capacity = kDefaultCapacity,
                    int64_t idle_timeout_ms = 0);

  /// Returns a cached live connection to host:port, or dials a new one
  /// (bounded by `deadline`). The first fetch request to a node triggers
  /// connection establishment; later requests reuse it. After Shutdown()
  /// every call fails fast with kUnavailable.
  ///
  /// `dialed`, when non-null, is set to true iff this call opened a fresh
  /// connection (a successful dial — even one that then lost a caching
  /// race to a concurrent dial). This is the single authority callers use
  /// to count connections opened, so manager-routed and direct dials are
  /// never double-counted.
  StatusOr<std::shared_ptr<Connection>> GetOrConnect(
      const std::string& host, uint16_t port,
      const Deadline& deadline = Deadline(), bool* dialed = nullptr)
      EXCLUDES(mu_);

  /// Drops a connection (e.g. after an I/O error) so the next request
  /// re-establishes it.
  void Invalidate(const std::string& host, uint16_t port) EXCLUDES(mu_);

  /// Closes everything and fails all future GetOrConnect calls — the
  /// cancellation half of NetMerger::Stop(). Closing wakes any thread
  /// blocked in Send/Receive on a cached connection.
  void Shutdown() EXCLUDES(mu_);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dial_failures = 0;
    uint64_t idle_evictions = 0;
  };
  Stats stats() const EXCLUDES(mu_);
  size_t active_connections() const EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

 private:
  struct Cached {
    std::shared_ptr<Connection> conn;
    std::chrono::steady_clock::time_point last_used;
  };

  static std::string Key(const std::string& host, uint16_t port) {
    return host + ":" + std::to_string(port);
  }

  bool IdleExpired(const Cached& cached) const;

  Transport* transport_;
  size_t capacity_;
  std::chrono::milliseconds idle_timeout_;
  mutable Mutex mu_;
  bool shutdown_ GUARDED_BY(mu_) = false;
  LruCache<std::string, Cached> cache_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace jbs::net
