// Fixed-size buffer pool modelling JBS "registered" transport buffers.
// The paper (Fig. 11) shows the tension this type embodies: larger buffers
// amortize per-request overhead but reduce the number of buffers available
// to data threads, increasing contention. The pool has a fixed total byte
// budget; Acquire() blocks when all buffers are checked out.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace jbs {

class BufferPool;

/// One checked-out buffer. Returns itself to the pool on destruction.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(BufferPool* pool, uint8_t* data, size_t capacity);
  ~PooledBuffer();

  PooledBuffer(PooledBuffer&& other) noexcept;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept;
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  bool valid() const { return data_ != nullptr; }
  uint8_t* data() const { return data_; }
  size_t capacity() const { return capacity_; }

  /// Bytes of payload currently in the buffer (set by the filler).
  size_t size() const { return size_; }
  void set_size(size_t size) { size_ = size; }

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint8_t* data_ = nullptr;
  size_t capacity_ = 0;
  size_t size_ = 0;
};

/// Wraps `buffer` in a refcounted lease for Frame ownership handoff
/// (DESIGN.md §13): the returned pointer keeps the buffer checked out of
/// its pool; when the last copy drops — last byte on the socket, or the
/// frame died queued — the buffer returns to the pool exactly once.
std::shared_ptr<const void> MakeBufferLease(PooledBuffer&& buffer);

class BufferPool {
 public:
  /// Creates `count` buffers of `buffer_size` bytes each. A sizing that
  /// ArenaBytes() rejects builds an empty pool that hands out nothing.
  BufferPool(size_t buffer_size, size_t count);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The arena a pool of this shape needs, or nothing when either factor
  /// is zero, their product does not fit in size_t, or it exceeds the
  /// host's physical memory.
  static std::optional<size_t> ArenaBytes(size_t buffer_size, size_t count);

  /// Blocks until a buffer is available. Returns an invalid buffer if the
  /// pool was cancelled while (or before) waiting.
  JBS_BLOCKING PooledBuffer Acquire() EXCLUDES(mu_);

  /// Returns an invalid buffer instead of blocking when the pool is dry.
  PooledBuffer TryAcquire() EXCLUDES(mu_);

  /// Bounded-wait Acquire: blocks until a buffer is available, the pool is
  /// cancelled (kCancelled), or `deadline` passes (kResourceExhausted).
  /// Unlike Acquire(), a leaked lease cannot park a pipeline stage forever
  /// — overload-control callers (the supplier's disk threads) use the
  /// expiry to shed the request instead of hanging (DESIGN.md §16).
  JBS_BLOCKING StatusOr<PooledBuffer> AcquireFor(
      std::chrono::steady_clock::time_point deadline) EXCLUDES(mu_);
  JBS_BLOCKING StatusOr<PooledBuffer> AcquireFor(std::chrono::milliseconds timeout)
      EXCLUDES(mu_) {
    return AcquireFor(std::chrono::steady_clock::now() + timeout);
  }

  /// Threads currently blocked inside Acquire()/AcquireFor() — the
  /// `buffer_pool_waiters` gauge, an instantaneous saturation signal.
  size_t waiters() const EXCLUDES(mu_);

  /// Wakes every blocked Acquire() and makes it (and all future dry
  /// acquires) return an invalid buffer — shutdown support for pipeline
  /// stages parked on an exhausted pool. Buffers already checked out are
  /// unaffected and must still be returned.
  void Cancel() EXCLUDES(mu_);

  size_t buffer_size() const { return buffer_size_; }
  size_t capacity() const { return count_; }
  size_t available() const EXCLUDES(mu_);

  /// AcquireFor deadline expiries.
  uint64_t acquire_timeouts() const EXCLUDES(mu_);

 private:
  friend class PooledBuffer;
  void Return(uint8_t* data) EXCLUDES(mu_);

  const size_t buffer_size_;
  const size_t count_;
  std::unique_ptr<uint8_t[]> arena_;

  mutable Mutex mu_;
  CondVar available_cv_;
  std::vector<uint8_t*> free_list_ GUARDED_BY(mu_);
  bool cancelled_ GUARDED_BY(mu_) = false;
  size_t waiters_ GUARDED_BY(mu_) = 0;
  uint64_t acquire_timeouts_ GUARDED_BY(mu_) = 0;
};

}  // namespace jbs
