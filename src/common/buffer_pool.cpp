#include "common/buffer_pool.h"

#include <unistd.h>

#include <cassert>
#include <chrono>

namespace jbs {

PooledBuffer::PooledBuffer(BufferPool* pool, uint8_t* data, size_t capacity)
    : pool_(pool), data_(data), capacity_(capacity) {}

PooledBuffer::~PooledBuffer() { Release(); }

PooledBuffer::PooledBuffer(PooledBuffer&& other) noexcept
    : pool_(other.pool_),
      data_(other.data_),
      capacity_(other.capacity_),
      size_(other.size_) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
  other.capacity_ = 0;
  other.size_ = 0;
}

PooledBuffer& PooledBuffer::operator=(PooledBuffer&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    data_ = other.data_;
    capacity_ = other.capacity_;
    size_ = other.size_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.capacity_ = 0;
    other.size_ = 0;
  }
  return *this;
}

void PooledBuffer::Release() {
  if (pool_ != nullptr && data_ != nullptr) {
    pool_->Return(data_);
  }
  pool_ = nullptr;
  data_ = nullptr;
  capacity_ = 0;
  size_ = 0;
}

std::optional<size_t> BufferPool::ArenaBytes(size_t buffer_size,
                                             size_t count) {
  // An arena beyond physical memory cannot be backed: new[] would throw
  // std::bad_alloc out of the owner's constructor (or the kernel would
  // kill the process later), so it is rejected like a wrapping product.
  static const uint64_t kPhysicalBytes =
      static_cast<uint64_t>(sysconf(_SC_PHYS_PAGES)) *
      static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  size_t bytes = 0;
  if (buffer_size == 0 || count == 0 ||
      __builtin_mul_overflow(buffer_size, count, &bytes) ||
      bytes > kPhysicalBytes) {
    return std::nullopt;
  }
  return bytes;
}

BufferPool::BufferPool(size_t buffer_size, size_t count)
    : buffer_size_(buffer_size),
      count_(ArenaBytes(buffer_size, count) ? count : 0),
      arena_(count_ == 0 ? nullptr : new uint8_t[buffer_size * count_]) {
  free_list_.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    free_list_.push_back(arena_.get() + i * buffer_size);
  }
}

BufferPool::~BufferPool() {
  // All buffers must be returned before the pool dies; PooledBuffer holds a
  // raw pointer into the arena. Taking the lock orders destruction after an
  // in-flight Return() whose notify (issued under mu_) has not finished —
  // e.g. a transport thread dropping the last lease while the owner polls
  // available().
  MutexLock lock(mu_);
  assert(free_list_.size() == count_);
}

PooledBuffer BufferPool::Acquire() {
  MutexLock lock(mu_);
  if (free_list_.empty()) {
    if (cancelled_) return {};
    ++waiters_;
    while (!cancelled_ && free_list_.empty()) available_cv_.Wait(lock);
    --waiters_;
    if (free_list_.empty()) return {};
  }
  uint8_t* data = free_list_.back();
  free_list_.pop_back();
  return PooledBuffer(this, data, buffer_size_);
}

StatusOr<PooledBuffer> BufferPool::AcquireFor(
    std::chrono::steady_clock::time_point deadline) {
  MutexLock lock(mu_);
  if (free_list_.empty()) {
    if (cancelled_) return Cancelled("buffer pool cancelled");
    ++waiters_;
    while (!cancelled_ && free_list_.empty()) {
      if (std::chrono::steady_clock::now() >= deadline) break;
      available_cv_.WaitUntil(lock, deadline);
    }
    --waiters_;
    if (free_list_.empty()) {
      if (cancelled_) return Cancelled("buffer pool cancelled");
      ++acquire_timeouts_;
      return ResourceExhausted("buffer pool exhausted past deadline");
    }
  }
  uint8_t* data = free_list_.back();
  free_list_.pop_back();
  return PooledBuffer(this, data, buffer_size_);
}

size_t BufferPool::waiters() const {
  MutexLock lock(mu_);
  return waiters_;
}

PooledBuffer BufferPool::TryAcquire() {
  MutexLock lock(mu_);
  if (free_list_.empty()) return {};
  uint8_t* data = free_list_.back();
  free_list_.pop_back();
  return PooledBuffer(this, data, buffer_size_);
}

size_t BufferPool::available() const {
  MutexLock lock(mu_);
  return free_list_.size();
}

uint64_t BufferPool::acquire_timeouts() const {
  MutexLock lock(mu_);
  return acquire_timeouts_;
}

void BufferPool::Cancel() {
  MutexLock lock(mu_);
  cancelled_ = true;
  available_cv_.NotifyAll();
}

void BufferPool::Return(uint8_t* data) {
  // Notify while holding mu_: once a buffer is visibly back, any thread
  // that acquires mu_ (available(), the destructor) may destroy the pool,
  // so the signal must not touch the cond var after our unlock.
  MutexLock lock(mu_);
  free_list_.push_back(data);
  available_cv_.NotifyOne();
}

std::shared_ptr<const void> MakeBufferLease(PooledBuffer&& buffer) {
  auto owned = std::make_shared<PooledBuffer>(std::move(buffer));
  return std::shared_ptr<const void>(owned, owned->data());
}

}  // namespace jbs
