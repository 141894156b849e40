#include "common/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

namespace jbs {
namespace {

TEST(BufferPoolTest, AcquireRelease) {
  BufferPool pool(1024, 4);
  EXPECT_EQ(pool.available(), 4u);
  {
    PooledBuffer buf = pool.Acquire();
    ASSERT_TRUE(buf.valid());
    EXPECT_EQ(buf.capacity(), 1024u);
    EXPECT_EQ(pool.available(), 3u);
    std::memset(buf.data(), 0xAB, buf.capacity());
    buf.set_size(100);
    EXPECT_EQ(buf.size(), 100u);
  }
  EXPECT_EQ(pool.available(), 4u);
}

TEST(BufferPoolTest, TryAcquireFailsWhenDry) {
  BufferPool pool(64, 2);
  PooledBuffer a = pool.Acquire();
  PooledBuffer b = pool.Acquire();
  PooledBuffer c = pool.TryAcquire();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(c.valid());
}

TEST(BufferPoolTest, MoveTransfersOwnership) {
  BufferPool pool(64, 1);
  PooledBuffer a = pool.Acquire();
  uint8_t* raw = a.data();
  PooledBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.data(), raw);
  EXPECT_EQ(pool.available(), 0u);
  b.Release();
  EXPECT_EQ(pool.available(), 1u);
}

TEST(BufferPoolTest, DistinctBuffersDoNotOverlap) {
  BufferPool pool(128, 3);
  PooledBuffer a = pool.Acquire();
  PooledBuffer b = pool.Acquire();
  PooledBuffer c = pool.Acquire();
  EXPECT_GE(static_cast<size_t>(std::abs(a.data() - b.data())), 128u);
  EXPECT_GE(static_cast<size_t>(std::abs(b.data() - c.data())), 128u);
  EXPECT_GE(static_cast<size_t>(std::abs(a.data() - c.data())), 128u);
}

TEST(BufferPoolTest, BlockedAcquireWakesOnRelease) {
  BufferPool pool(64, 1);
  PooledBuffer held = pool.Acquire();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    PooledBuffer buf = pool.Acquire();
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired);
  EXPECT_EQ(pool.waiters(), 1u);  // parked, not spinning
  held.Release();
  waiter.join();
  EXPECT_TRUE(acquired);
}

TEST(BufferPoolTest, AcquireForExpiresWithResourceExhausted) {
  BufferPool pool(64, 1);
  PooledBuffer held = pool.Acquire();
  const auto start = std::chrono::steady_clock::now();
  auto got = pool.AcquireFor(std::chrono::milliseconds(30));
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
  EXPECT_EQ(pool.acquire_timeouts(), 1u);
  EXPECT_EQ(pool.waiters(), 0u);  // gauge returns to zero after the wait
}

TEST(BufferPoolTest, AcquireForSucceedsImmediatelyWhenFree) {
  BufferPool pool(64, 1);
  auto got = pool.AcquireFor(std::chrono::milliseconds(0));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->valid());
  EXPECT_EQ(pool.acquire_timeouts(), 0u);
}

TEST(BufferPoolTest, AcquireForWakesOnRelease) {
  BufferPool pool(64, 1);
  PooledBuffer held = pool.Acquire();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto got = pool.AcquireFor(std::chrono::milliseconds(2000));
    acquired = got.ok();
  });
  // Wait until the waiter is visibly parked so the release below is what
  // wakes it, not a lucky immediate grab.
  while (pool.waiters() == 0) std::this_thread::yield();
  held.Release();
  waiter.join();
  EXPECT_TRUE(acquired);
  EXPECT_EQ(pool.acquire_timeouts(), 0u);
  EXPECT_EQ(pool.available(), 1u);
}

TEST(BufferPoolTest, CancelUnblocksAcquireForWithCancelled) {
  BufferPool pool(64, 1);
  PooledBuffer held = pool.Acquire();
  std::atomic<int> code{-1};
  std::thread waiter([&] {
    auto got = pool.AcquireFor(std::chrono::milliseconds(5000));
    code = static_cast<int>(got.status().code());
  });
  while (pool.waiters() == 0) std::this_thread::yield();
  pool.Cancel();
  waiter.join();
  EXPECT_EQ(code.load(), static_cast<int>(StatusCode::kCancelled));
}

TEST(BufferPoolTest, ConcurrentChurnKeepsInvariant) {
  BufferPool pool(256, 8);
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        PooledBuffer buf = pool.Acquire();
        buf.data()[0] = static_cast<uint8_t>(i);
        total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), 2000u);
  EXPECT_EQ(pool.available(), 8u);  // everything returned
}

TEST(BufferPoolTest, RejectedSizingBuildsEmptyPool) {
  EXPECT_EQ(BufferPool::ArenaBytes(64, 4), 256u);
  EXPECT_FALSE(BufferPool::ArenaBytes(0, 4));
  EXPECT_FALSE(BufferPool::ArenaBytes(64, 0));
  // 2^63 * 2 wraps size_t to 0: the arena must not be sized from that.
  const size_t half = (std::numeric_limits<size_t>::max() >> 1) + 1;
  EXPECT_FALSE(BufferPool::ArenaBytes(half, 2));
  BufferPool pool(half, 2);
  EXPECT_EQ(pool.capacity(), 0u);
  EXPECT_FALSE(pool.TryAcquire().valid());
}

}  // namespace
}  // namespace jbs
