#include "heap.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// One counter per thread, never handed back: a block allocated on one
// thread and freed on another nets out across counters, so only the sum
// means anything. A run starts a few thousand threads at most; any beyond
// the pool share one overflow counter, which stays correct, only slower.
constexpr int kSlots = 8192;
struct alignas(64) Slot {
  std::atomic<int64_t> bytes{0};
};
Slot g_slots[kSlots];
Slot g_overflow;
std::atomic<int> g_next{0};

thread_local Slot* tl_slot = nullptr;

Slot* MySlot() {
  if (tl_slot == nullptr) {
    const int i = g_next.fetch_add(1, std::memory_order_acq_rel);
    tl_slot = i < kSlots ? &g_slots[i] : &g_overflow;
  }
  return tl_slot;
}

void Count(void* p, int64_t sign) {
  MySlot()->bytes.fetch_add(
      sign * static_cast<int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
}

}  // namespace

namespace jobbench {

int64_t LiveHeapBytes() {
  const int used = std::min(g_next.load(std::memory_order_acquire), kSlots);
  int64_t total = g_overflow.bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < used; ++i) {
    total += g_slots[i].bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace jobbench

// Every unaligned form is replaced, so allocation and release always meet
// in this file (sanitizer runtimes replace the forms a program leaves out).
// Over-aligned allocations keep the library's own aligned operators and are
// not counted.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  Count(p, 1);
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) Count(p, 1);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  Count(p, -1);
  std::free(p);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
