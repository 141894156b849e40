// Live-heap accounting for the benchmark binary. heap.cpp replaces the
// global operator new/delete with versions that count the usable size of
// every block in a per-thread counter, so the whole program's allocations
// are measured without touching its code. Unlike resident memory, the live
// byte count does not depend on how the allocator spreads blocks over its
// arenas or what it keeps back from the kernel.
#pragma once

#include <cstdint>

namespace jobbench {

/// Bytes allocated through the global operator new and not yet deleted,
/// summed over every thread. A racy but consistent-enough snapshot: cheap
/// to sample every few milliseconds.
int64_t LiveHeapBytes();

}  // namespace jobbench
