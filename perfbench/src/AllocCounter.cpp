//===- perfbench/src/AllocCounter.cpp - Heap allocation counting ----------===//

#include "AllocCounter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocs{0};
} // namespace

void perfbench::setAllocCounting(bool On) {
  Counting.store(On, std::memory_order_relaxed);
}

uint64_t perfbench::allocCount() {
  return Allocs.load(std::memory_order_relaxed);
}

// The array, nothrow and sized forms of the standard library forward to
// these two, so replacing them covers every non-aligned allocation.
void *operator new(std::size_t N) {
  if (Counting.load(std::memory_order_relaxed))
    Allocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
