// Counting replacements for the plain global allocation functions, the
// source of support.heap_allocs_per_call. Counting is off until a traced
// run enables it; the over-aligned forms keep the library defaults.
#include <atomic>
#include <cstdlib>
#include <new>

#include "stats.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace orbbench {

uint64_t HeapAllocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

void EnableHeapCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

}  // namespace orbbench

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
