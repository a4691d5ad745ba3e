#include "counting_alloc.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

namespace perfbench {

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
std::uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
std::uint64_t AllocBytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
