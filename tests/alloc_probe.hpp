#pragma once

// Replacement global operator new/delete for one test binary: every
// allocation bumps `g_allocations` and raises `g_largest_allocation`, the
// largest single request since a test last reset it. Include it from
// exactly one translation unit of a binary. The replacements delegate to
// malloc/free, so every other test runs through them too — harmless, they
// only add two relaxed atomic updates.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_largest_allocation{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
  while (n > largest &&
         !g_largest_allocation.compare_exchange_weak(largest, n, std::memory_order_relaxed)) {
  }
  return std::malloc(n ? n : 1);
}

// Out of line, so the compiler never pairs an inlined free() with the
// replaced operator new at a call site.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

// Every allocating form goes through counted_malloc, and every releasing
// form through counted_free — including the nothrow pair the standard library
// uses for temporary buffers, so no allocation escapes the count or is
// released by a mismatched deallocator.
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
