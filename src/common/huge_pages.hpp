// Huge-page-backed storage for the engines' per-node arrays.
//
// A million-node run keeps ~360 MB of per-node state (node slab, RNG
// streams, lifecycle arrays, calendar records), and every delivery lands
// on a random node.  On 4 KiB pages each such access pays a TLB miss on
// top of its cache miss; on 2 MiB transparent huge pages (THP) the same
// arrays need 512x fewer TLB entries (docs/PERF.md section 6).
//
// HugePageAllocator<T> picks the backing by request size alone:
//   * a request of kHugePageBytes (2 MiB) or more gets its own anonymous
//     mapping, 2 MiB-aligned, rounded up to a 2 MiB multiple, advised
//     MADV_HUGEPAGE before first touch, and unmapped on deallocate;
//   * anything smaller goes to std::allocator, so small runs keep the
//     plain heap path.
// One mapping per array, rather than madvise() on std::vector storage:
// glibc serves requests below its (dynamic, up to 32 MiB) mmap threshold
// from heap pages that may already be faulted in at 4 KiB, and
// MADV_HUGEPAGE does not convert those.
//
// Only where the bytes live changes, never what they hold: on a host whose
// THP mode is `never` (or where madvise fails, whose result is ignored)
// the mapping simply gets 4 KiB pages and every run produces the same
// output.  A failed mmap throws std::bad_alloc, as std::allocator does.
//
// Sanitizers: ASan builds (__SANITIZE_ADDRESS__) take the std::allocator
// path for every size, so heap-overflow checks keep covering these
// arrays.  TSan builds keep the mapping path (TSan intercepts mmap).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace cg {

/// Size of a transparent huge page on x86-64 and arm64 (4 KiB granule).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Does a request of `bytes` get its own huge-page mapping in this build?
constexpr bool huge_page_mapped(std::size_t bytes) {
#if defined(__linux__) && !defined(__SANITIZE_ADDRESS__)
  return bytes >= kHugePageBytes;
#else
  (void)bytes;
  return false;
#endif
}

namespace detail {

#if defined(__linux__)
inline std::size_t huge_page_round_up(std::size_t bytes) {
  if (bytes > std::numeric_limits<std::size_t>::max() - 2 * kHugePageBytes)
    throw std::bad_alloc();
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

/// Map `bytes` (rounded up to 2 MiB) at a 2 MiB boundary, THP-advised.
inline void* map_huge_pages(std::size_t bytes) {
  const std::size_t len = huge_page_round_up(bytes);
  // Over-map by one huge page so an aligned start exists, then trim.
  void* raw = mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const auto start = (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::size_t head = start - base;
  if (head != 0) munmap(raw, head);
  munmap(reinterpret_cast<void*>(start + len), kHugePageBytes - head);
  void* p = reinterpret_cast<void*>(start);
  (void)madvise(p, len, MADV_HUGEPAGE);
  return p;
}

inline void unmap_huge_pages(void* p, std::size_t bytes) noexcept {
  munmap(p, huge_page_round_up(bytes));
}
#endif

}  // namespace detail

/// std::allocator, except that requests of 2 MiB or more get their own
/// THP-advised mapping (see the file comment).  Stateless: every instance
/// compares equal, so containers swap and move storage freely.
template <class T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() noexcept = default;
  template <class U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
#if defined(__linux__)
    if (huge_page_mapped(n * sizeof(T)))
      return static_cast<T*>(detail::map_huge_pages(n * sizeof(T)));
#endif
    return std::allocator<T>{}.allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
#if defined(__linux__)
    if (huge_page_mapped(n * sizeof(T))) {
      detail::unmap_huge_pages(p, n * sizeof(T));
      return;
    }
#endif
    std::allocator<T>{}.deallocate(p, n);
  }

  template <class U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }
};

/// An engine-side array whose length is the node count or the number of
/// messages in flight.
template <class T>
using NodeArray = std::vector<T, HugePageAllocator<T>>;

}  // namespace cg
