// HugePageAllocator (common/huge_pages.hpp) and the AnonHugePages parser
// behind EngineProfile::huge_page_bytes (sim/core/profile.hpp).
//
// Whether the kernel actually backs a mapping with huge pages depends on
// the host's THP mode, so nothing here asserts a huge-page count above 0.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/huge_pages.hpp"
#include "sim/core/profile.hpp"

namespace cg {
namespace {

std::uintptr_t addr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

TEST(HugePageAllocator, LargeRequestsAreHugePageAligned) {
#if defined(__linux__) && !defined(__SANITIZE_ADDRESS__)
  EXPECT_TRUE(huge_page_mapped(kHugePageBytes));
#endif
  EXPECT_FALSE(huge_page_mapped(kHugePageBytes - 1));
  HugePageAllocator<std::uint64_t> a;
  for (const std::size_t bytes :
       {kHugePageBytes, kHugePageBytes + 8, 3 * kHugePageBytes + 4096}) {
    const std::size_t n = bytes / sizeof(std::uint64_t);
    std::uint64_t* p = a.allocate(n);
    ASSERT_NE(p, nullptr);
    if (huge_page_mapped(n * sizeof(std::uint64_t))) {
      EXPECT_EQ(addr(p) % kHugePageBytes, 0u) << bytes;
    }
    p[0] = 1;  // both ends are writable
    p[n - 1] = 2;
    EXPECT_EQ(p[0] + p[n - 1], 3u);
    a.deallocate(p, n);
  }
}

TEST(HugePageAllocator, ZeroAndJustBelowThreshold) {
  HugePageAllocator<char> a;
  char* z = a.allocate(0);
  a.deallocate(z, 0);
  char* p = a.allocate(kHugePageBytes - 1);
  ASSERT_NE(p, nullptr);
  p[0] = 'a';
  p[kHugePageBytes - 2] = 'b';
  EXPECT_EQ(p[kHugePageBytes - 2], 'b');
  a.deallocate(p, kHugePageBytes - 1);

  NodeArray<std::int32_t> empty;
  empty.reserve(0);
  empty.shrink_to_fit();
  EXPECT_TRUE(empty.empty());
}

TEST(HugePageAllocator, GrowingAcrossThresholdKeepsContents) {
  // One element at a time from empty to well past 2 MiB: every
  // reallocation, including the heap-to-mapping one, must carry the
  // contents over.
  constexpr std::uint64_t kMul = 2654435761;
  NodeArray<std::uint64_t> v;
  const std::size_t n = 3 * kHugePageBytes / sizeof(std::uint64_t) + 17;
  bool crossed = false;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(i * kMul);
    crossed = crossed || huge_page_mapped(v.capacity() * sizeof(std::uint64_t));
  }
  ASSERT_EQ(v.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(v[i], i * kMul) << i;
  if (crossed) {
    EXPECT_EQ(addr(v.data()) % kHugePageBytes, 0u);
  }
  v.resize(10);  // shrinking below the threshold frees the mapping
  v.shrink_to_fit();
  EXPECT_EQ(v[9], 9 * kMul);
}

TEST(HugePageAllocator, SwapAndMoveBetweenArrays) {
  const std::size_t big = kHugePageBytes / sizeof(std::int32_t) + 5;
  NodeArray<std::int32_t> a(big, 7);
  NodeArray<std::int32_t> b(3, 9);
  const auto* a_data = a.data();
  a.swap(b);
  EXPECT_EQ(b.data(), a_data);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), big);
  EXPECT_EQ(a[2], 9);
  EXPECT_EQ(b[big - 1], 7);

  NodeArray<std::int32_t> c(std::move(b));
  EXPECT_EQ(c.data(), a_data);
  EXPECT_EQ(c[0], 7);
  b = std::move(a);
  EXPECT_EQ(b.size(), 3u);
  c = b;  // copy from the heap path into a vector that held a mapping
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c[1], 9);
  c.assign(big, 4);
  EXPECT_EQ(c[big - 1], 4);
}

TEST(HugePageBytes, ParsesAnonHugePagesFromSmapsRollup) {
  const char* text =
      "55bff3d48000-7fff4d451000 ---p 00000000 00:00 0    [rollup]\n"
      "Rss:             1441792 kB\n"
      "Anonymous:       1437696 kB\n"
      "LazyFree:              0 kB\n"
      "AnonHugePages:   1409024 kB\n"
      "ShmemPmdMapped:        0 kB\n"
      "Shared_Hugetlb:        0 kB\n";
  EXPECT_EQ(parse_anon_huge_pages(text), std::int64_t{1409024} * 1024);
  EXPECT_EQ(parse_anon_huge_pages("AnonHugePages:         0 kB\n"), 0);
  EXPECT_EQ(parse_anon_huge_pages("AnonHugePages: 2048 kB"), 2048 * 1024);
  // Missing or malformed lines read as 0.
  EXPECT_EQ(parse_anon_huge_pages(""), 0);
  EXPECT_EQ(parse_anon_huge_pages("Rss: 100 kB\n"), 0);
  EXPECT_EQ(parse_anon_huge_pages("AnonHugePages: x kB\n"), 0);
  EXPECT_EQ(parse_anon_huge_pages("AnonHugePages: 12 MB\n"), 0);
  EXPECT_EQ(parse_anon_huge_pages("AnonHugePages: 99999999999999999999 kB\n"),
            0);
  EXPECT_GE(current_huge_page_bytes(), 0);
}

}  // namespace
}  // namespace cg
