// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// 2 MiB-aligned anonymous regions advised MADV_HUGEPAGE, backing the
// engine's large random-access structures (version slabs, B+-tree nodes,
// indirection chunks) so a random access costs one TLB entry per 2 MiB
// instead of a page walk per 4 KiB. Regions are zero-filled. If transparent
// huge pages are off or madvise fails, a region is plain 4 KiB pages.
#ifndef ERMIA_COMMON_HUGE_PAGES_H_
#define ERMIA_COMMON_HUGE_PAGES_H_

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/macros.h"

namespace ermia {

inline constexpr size_t kHugePageSize = size_t{2} << 20;

// Bytes currently mapped by MapHugeRegion (leak checks in tests).
inline std::atomic<size_t> huge_region_bytes{0};

// Maps `bytes` (a multiple of kHugePageSize); fails closed, like malloc.
inline void* MapHugeRegion(size_t bytes) {
  ERMIA_DCHECK(bytes % kHugePageSize == 0);
  // Over-map by one huge page, then trim both ends to a 2 MiB boundary.
  const size_t span = bytes + kHugePageSize;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ERMIA_CHECK(raw != MAP_FAILED);
  const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t start = (base + kHugePageSize - 1) & ~(kHugePageSize - 1);
  if (start > base) munmap(raw, start - base);
  if (base + span > start + bytes) {
    munmap(reinterpret_cast<void*>(start + bytes), base + span - start - bytes);
  }
  void* region = reinterpret_cast<void*>(start);
  (void)madvise(region, bytes, MADV_HUGEPAGE);  // best effort
  huge_region_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return region;
}

inline void UnmapHugeRegion(void* region, size_t bytes) {
  ASAN_UNPOISON_MEMORY_REGION(region, bytes);  // callers may have poisoned it
  huge_region_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  munmap(region, bytes);
}

}  // namespace ermia

#endif  // ERMIA_COMMON_HUGE_PAGES_H_
