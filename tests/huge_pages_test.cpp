// Tests for the 2 MiB huge-page regions (common/huge_pages.h) behind version
// slabs, indirection chunks and B+-tree nodes: alignment and zero fill,
// leak-free tree teardown, ASan poisoning of uncarved node memory, and that
// the kernel really backs advised regions with huge pages.
#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/huge_pages.h"
#include "common/key_encoder.h"
#include "index/btree.h"

namespace ermia {
namespace {

constexpr uint64_t kTreeKeys = 1'000'000;

std::string Key(uint64_t v) { return KeyEncoder().U64(v).slice().ToString(); }

// 24 bytes: the bytes past the first 8 go to the leaves' suffix arrays.
std::string LongKey(uint64_t v) {
  return KeyEncoder().U64(v).U64(v).U64(v).slice().ToString();
}

// Loads kTreeKeys 8-byte keys, then long keys in the same key range.
void Load(BTree* tree) {
  NodeHandle h;
  Oid existing;
  for (uint64_t i = 0; i < kTreeKeys; ++i) {
    ASSERT_TRUE(tree->Insert(Key(i), Oid(i + 1), &h, &existing).ok());
  }
  for (uint64_t i = 0; i < kTreeKeys; i += 16) {
    ASSERT_TRUE(tree->Insert(LongKey(i), Oid(i + 1), &h, &existing).ok());
  }
}

// The bracketed mode in /sys/kernel/mm/transparent_hugepage/enabled, or ""
// when the kernel has no transparent huge pages.
std::string ThpMode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(f, line);
  const size_t open = line.find('['), close = line.find(']');
  if (open == std::string::npos || close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

// AnonHugePages (kB) of the /proc/self/smaps mapping holding addr; -1 if
// no mapping holds it.
long AnonHugePagesKb(const void* addr) {
  const auto a = reinterpret_cast<uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool in_mapping = false;
  while (std::getline(smaps, line)) {
    unsigned long lo, hi;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      in_mapping = a >= lo && a < hi;
    } else if (in_mapping && line.rfind("AnonHugePages:", 0) == 0) {
      return std::stol(line.substr(sizeof("AnonHugePages:") - 1));
    }
  }
  return -1;
}

TEST(HugePagesTest, RegionIsAlignedAndZeroFilled) {
  const size_t before = huge_region_bytes.load();
  constexpr size_t kBytes = 2 * kHugePageSize;
  auto* p = static_cast<unsigned char*>(MapHugeRegion(kBytes));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kHugePageSize, 0u);
  EXPECT_EQ(huge_region_bytes.load(), before + kBytes);
  EXPECT_TRUE(
      std::all_of(p, p + kBytes, [](unsigned char c) { return c == 0; }));
  p[0] = 1;
  p[kBytes - 1] = 1;
  UnmapHugeRegion(p, kBytes);
  EXPECT_EQ(huge_region_bytes.load(), before);
}

// The tree's nodes and suffix arrays live only in its regions: destroying
// it unmaps every one (and LeakSanitizer, in the ASan job, sees no heap
// left behind).
TEST(HugePagesTest, TreeIsDestroyedLeakFree) {
  const size_t before = huge_region_bytes.load();
  {
    BTree tree;
    Load(&tree);
    EXPECT_EQ(tree.Size(), kTreeKeys + kTreeKeys / 16);
    Oid oid;
    NodeHandle h;
    ASSERT_TRUE(tree.Lookup(LongKey(160), &oid, &h));
    EXPECT_EQ(oid, 161u);
    EXPECT_GT(huge_region_bytes.load(), before + 8 * kHugePageSize);
  }
  EXPECT_EQ(huge_region_bytes.load(), before);
}

#if defined(__SANITIZE_ADDRESS__)
// The region past a node is poisoned, so a write past a node's end trips
// ASan although nodes are carved from a region.
TEST(HugePagesTest, UncarvedNodeMemoryIsPoisoned) {
  BTree tree;
  Oid oid;
  NodeHandle root;
  tree.Lookup(Key(0), &oid, &root);  // the empty tree's root leaf
  auto* node = static_cast<char*>(const_cast<void*>(root.node));
  EXPECT_EQ(__asan_region_is_poisoned(node, 7 * 64), nullptr);
  const char* first = static_cast<const char*>(
      __asan_region_is_poisoned(node, kHugePageSize));
  ASSERT_NE(first, nullptr);
  // Poison starts at the node's end: a cache line after header, slices and
  // values.
  EXPECT_EQ((first - node) % 64, 0);
  EXPECT_LE(first - node, 640);
  EXPECT_TRUE(__asan_address_is_poisoned(node + kHugePageSize - 1));
}
#endif  // __SANITIZE_ADDRESS__

// The advice must take effect: where THP is available, the mapping holding
// the tree's root has huge pages once the tree is loaded.
TEST(HugePagesTest, TreeNodesAreHugePageBacked) {
  const std::string mode = ThpMode();
  if (mode != "always" && mode != "madvise") {
    GTEST_SKIP() << "transparent huge pages are "
                 << (mode.empty() ? "unsupported" : mode);
  }
  BTree tree;
  Oid oid;
  NodeHandle root;
  tree.Lookup(Key(0), &oid, &root);  // carved first, so in the first region
  Load(&tree);
  EXPECT_GT(AnonHugePagesKb(root.node), 0) << "THP mode " << mode;
}

}  // namespace
}  // namespace ermia
