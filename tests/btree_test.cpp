// Tests for the OLC B+-tree: ordered semantics against a std::map oracle,
// splits, scans (forward/reverse), removals, node-version (phantom) hooks,
// and concurrent stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/key_encoder.h"
#include "common/random.h"
#include "index/btree.h"

namespace ermia {
namespace {

std::string K(uint64_t v) {
  return KeyEncoder().U64(v).slice().ToString();
}

TEST(BTreeTest, InsertLookup) {
  BTree tree;
  NodeHandle nh;
  Oid existing = 0;
  EXPECT_TRUE(tree.Insert("apple", 1, &nh, &existing).ok());
  EXPECT_TRUE(tree.Insert("banana", 2, &nh, &existing).ok());
  Oid oid = 0;
  EXPECT_TRUE(tree.Lookup("apple", &oid, &nh));
  EXPECT_EQ(oid, 1u);
  EXPECT_TRUE(tree.Lookup("banana", &oid, &nh));
  EXPECT_EQ(oid, 2u);
  EXPECT_FALSE(tree.Lookup("cherry", &oid, &nh));
}

TEST(BTreeTest, DuplicateInsertReturnsExisting) {
  BTree tree;
  NodeHandle nh;
  Oid existing = 0;
  EXPECT_TRUE(tree.Insert("k", 7, &nh, &existing).ok());
  Status s = tree.Insert("k", 8, &nh, &existing);
  EXPECT_TRUE(s.IsKeyExists());
  EXPECT_EQ(existing, 7u);
  Oid oid = 0;
  EXPECT_TRUE(tree.Lookup("k", &oid, &nh));
  EXPECT_EQ(oid, 7u);  // original mapping unchanged
}

TEST(BTreeTest, SplitsPreserveAllKeys) {
  BTree tree;
  constexpr uint64_t kN = 5000;  // many levels of splits
  NodeHandle nh;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.Insert(K(i * 7919 % kN + kN), static_cast<Oid>(i + 1),
                            &nh, nullptr)
                    .ok() ||
                true);
  }
  size_t found = 0;
  for (uint64_t i = 0; i < kN; ++i) {
    Oid oid = 0;
    if (tree.Lookup(K(i * 7919 % kN + kN), &oid, &nh)) ++found;
  }
  EXPECT_EQ(found, tree.Size());
  EXPECT_GT(tree.Size(), kN / 2);  // modular collisions dedupe some keys
}

TEST(BTreeTest, OracleEquivalenceRandomOps) {
  BTree tree;
  std::map<std::string, Oid> oracle;
  FastRandom rng(11);
  NodeHandle nh;
  for (int i = 0; i < 20000; ++i) {
    const std::string key = K(rng.UniformU64(0, 2000));
    const int op = static_cast<int>(rng.UniformU64(0, 2));
    if (op == 0) {  // insert
      const Oid oid = static_cast<Oid>(rng.UniformU64(1, 1 << 30));
      Oid existing = 0;
      Status s = tree.Insert(key, oid, &nh, &existing);
      auto [it, inserted] = oracle.emplace(key, oid);
      EXPECT_EQ(s.ok(), inserted);
      if (!inserted) {
        EXPECT_EQ(existing, it->second);
      }
    } else if (op == 1) {  // lookup
      Oid oid = 0;
      const bool found = tree.Lookup(key, &oid, &nh);
      auto it = oracle.find(key);
      EXPECT_EQ(found, it != oracle.end());
      if (found) {
        EXPECT_EQ(oid, it->second);
      }
    } else {  // remove
      Status s = tree.Remove(key);
      EXPECT_EQ(s.ok(), oracle.erase(key) > 0);
    }
  }
  EXPECT_EQ(tree.Size(), oracle.size());
  // Full scan matches the oracle's order.
  std::vector<std::pair<std::string, Oid>> scanned;
  tree.Scan(
      Slice(), Slice(),
      [&](const Slice& k, Oid o) {
        scanned.push_back({k.ToString(), o});
        return true;
      },
      nullptr);
  ASSERT_EQ(scanned.size(), oracle.size());
  auto it = oracle.begin();
  for (size_t i = 0; i < scanned.size(); ++i, ++it) {
    EXPECT_EQ(scanned[i].first, it->first);
    EXPECT_EQ(scanned[i].second, it->second);
  }
}

TEST(BTreeTest, RangeScanBounds) {
  BTree tree;
  NodeHandle nh;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  std::vector<uint64_t> seen;
  tree.Scan(
      K(10), K(20),
      [&](const Slice& k, Oid) {
        seen.push_back(KeyDecoder(k).U64());
        return true;
      },
      nullptr);
  ASSERT_EQ(seen.size(), 11u);  // inclusive bounds
  EXPECT_EQ(seen.front(), 10u);
  EXPECT_EQ(seen.back(), 20u);
}

TEST(BTreeTest, ScanEarlyStop) {
  BTree tree;
  NodeHandle nh;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  int count = 0;
  size_t delivered = tree.Scan(
      K(0), Slice(),
      [&](const Slice&, Oid) { return ++count < 5; }, nullptr);
  EXPECT_EQ(delivered, 5u);
}

TEST(BTreeTest, ReverseScanDescends) {
  BTree tree;
  NodeHandle nh;
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  std::vector<uint64_t> seen;
  tree.ScanReverse(
      K(5), K(60),
      [&](const Slice& k, Oid) {
        seen.push_back(KeyDecoder(k).U64());
        return true;
      },
      nullptr);
  ASSERT_EQ(seen.size(), 56u);
  EXPECT_EQ(seen.front(), 60u);
  EXPECT_EQ(seen.back(), 5u);
  EXPECT_TRUE(std::is_sorted(seen.rbegin(), seen.rend()));
}

TEST(BTreeTest, RemoveMissingIsNotFound) {
  BTree tree;
  EXPECT_TRUE(tree.Remove("nothing").IsNotFound());
}

TEST(BTreeTest, InsertBumpsLeafVersion) {
  BTree tree;
  NodeHandle before;
  Oid oid = 0;
  tree.Lookup("phantom", &oid, &before);  // miss registers the leaf
  NodeHandle after;
  ASSERT_TRUE(tree.Insert("phantom", 9, &after, nullptr).ok());
  // Same leaf (no split yet), strictly newer version: a committed scanner of
  // that leaf must observe the change.
  EXPECT_EQ(before.node, after.node);
  EXPECT_GT(after.version, before.version);
  EXPECT_EQ(BTree::StableVersion(before.node), after.version);
}

TEST(BTreeTest, RemoveBumpsLeafVersion) {
  BTree tree;
  NodeHandle nh;
  ASSERT_TRUE(tree.Insert("k", 1, &nh, nullptr).ok());
  const uint64_t v = BTree::StableVersion(nh.node);
  ASSERT_TRUE(tree.Remove("k").ok());
  EXPECT_GT(BTree::StableVersion(nh.node), v);
}

TEST(BTreeTest, ConcurrentInsertersAllSucceedDisjoint) {
  BTree tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      NodeHandle nh;
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
        ASSERT_TRUE(
            tree.Insert(K(key), static_cast<Oid>(key + 1), &nh, nullptr).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tree.Size(), kThreads * kPerThread);
  NodeHandle nh;
  for (uint64_t key = 0; key < kThreads * kPerThread; ++key) {
    Oid oid = 0;
    ASSERT_TRUE(tree.Lookup(K(key), &oid, &nh)) << key;
    ASSERT_EQ(oid, key + 1);
  }
}

TEST(BTreeTest, ConcurrentReadersDuringInserts) {
  BTree tree;
  NodeHandle nh;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(K(i * 2), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::thread reader([&] {
    NodeHandle h;
    while (!stop.load()) {
      // Pre-loaded even keys must always be found with correct values.
      FastRandom rng(3);
      for (int i = 0; i < 100; ++i) {
        const uint64_t k = rng.UniformU64(0, 999);
        Oid oid = 0;
        if (!tree.Lookup(K(k * 2), &oid, &h) || oid != k + 1) bad.fetch_add(1);
      }
      // Scans must deliver even keys in order.
      uint64_t prev = 0;
      bool first = true;
      tree.Scan(
          Slice(), Slice(),
          [&](const Slice& key, Oid) {
            const uint64_t v = KeyDecoder(key).U64();
            if (!first && v <= prev) bad.fetch_add(1);
            prev = v;
            first = false;
            return true;
          },
          nullptr);
    }
  });
  std::thread writer([&] {
    NodeHandle h;
    for (uint64_t i = 0; i < 2000; ++i) {
      tree.Insert(K(i * 2 + 1), static_cast<Oid>(i + 1), &h, nullptr);
    }
    stop.store(true);
  });
  writer.join();
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(BTreeTest, LongKeysNearLimit) {
  BTree tree;
  NodeHandle nh;
  std::string key(kMaxKeySize - 1, 'a');
  ASSERT_TRUE(tree.Insert(key, 5, &nh, nullptr).ok());
  std::string key2 = key;
  key2.back() = 'b';
  ASSERT_TRUE(tree.Insert(key2, 6, &nh, nullptr).ok());
  Oid oid = 0;
  EXPECT_TRUE(tree.Lookup(key, &oid, &nh));
  EXPECT_EQ(oid, 5u);
  int n = 0;
  tree.Scan(
      key, key2, [&](const Slice&, Oid) { return ++n, true; }, nullptr);
  EXPECT_EQ(n, 2);
}

// ---------------------------------------------------------------------------
// Key-shape properties: nodes store an 8-byte slice per key and keep the
// bytes past it in a side array, so the shapes below are the ones that
// stress the ordering rule (slice, then length class, then suffix bytes).
// Every family is checked against std::map (whose std::string order is
// bytewise, like the tree's) for Insert, Lookup, Remove, Scan and
// ScanReverse with arbitrary bounds.
// ---------------------------------------------------------------------------

enum class KeyShape { kAnyLength, kSliceTies, kPrefixes, kEdgeBytes, kComposite };

std::string RandomBytes(FastRandom& rng, size_t len, bool edge_bytes) {
  // A tiny alphabet makes equal slices, shared prefixes and ties common.
  static const char kAlphabet[] = {'\x00', '\x01', 'a', 'b', '\x7f', '\x80',
                                   '\xfe', '\xff'};
  std::string s(len, '\0');
  for (auto& c : s) {
    c = edge_bytes ? kAlphabet[rng.UniformU64(0, sizeof kAlphabet - 1)]
                   : kAlphabet[rng.UniformU64(2, 3)];
  }
  return s;
}

// A pool of distinct keys of one shape; operations draw from it so inserts,
// removes and lookups collide.
std::vector<std::string> KeyPool(KeyShape shape, FastRandom& rng) {
  std::set<std::string> pool;
  switch (shape) {
    case KeyShape::kAnyLength:
      // Every length 0..63, several keys each.
      for (size_t len = 0; len < kMaxKeySize; ++len) {
        for (int i = 0; i < 8; ++i) pool.insert(RandomBytes(rng, len, true));
      }
      break;
    case KeyShape::kSliceTies:
      // Lengths 7, 8 and 9 on a handful of shared 8-byte slices, including
      // "x" vs "x\0" pairs whose zero-padded slices are identical.
      for (int base = 0; base < 24; ++base) {
        const std::string b = RandomBytes(rng, 8, true);
        pool.insert(b.substr(0, 7));
        pool.insert(b.substr(0, 7) + '\0');
        pool.insert(b);
        for (int i = 0; i < 6; ++i) pool.insert(b + RandomBytes(rng, 1, true));
        pool.insert(b + RandomBytes(rng, rng.UniformU64(2, 20), true));
      }
      break;
    case KeyShape::kPrefixes: {
      // Chains of keys that are prefixes of each other, across the 8-byte
      // boundary.
      for (int chain = 0; chain < 12; ++chain) {
        const std::string full = RandomBytes(rng, kMaxKeySize - 1, false);
        for (size_t len = 0; len < full.size(); len += rng.UniformU64(1, 3)) {
          pool.insert(full.substr(0, len));
        }
        pool.insert(full);
      }
      break;
    }
    case KeyShape::kEdgeBytes:
      // Embedded and trailing 0x00 / 0xFF bytes at every position.
      for (int i = 0; i < 400; ++i) {
        std::string k = RandomBytes(rng, rng.UniformU64(1, 24), true);
        k[rng.UniformU64(0, k.size() - 1)] = rng.Bernoulli(0.5) ? '\0' : '\xff';
        pool.insert(k);
        pool.insert(k + '\0');
        pool.insert(k + '\xff');
      }
      break;
    case KeyShape::kComposite:
      // TPC-C-style composite keys of 12-40 bytes; all tie on their first 8
      // bytes (warehouse, district) within a district.
      for (uint32_t w = 1; w <= 2; ++w) {
        for (uint32_t d = 1; d <= 3; ++d) {
          for (int i = 0; i < 60; ++i) {
            KeyEncoder e;
            e.U32(w).U32(d).U32(static_cast<uint32_t>(rng.UniformU64(0, 40)));
            switch (rng.UniformU64(0, 3)) {
              case 0:
                break;  // 12 bytes (order key)
              case 1:
                e.U32(static_cast<uint32_t>(rng.UniformU64(1, 15)));  // 16
                break;
              case 2:  // 40 bytes (customer-name key)
                e.Str(RandomBytes(rng, rng.UniformU64(0, 16), false), 16)
                    .U64(rng.UniformU64(0, 3))
                    .U32(static_cast<uint32_t>(rng.UniformU64(0, 3)));
                break;
              default:
                e.U64(rng.UniformU64(0, 1ull << 40));  // 20
                break;
            }
            pool.insert(e.slice().ToString());
          }
        }
      }
      break;
  }
  return {pool.begin(), pool.end()};
}

class BTreeKeyShapeTest : public ::testing::TestWithParam<KeyShape> {};

std::vector<std::pair<std::string, Oid>> ScanAll(const BTree& tree,
                                                 const std::string& lo,
                                                 const std::string* hi,
                                                 bool reverse, size_t limit) {
  std::vector<std::pair<std::string, Oid>> out;
  auto cb = [&](const Slice& k, Oid o) {
    out.push_back({k.ToString(), o});
    return out.size() < limit;
  };
  const Slice hi_slice = hi != nullptr ? Slice(*hi) : Slice();
  const size_t delivered = reverse ? tree.ScanReverse(lo, hi_slice, cb, nullptr)
                                   : tree.Scan(lo, hi_slice, cb, nullptr);
  EXPECT_EQ(delivered, out.size());
  return out;
}

std::vector<std::pair<std::string, Oid>> OracleRange(
    const std::map<std::string, Oid>& oracle, const std::string& lo,
    const std::string* hi, bool reverse, size_t limit) {
  std::vector<std::pair<std::string, Oid>> out;
  for (auto it = oracle.lower_bound(lo);
       it != oracle.end() && (hi == nullptr || it->first <= *hi); ++it) {
    out.push_back(*it);
  }
  if (reverse) std::reverse(out.begin(), out.end());
  if (out.size() > limit) out.resize(limit);
  return out;
}

TEST_P(BTreeKeyShapeTest, MatchesOrderedMap) {
  FastRandom rng(1000 + static_cast<uint64_t>(GetParam()));
  const std::vector<std::string> pool = KeyPool(GetParam(), rng);
  ASSERT_GT(pool.size(), 100u);
  BTree tree;
  std::map<std::string, Oid> oracle;
  NodeHandle nh;
  auto pick = [&] { return pool[rng.UniformU64(0, pool.size() - 1)]; };

  auto check_scans = [&] {
    for (int i = 0; i < 40; ++i) {
      // Bounds are pool keys, possibly absent from the tree, or their
      // neighbours one byte longer/shorter; hi may be open or below lo.
      std::string lo = pick();
      if (rng.Bernoulli(0.2)) lo += '\0';
      if (rng.Bernoulli(0.2) && !lo.empty()) lo.pop_back();
      if (rng.Bernoulli(0.1)) lo.clear();
      std::string hi_key = pick();
      if (rng.Bernoulli(0.2)) hi_key += '\xff';
      // An empty hi means open-ended, as in the BTree API.
      const std::string* hi =
          rng.Bernoulli(0.2) || hi_key.empty() ? nullptr : &hi_key;
      const bool reverse = rng.Bernoulli(0.5);
      const size_t limit = rng.Bernoulli(0.3) ? rng.UniformU64(1, 5) : SIZE_MAX;
      ASSERT_EQ(ScanAll(tree, lo, hi, reverse, limit),
                OracleRange(oracle, lo, hi, reverse, limit))
          << "lo size " << lo.size() << " hi " << (hi ? hi->size() : 999)
          << " reverse " << reverse << " limit " << limit;
    }
  };

  for (int step = 0; step < 12000; ++step) {
    const std::string key = pick();
    switch (rng.UniformU64(0, 3)) {
      case 0:
      case 1: {
        const Oid oid = static_cast<Oid>(rng.UniformU64(1, 1u << 30));
        Oid existing = 0;
        Status s = tree.Insert(key, oid, &nh, &existing);
        auto [it, inserted] = oracle.emplace(key, oid);
        ASSERT_EQ(s.ok(), inserted);
        if (!inserted) ASSERT_EQ(existing, it->second);
        break;
      }
      case 2: {
        Oid oid = 0;
        const bool found = tree.Lookup(key, &oid, &nh);
        auto it = oracle.find(key);
        ASSERT_EQ(found, it != oracle.end());
        if (found) ASSERT_EQ(oid, it->second);
        break;
      }
      default:
        ASSERT_EQ(tree.Remove(key).ok(), oracle.erase(key) > 0);
        break;
    }
    if (step % 2000 == 1999) check_scans();
  }
  // Every pool key, present or not, answers Lookup like the map.
  for (const std::string& key : pool) {
    Oid oid = 0;
    ASSERT_EQ(tree.Lookup(key, &oid, &nh), oracle.count(key) > 0);
  }
  ASSERT_EQ(ScanAll(tree, "", nullptr, false, SIZE_MAX),
            OracleRange(oracle, "", nullptr, false, SIZE_MAX));
  check_scans();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BTreeKeyShapeTest,
    ::testing::Values(KeyShape::kAnyLength, KeyShape::kSliceTies,
                      KeyShape::kPrefixes, KeyShape::kEdgeBytes,
                      KeyShape::kComposite),
    [](const ::testing::TestParamInfo<KeyShape>& info) {
      switch (info.param) {
        case KeyShape::kAnyLength:
          return "AnyLength";
        case KeyShape::kSliceTies:
          return "SliceTies";
        case KeyShape::kPrefixes:
          return "Prefixes";
        case KeyShape::kEdgeBytes:
          return "EdgeBytes";
        case KeyShape::kComposite:
          return "Composite";
      }
      return "?";
    });

// The ordering rule's corners: keys equal in a zero-padded slice (bytes 0-7,
// or 8-15 of long keys) order by length class before any later byte is
// compared.
TEST(BTreeTest, SliceTiesOrderBytewise) {
  const std::vector<std::string> ordered = {
      std::string(""),
      std::string("\0", 1),
      std::string("abcdefg"),
      std::string("abcdefg\0", 8),
      std::string("abcdefg\0\0", 9),
      std::string("abcdefg\0\xff", 9),
      std::string("abcdefg\x01", 8),
      std::string("abcdefgh"),
      std::string("abcdefgh\0", 9),
      std::string("abcdefgh\0\0", 10),
      std::string("abcdefgh\x01", 9),
      std::string("abcdefghi"),
      std::string("abcdefghij"),
      std::string("abcdefghijklmno"),
      std::string("abcdefghijklmno\0", 16),
      std::string("abcdefghijklmno\0\0", 17),
      std::string("abcdefghijklmnop"),
      std::string("abcdefghijklmnop\0", 17),
      std::string("abcdefghijklmnopq"),
      std::string("abcdefghijklmnoq"),
      std::string("abcdefgi"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff")};
  ASSERT_TRUE(std::is_sorted(ordered.begin(), ordered.end()));
  BTree tree;
  NodeHandle nh;
  for (size_t i = ordered.size(); i-- > 0;) {
    ASSERT_TRUE(tree.Insert(ordered[i], static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  std::vector<std::string> seen;
  tree.Scan(
      Slice(), Slice(),
      [&](const Slice& k, Oid o) {
        EXPECT_EQ(o, seen.size() + 1);
        seen.push_back(k.ToString());
        return true;
      },
      nullptr);
  EXPECT_EQ(seen, ordered);
}

}  // namespace
}  // namespace ermia
