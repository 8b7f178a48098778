// Heavy concurrent stress on the OLC B+-tree: mixed insert/remove/lookup
// against a sharded oracle, scans racing structural changes, split storms on
// sequential and random key patterns, and phantom-hook coherence (every
// mutation of a leaf bumps its version).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/key_encoder.h"
#include "common/random.h"
#include "index/btree.h"

namespace ermia {
namespace {

std::string K(uint64_t v) { return KeyEncoder().U64(v).slice().ToString(); }

// Each key is owned by (key % kThreads), so per-thread oracles stay exact
// without cross-thread coordination.
TEST(BTreeStressTest, ShardedMixedOpsMatchOracle) {
  BTree tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kSpace = 4000;
  constexpr int kOpsPerThread = 30000;
  std::vector<std::map<uint64_t, Oid>> oracles(kThreads);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> mismatches{0};

  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FastRandom rng(t + 71);
      auto& oracle = oracles[t];
      NodeHandle nh;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key =
            rng.UniformU64(0, kSpace / kThreads - 1) * kThreads +
            static_cast<uint64_t>(t);
        switch (rng.UniformU64(0, 2)) {
          case 0: {  // insert
            const Oid oid = static_cast<Oid>(rng.UniformU64(1, 1u << 30));
            Status s = tree.Insert(K(key), oid, &nh, nullptr);
            auto [it, inserted] = oracle.emplace(key, oid);
            if (s.ok() != inserted) mismatches.fetch_add(1);
            break;
          }
          case 1: {  // remove
            Status s = tree.Remove(K(key));
            if (s.ok() != (oracle.erase(key) > 0)) mismatches.fetch_add(1);
            break;
          }
          default: {  // lookup
            Oid oid = 0;
            const bool found = tree.Lookup(K(key), &oid, &nh);
            auto it = oracle.find(key);
            if (found != (it != oracle.end())) {
              mismatches.fetch_add(1);
            } else if (found && oid != it->second) {
              mismatches.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  size_t expected = 0;
  for (auto& o : oracles) expected += o.size();
  EXPECT_EQ(tree.Size(), expected);
}

TEST(BTreeStressTest, ScansNeverSeeTornStateDuringSplits) {
  BTree tree;
  NodeHandle nh;
  // Pre-load only even keys; writers add odd keys (forcing splits), and the
  // scanning thread asserts even keys are always all present and in order.
  constexpr uint64_t kEven = 3000;
  for (uint64_t i = 0; i < kEven; ++i) {
    ASSERT_TRUE(tree.Insert(K(i * 2), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::thread scanner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t prev = UINT64_MAX;
      uint64_t even_seen = 0;
      tree.Scan(
          Slice(), Slice(),
          [&](const Slice& key, Oid) {
            const uint64_t v = KeyDecoder(key).U64();
            if (prev != UINT64_MAX && v <= prev) violations.fetch_add(1);
            prev = v;
            if (v % 2 == 0) ++even_seen;
            return true;
          },
          nullptr);
      if (even_seen != kEven) violations.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      NodeHandle h;
      for (uint64_t i = static_cast<uint64_t>(t); i < 6000; i += 2) {
        tree.Insert(K(i * 2 + 1), static_cast<Oid>(i + 1), &h, nullptr);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  scanner.join();
  EXPECT_EQ(violations.load(), 0u);
}

// Batched lookups (LookupBatch) racing writers that split leaves and inner
// nodes: every preloaded key is found with its OID, and keys no one inserts
// are never found.
TEST(BTreeStressTest, BatchedLookupsDuringSplits) {
  BTree tree;
  NodeHandle nh;
  // Key 4i is preloaded with OID 4i+1, writers insert 4i+1 and 4i+2, and
  // 4i+3 stays absent.
  constexpr uint64_t kPreloaded = 3000;
  constexpr uint64_t kWritten = 12000;
  for (uint64_t i = 0; i < kPreloaded; ++i) {
    ASSERT_TRUE(
        tree.Insert(K(4 * i), static_cast<Oid>(4 * i + 1), &nh, nullptr).ok());
  }
  const uint64_t splits_before = tree.splits();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> batches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      FastRandom rng(t + 303);
      constexpr size_t kMaxBatch = BTree::kLookupGroup;
      std::string keys[kMaxBatch];
      Slice slices[kMaxBatch];
      uint64_t expect[kMaxBatch];  // 0: must be absent
      Oid oids[kMaxBatch];
      bool found[kMaxBatch];
      NodeHandle handles[kMaxBatch];
      while (!stop.load(std::memory_order_acquire)) {
        const size_t n = rng.UniformU64(1, kMaxBatch);
        for (size_t i = 0; i < n; ++i) {
          const uint64_t k = 4 * rng.UniformU64(0, kWritten - 1);
          const bool present = k < 4 * kPreloaded && rng.Bernoulli(0.8);
          keys[i] = present ? K(k) : K(k + 3);
          slices[i] = keys[i];
          expect[i] = present ? k + 1 : 0;
          oids[i] = 0;
        }
        tree.LookupBatch(slices, n, oids, found, handles);
        for (size_t i = 0; i < n; ++i) {
          if (found[i] != (expect[i] != 0) ||
              (found[i] && oids[i] != expect[i]) ||
              handles[i].node == nullptr) {
            violations.fetch_add(1);
          }
        }
        batches.fetch_add(1);
        std::this_thread::yield();  // let the writers through under TSan
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      NodeHandle h;
      // A stride through the key space, so splits land all over the tree.
      for (uint64_t j = 0; j < kWritten; ++j) {
        const uint64_t i = (j * 7919) % kWritten;
        const uint64_t k = 4 * i + 1 + static_cast<uint64_t>(t);
        tree.Insert(K(k), static_cast<Oid>(k + 1), &h, nullptr);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(batches.load(), 0u);
  // 27,000 keys need at least 844 leaves under at least 26 inner nodes;
  // the preload had 3,000 keys, so inner nodes split during the race.
  EXPECT_GT(tree.splits() - splits_before, 2 * kWritten / BTree::kFanout);
  EXPECT_EQ(tree.Size(), kPreloaded + 2 * kWritten);
}

TEST(BTreeStressTest, SequentialInsertSplitStorm) {
  // Monotonic keys hammer the rightmost path: every leaf fills and splits.
  BTree tree;
  NodeHandle nh;
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  EXPECT_EQ(tree.Size(), kN);
  // Spot-check order and completeness at the boundaries.
  Oid oid = 0;
  EXPECT_TRUE(tree.Lookup(K(0), &oid, &nh));
  EXPECT_TRUE(tree.Lookup(K(kN - 1), &oid, &nh));
  EXPECT_FALSE(tree.Lookup(K(kN), &oid, &nh));
}

TEST(BTreeStressTest, RemoveHeavyThenReinsert) {
  BTree tree;
  NodeHandle nh;
  constexpr uint64_t kN = 20000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  // Remove every other key (no merging: leaves go half-empty).
  for (uint64_t i = 0; i < kN; i += 2) {
    ASSERT_TRUE(tree.Remove(K(i)).ok());
  }
  EXPECT_EQ(tree.Size(), kN / 2);
  // Scans still deliver exactly the surviving keys, in order.
  uint64_t expect = 1;
  size_t n = 0;
  tree.Scan(
      Slice(), Slice(),
      [&](const Slice& key, Oid) {
        EXPECT_EQ(KeyDecoder(key).U64(), expect);
        expect += 2;
        ++n;
        return true;
      },
      nullptr);
  EXPECT_EQ(n, kN / 2);
  // Reinsert into the holes.
  for (uint64_t i = 0; i < kN; i += 2) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<Oid>(i + 7), &nh, nullptr).ok());
  }
  EXPECT_EQ(tree.Size(), kN);
}

// TPC-C-shaped long keys (16-40 bytes) that all tie on their first 8 bytes,
// so every comparison past the slice reads the nodes' suffix arrays while
// writers split nodes and shift suffixes under concurrent scans.
std::string LongKey(uint32_t o, uint32_t ol) {
  KeyEncoder e;
  e.U32(1).U32(1).U32(o).U32(ol);
  e.Str(std::string((o * 7 + ol) % 25, 'f'), (o * 7 + ol) % 25);
  return e.slice().ToString();
}

TEST(BTreeStressTest, LongKeySplitStormWithScans) {
  BTree tree;
  constexpr int kWriters = 4;
  constexpr uint32_t kOrders = 1200;
  constexpr uint32_t kLines = 12;
  // Stable keys (line 0 of every order) are loaded up front and never
  // removed; scans must always see all of them, in order.
  NodeHandle nh;
  for (uint32_t o = 0; o < kOrders; ++o) {
    ASSERT_TRUE(tree.Insert(LongKey(o, 0), o + 1, &nh, nullptr).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  auto scanner = [&](uint64_t seed) {
    FastRandom rng(seed);
    while (!stop.load(std::memory_order_acquire)) {
      const uint32_t a = static_cast<uint32_t>(rng.UniformU64(0, kOrders - 1));
      const uint32_t b = static_cast<uint32_t>(rng.UniformU64(a, kOrders - 1));
      const std::string lo = LongKey(a, 0);
      const std::string hi = LongKey(b, 0);
      std::string prev;
      uint32_t stable_seen = 0;
      tree.Scan(
          lo, hi,
          [&](const Slice& key, Oid) {
            const std::string k = key.ToString();
            if (!prev.empty() && k <= prev) violations.fetch_add(1);
            if (k < lo || k > hi) violations.fetch_add(1);
            KeyDecoder dec(key);
            dec.U32();
            dec.U32();
            dec.U32();
            if (dec.U32() == 0) ++stable_seen;
            prev = k;
            return true;
          },
          nullptr);
      if (stable_seen != b - a + 1) violations.fetch_add(1);
    }
  };
  std::vector<std::thread> scanners;
  for (int i = 0; i < 2; ++i) scanners.emplace_back(scanner, 17 + i);
  // Writers own the orders o % kWriters == t: ascending inserts split the
  // same leaves over and over; every third line is removed again.
  std::vector<std::set<std::string>> owned(kWriters);
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      NodeHandle h;
      for (uint32_t ol = 1; ol <= kLines; ++ol) {
        for (uint32_t o = static_cast<uint32_t>(t); o < kOrders; o += kWriters) {
          const std::string k = LongKey(o, ol);
          if (!tree.Insert(k, o * 100 + ol, &h, nullptr).ok()) {
            violations.fetch_add(1);
          }
          owned[t].insert(k);
          if (ol % 3 == 0) {
            const std::string gone = LongKey(o, ol - 1);
            if (!tree.Remove(gone).ok()) violations.fetch_add(1);
            owned[t].erase(gone);
          }
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& s : scanners) s.join();
  EXPECT_EQ(violations.load(), 0u);

  std::set<std::string> expected;
  for (uint32_t o = 0; o < kOrders; ++o) expected.insert(LongKey(o, 0));
  for (auto& o : owned) expected.insert(o.begin(), o.end());
  std::vector<std::string> scanned;
  tree.Scan(
      Slice(), Slice(),
      [&](const Slice& key, Oid) {
        scanned.push_back(key.ToString());
        return true;
      },
      nullptr);
  EXPECT_EQ(scanned, std::vector<std::string>(expected.begin(), expected.end()));
  for (const std::string& k : expected) {
    Oid oid = 0;
    ASSERT_TRUE(tree.Lookup(k, &oid, &nh));
  }
}

TEST(BTreeStressTest, LeafVersionBumpsOnEveryMutation) {
  BTree tree;
  NodeHandle nh;
  ASSERT_TRUE(tree.Insert("probe", 1, &nh, nullptr).ok());
  uint64_t last = BTree::StableVersion(nh.node);
  // Insertions into the same leaf must each advance the version.
  for (int i = 0; i < 8; ++i) {
    NodeHandle h;
    ASSERT_TRUE(
        tree.Insert("probe" + std::to_string(i), 2, &h, nullptr).ok());
    if (h.node == nh.node) {
      EXPECT_GT(h.version, last);
      last = h.version;
    }
  }
  ASSERT_TRUE(tree.Remove("probe").ok());
  EXPECT_GT(BTree::StableVersion(nh.node), last);
}

}  // namespace
}  // namespace ermia
