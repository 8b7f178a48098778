// Epoch-integrated version allocator (storage/version_alloc.h) and the
// per-thread transaction resource pool (txn/txn_resources.h): size-class
// routing, cross-thread recycling through the transfer cache, epoch-deferred
// reuse (poison-verified), and TxnResources reuse across begin/finish/abort.
#include "storage/version_alloc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "epoch/epoch_manager.h"
#include "storage/version.h"
#include "test_util.h"
#include "txn/txn_resources.h"

namespace ermia {
namespace {

TEST(VersionAllocTest, SizeClassRouting) {
  // Every slab-served size maps to the tightest class that fits.
  for (size_t bytes = 1; bytes <= VersionAllocator::kMaxBlockBytes; ++bytes) {
    const uint8_t cls = VersionAllocator::ClassFor(bytes);
    ASSERT_NE(cls, VersionAllocator::kMallocClass) << bytes;
    ASSERT_GE(VersionAllocator::ClassBytes(cls), bytes);
    if (cls > 0) {
      ASSERT_LT(VersionAllocator::ClassBytes(cls - 1), bytes)
          << "class not tight for " << bytes;
    }
  }
  EXPECT_EQ(VersionAllocator::ClassFor(VersionAllocator::kMaxBlockBytes + 1),
            VersionAllocator::kMallocClass);
  EXPECT_EQ(VersionAllocator::ClassBytes(0), 64u);
  EXPECT_EQ(
      VersionAllocator::ClassBytes(VersionAllocator::kNumClasses - 1),
      VersionAllocator::kMaxBlockBytes);
}

TEST(VersionAllocTest, VersionCarriesProvenance) {
  VersionAllocator::Instance().SetMode(VersionAllocMode::kSlab);
  Version* small = Version::Alloc("abc");
  EXPECT_EQ(small->alloc_class,
            VersionAllocator::ClassFor(sizeof(Version) + 3));
  EXPECT_EQ(small->value().ToString(), "abc");
  Version::Free(small);

  // Oversized payloads fall back to malloc and are tagged so, which keeps
  // Free() routing correct even across a mode switch.
  const std::string big(VersionAllocator::kMaxBlockBytes + 1, 'z');
  Version* huge = Version::Alloc(big);
  EXPECT_EQ(huge->alloc_class, VersionAllocator::kMallocClass);
  Version::Free(huge);

  VersionAllocator::Instance().SetMode(VersionAllocMode::kMalloc);
  Version* raw = Version::Alloc("abc");
  EXPECT_EQ(raw->alloc_class, VersionAllocator::kMallocClass);
  Version::Free(raw);
  VersionAllocator::Instance().SetMode(VersionAllocMode::kSlab);
}

TEST(VersionAllocTest, ImmediateFreeRecyclesLocally) {
  VersionAllocator& va = VersionAllocator::Instance();
  va.SetMode(VersionAllocMode::kSlab);
  const std::string payload(100, 'p');
  Version* v = Version::Alloc(payload);
  void* vp = v;
  Version::Free(v);  // never published: immediate recycle is legal
  // LIFO freelist: the very next same-class allocation reuses the block.
  Version* w = Version::Alloc(payload);
  EXPECT_EQ(static_cast<void*>(w), vp);
  Version::Free(w);
}

TEST(VersionAllocTest, CrossThreadFreeFlowsThroughTransferCache) {
  VersionAllocator& va = VersionAllocator::Instance();
  va.SetMode(VersionAllocMode::kSlab);
  // A class this binary does not otherwise touch: payload 3000 -> block 3056
  // -> class 3072.
  const std::string payload(3000, 'y');
  constexpr int kBlocks = 200;

  std::vector<void*> freed;
  std::thread producer([&] {
    std::vector<Version*> versions;
    versions.reserve(kBlocks);
    for (int i = 0; i < kBlocks; ++i) {
      versions.push_back(Version::Alloc(payload));
    }
    for (Version* v : versions) {
      freed.push_back(v);
      Version::Free(v);
    }
    // Thread exit retires the cache: remaining freelists are flushed to the
    // global transfer cache for other threads to splice.
  });
  producer.join();

  const VersionAllocator::Stats before = va.Snapshot();
  std::unordered_set<void*> produced(freed.begin(), freed.end());
  bool recycled = false;
  std::vector<Version*> mine;
  mine.reserve(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    Version* v = Version::Alloc(payload);
    if (produced.count(v) != 0) recycled = true;
    mine.push_back(v);
  }
  const VersionAllocator::Stats after = va.Snapshot();
  EXPECT_TRUE(recycled) << "consumer never saw a producer-freed block";
  EXPECT_GT(after.transfer_pops, before.transfer_pops);
  for (Version* v : mine) Version::Free(v);
}

TEST(VersionAllocTest, EpochDeferredReuseWaitsForBoundary) {
  VersionAllocator& va = VersionAllocator::Instance();
  va.SetMode(VersionAllocMode::kSlab);
  va.SetPoison(true);
  EpochManager mgr;
  va.AttachEpoch(&mgr);
  ThreadRegistry::MyId();

  const std::string payload(300, 'x');
  Version* v = Version::Alloc(payload);
  void* vp = v;

  mgr.Enter();  // stand-in for a concurrent reader still traversing v
  Version::FreeDeferred(&mgr, v);
  EXPECT_EQ(va.HarvestThisThread(), 0u);
  // While the epoch is pinned the block must not be handed out again.
  std::vector<Version*> held;
  for (int i = 0; i < 64; ++i) {
    Version* w = Version::Alloc(payload);
    EXPECT_NE(static_cast<void*>(w), vp);
    held.push_back(w);
  }
  for (Version* w : held) Version::Free(w);
  // The deferred block's bytes were left untouched (a reader could still be
  // on them): limbo bookkeeping is out-of-band.
  EXPECT_EQ(va.HarvestThisThread(), 0u);

  mgr.Exit();
  mgr.Advance();  // boundary now covers the retirement epoch
  EXPECT_GE(va.HarvestThisThread(), 1u);
  // The block is back on the freelist, poisoned at harvest time; handout
  // verifies the poison is intact (any write between reclamation and reuse
  // would trip an ERMIA_CHECK inside Allocate).
  bool reused = false;
  std::vector<Version*> drain;
  for (int i = 0; i < 128 && !reused; ++i) {
    Version* w = Version::Alloc(payload);
    reused = static_cast<void*>(w) == vp;
    drain.push_back(w);
  }
  EXPECT_TRUE(reused);
  for (Version* w : drain) Version::Free(w);
  va.SetPoison(false);
  va.DetachEpoch(&mgr);
}

// With the epoch pinned, as a GC pass pins it for its whole run, nothing
// retired can be reclaimed, and each periodic harvest must cost O(1) rather
// than a walk over all of limbo: retiring 4x the versions takes at most 5x
// as long. Best of three runs per size, to ride out a loaded machine.
TEST(VersionAllocTest, PinnedRetireScalesLinearly) {
  VersionAllocator& va = VersionAllocator::Instance();
  va.SetMode(VersionAllocMode::kSlab);
  EpochManager mgr;
  va.AttachEpoch(&mgr);
  ThreadRegistry::MyId();
  std::vector<void*> blocks;
  const auto best_retire_seconds = [&](size_t n) {
    double best = 1e9;
    for (int run = 0; run < 3; ++run) {
      blocks.resize(n);
      uint8_t cls = 0;
      for (void*& b : blocks) b = va.Allocate(sizeof(Version), &cls);
      mgr.Enter();
      const auto t0 = std::chrono::steady_clock::now();
      for (void* b : blocks) va.FreeDeferred(b, cls, &mgr);
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, took.count());
      EXPECT_EQ(va.HarvestThisThread(), 0u);  // still pinned
      mgr.Exit();
      mgr.Advance();
      EXPECT_GE(va.HarvestThisThread(), n);
    }
    return best;
  };
  const double one = best_retire_seconds(1u << 20);
  const double four = best_retire_seconds(4u << 20);
  EXPECT_LE(four, 5 * one) << "1M: " << one << " s, 4M: " << four << " s";
  blocks.clear();
  blocks.shrink_to_fit();
  va.FlushThisThread();
  va.DetachEpoch(&mgr);
}

TEST(VersionAllocTest, DetachedManagerEntriesReclaimImmediately) {
  VersionAllocator& va = VersionAllocator::Instance();
  va.SetMode(VersionAllocMode::kSlab);
  const std::string payload(300, 'x');
  auto mgr = std::make_unique<EpochManager>();
  va.AttachEpoch(mgr.get());
  ThreadRegistry::MyId();
  mgr->Enter();
  Version* v = Version::Alloc(payload);
  Version::FreeDeferred(mgr.get(), v);
  EXPECT_EQ(va.HarvestThisThread(), 0u);  // pinned
  mgr->Exit();
  // Detach (as ~Database does) then destroy: the limbo entry's generation
  // check fails, so harvest reclaims it without dereferencing the dead
  // manager.
  va.DetachEpoch(mgr.get());
  mgr.reset();
  EXPECT_GE(va.HarvestThisThread(), 1u);
}

TEST(TxnResourcePoolTest, ReuseRetainsCapacity) {
  // Drain whatever earlier tests parked so hit/miss expectations are exact.
  std::vector<TxnResources*> drained;
  bool hit = false;
  while (TxnResourcePool::PooledCountForTesting() > 0) {
    drained.push_back(TxnResourcePool::Acquire(&hit));
  }

  TxnResources* r = TxnResourcePool::Acquire(&hit);
  EXPECT_FALSE(hit);
  r->read_set.reserve(128);
  r->staging.assign(4096, 'c');
  r->held_locks.push_back(TplLockEntry{42, true});
  const size_t read_cap = r->read_set.capacity();
  const size_t staging_cap = r->staging.capacity();

  TxnResourcePool::Release(r);
  EXPECT_GE(TxnResourcePool::PooledCountForTesting(), 1u);
  TxnResources* r2 = TxnResourcePool::Acquire(&hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(r2, r);  // LIFO: same bundle comes back
  EXPECT_TRUE(r2->read_set.empty());
  EXPECT_TRUE(r2->held_locks.empty());
  EXPECT_TRUE(r2->staging.empty());
  // Cleared, not shrunk: capacity survives the round trip.
  EXPECT_GE(r2->read_set.capacity(), read_cap);
  EXPECT_GE(r2->staging.capacity(), staging_cap);
  TxnResourcePool::Release(r2);
  for (TxnResources* d : drained) TxnResourcePool::Release(d);
}

TEST(TxnResourcePoolTest, TransactionLifecycleRecyclesResources) {
  testing::TempDb db;
  ASSERT_TRUE(db->Open().ok());
  Table* table = db->CreateTable("t");
  Index* pk = db->CreateIndex(table, "t_pk");

  const metrics::MetricsSnapshot before = db->SnapshotMetrics();
  Oid oid = 0;
  {
    Transaction txn(db.get(), CcScheme::kSiSsn);
    ASSERT_TRUE(txn.Insert(table, pk, "k1", "v1", &oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(db.get(), CcScheme::kSiSsn);
    Slice v;
    ASSERT_TRUE(txn.Get(pk, "k1", &v).ok());
    EXPECT_EQ(v.ToString(), "v1");
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    // The abort path returns the bundle too.
    Transaction txn(db.get(), CcScheme::kSiSsn);
    ASSERT_TRUE(txn.Update(table, oid, "v2").ok());
    txn.Abort();
  }
  const metrics::MetricsSnapshot after = db->SnapshotMetrics();
  const uint64_t hits =
      after.counter(metrics::Ctr::kTxnResPoolHits) -
      before.counter(metrics::Ctr::kTxnResPoolHits);
  // After the first transaction warms this thread's pool, every subsequent
  // begin is a pool hit.
  EXPECT_GE(hits, 2u);
  EXPECT_GE(TxnResourcePool::PooledCountForTesting(), 1u);
}

TEST(VersionAllocTest, EngineExposesAllocatorGauges) {
  testing::TempDb db;
  ASSERT_TRUE(db->Open().ok());
  if (db->config().version_allocator != VersionAllocMode::kSlab) {
    GTEST_SKIP() << "slab allocator disabled via config/env";
  }
  Table* table = db->CreateTable("t");
  Index* pk = db->CreateIndex(table, "t_pk");
  for (int i = 0; i < 64; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(txn.Insert(table, pk, key, "value", nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  const metrics::MetricsSnapshot snap = db->SnapshotMetrics();
  EXPECT_GT(snap.counter(metrics::Ctr::kVerAllocSlabBytes), 0u);
  EXPECT_GT(snap.counter(metrics::Ctr::kTxnResPoolHits) +
                snap.counter(metrics::Ctr::kTxnResPoolMisses),
            0u);
}

}  // namespace
}  // namespace ermia
