// Engine edge cases: stats/introspection, the background checkpoint daemon,
// GC behavior with pinned old snapshots, value-size extremes, many
// tables/indexes, update churn with chain trimming, and transaction object
// lifetime quirks (destructor abort, commit-after-finish misuse guards).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "test_util.h"

namespace ermia {
namespace {

TEST(EngineStatsTest, CountersMoveTheRightWay) {
  testing::TempDb db;
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  EXPECT_EQ(db->tables().size(), 1u);
  EXPECT_EQ(db->index_list().size(), 1u);
  const uint64_t offset_before = db->log().CurrentOffset();
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "k", "v", nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    // An abort before reservation discards the private staging outright (no
    // skip block needed); a post-reservation validation failure converts the
    // reservation into a skip block. Build the latter with an OCC reader
    // whose footprint gets overwritten after it buffers a write.
    Transaction reader(db.get(), CcScheme::kOcc);
    Oid oid = 0;
    Slice v;
    ASSERT_TRUE(reader.GetOid(pk, "k", &oid).ok());
    {
      Transaction writer(db.get(), CcScheme::kSi);
      ASSERT_TRUE(writer.Update(t, oid, "overwritten").ok());
      ASSERT_TRUE(writer.Commit().ok());
    }
    ASSERT_TRUE(reader.Update(t, oid, "loser").ok());
    ASSERT_FALSE(reader.Commit().ok());  // validation fails post-reservation
  }
  db->log().WaitForDurable(db->log().CurrentOffset());
  const uint64_t offset_after = db->log().CurrentOffset();
  EXPECT_GT(offset_after, offset_before);
  EXPECT_GE(db->log().DurableOffset(), offset_after);
  EXPECT_GE(db->SnapshotMetrics().counter(metrics::Ctr::kLogSkipBlocks), 1u);
}

TEST(CheckpointDaemonTest, PeriodicCheckpointsHappen) {
  EngineConfig config;
  config.checkpoint_interval_ms = 30;
  testing::TempDb db(config);
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  for (int i = 0; i < 20; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "k" + std::to_string(i), "v", nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_GE(db->SnapshotMetrics().counter(metrics::Ctr::kCheckpointsTaken),
            1u);
  // And a restart recovers through one of those checkpoints.
  db.ShutDown();
  db.Restart(config);
  t = db->CreateTable("t");
  pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  ASSERT_TRUE(db->Recover().ok());
  Transaction txn(db.get(), CcScheme::kSi);
  int n = 0;
  ASSERT_TRUE(txn.Scan(pk, Slice(), Slice(), -1,
                       [&](const Slice&, const Slice&) {
                         ++n;
                         return true;
                       })
                  .ok());
  EXPECT_EQ(n, 20);
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(GcPinningTest, OldSnapshotKeepsOldVersionsAlive) {
  EngineConfig config;
  config.enable_gc = false;  // drive GC by hand for determinism
  testing::TempDb db(config);
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  Oid oid = 0;
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "k", "v0", &oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction pinned(db.get(), CcScheme::kSi);  // snapshot at v0
  Slice v;
  ASSERT_TRUE(pinned.Read(t, oid, &v).ok());
  EXPECT_EQ(v.ToString(), "v0");

  for (int i = 1; i <= 10; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Update(t, oid, "v" + std::to_string(i)).ok());
    ASSERT_TRUE(txn.Commit().ok());
    db->gc().NotifyUpdate(t, oid);
  }
  // GC runs but must preserve everything the pinned snapshot can reach.
  db->gc().RunOnce();
  ASSERT_TRUE(pinned.Read(t, oid, &v).ok());
  EXPECT_EQ(v.ToString(), "v0");
  EXPECT_TRUE(pinned.Commit().ok());

  // With the pin gone, another pass may trim the chain down.
  for (int i = 0; i < 3; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Update(t, oid, "final").ok());
    ASSERT_TRUE(txn.Commit().ok());
    db->gc().NotifyUpdate(t, oid);
  }
  EXPECT_GT(db->gc().RunOnce(), 0u);
  Transaction check(db.get(), CcScheme::kSi);
  ASSERT_TRUE(check.Read(t, oid, &v).ok());
  EXPECT_EQ(v.ToString(), "final");
  EXPECT_TRUE(check.Commit().ok());
}

TEST(ValueSizeTest, EmptyAndLargeValues) {
  testing::TempDb db;
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  const std::string big(256 * 1024, 'B');
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "empty", Slice(), nullptr).ok());
    ASSERT_TRUE(txn.Insert(t, pk, "big", big, nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(db.get(), CcScheme::kSi);
  Slice v;
  ASSERT_TRUE(txn.Get(pk, "empty", &v).ok());
  EXPECT_EQ(v.size(), 0u);
  ASSERT_TRUE(txn.Get(pk, "big", &v).ok());
  EXPECT_EQ(v.ToString(), big);
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(CatalogTest, ManyTablesAndIndexes) {
  testing::TempDb db;
  std::vector<Table*> tables;
  std::vector<Index*> indexes;
  for (int i = 0; i < 40; ++i) {
    Table* t = db->CreateTable("table" + std::to_string(i));
    tables.push_back(t);
    indexes.push_back(db->CreateIndex(t, "index" + std::to_string(i)));
  }
  ASSERT_TRUE(db->Open().ok());
  {
    Transaction txn(db.get(), CcScheme::kSi);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          txn.Insert(tables[i], indexes[i], "k", std::to_string(i), nullptr)
              .ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  // FIDs resolve to the right objects.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(db->TableByFid(tables[i]->fid()), tables[i]);
    EXPECT_EQ(db->IndexByFid(indexes[i]->fid()), indexes[i]);
    EXPECT_EQ(db->TableByFid(indexes[i]->fid()), nullptr);  // wrong kind
  }
  Transaction txn(db.get(), CcScheme::kSi);
  for (int i = 0; i < 40; ++i) {
    Slice v;
    ASSERT_TRUE(txn.Get(indexes[i], "k", &v).ok());
    EXPECT_EQ(v.ToString(), std::to_string(i));
  }
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(SnapshotDaemonTest, OccSnapshotAdvancesOverTime) {
  EngineConfig config;
  config.occ_snapshot_interval_ms = 10;
  testing::TempDb db(config);
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  const uint64_t s0 = db->occ_snapshot_offset();
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "k", "v", nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // The daemon refreshes every 10ms; wait for it to observe the commit.
  for (int i = 0; i < 100 && db->occ_snapshot_offset() <= s0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(db->occ_snapshot_offset(), s0);
  // A read-only OCC transaction started now must see the insert without an
  // explicit RefreshOccSnapshot().
  Transaction ro(db.get(), CcScheme::kOcc, /*read_only=*/true);
  Slice v;
  EXPECT_TRUE(ro.Get(pk, "k", &v).ok());
  EXPECT_TRUE(ro.Commit().ok());
}

TEST(TransactionLifetimeTest, DestructorAborts) {
  testing::TempDb db;
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "doomed", "v", nullptr).ok());
    // No Commit/Abort: the destructor must roll back.
  }
  Transaction check(db.get(), CcScheme::kSi);
  Slice v;
  EXPECT_TRUE(check.Get(pk, "doomed", &v).IsNotFound());
  EXPECT_TRUE(check.Commit().ok());
}

TEST(UpdateChurnTest, HeavyChurnKeepsLatestVisibleAndGcTrims) {
  EngineConfig config;
  config.gc_interval_ms = 2;
  testing::TempDb db(config);
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  Oid oid = 0;
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "hot", "0", &oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (int i = 1; i <= 3000; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Update(t, oid, std::to_string(i)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Give the GC daemon a moment, then verify both the value and that the
  // chain did not grow unboundedly.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Transaction txn(db.get(), CcScheme::kSi);
  Slice v;
  ASSERT_TRUE(txn.Read(t, oid, &v).ok());
  EXPECT_EQ(v.ToString(), "3000");
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_GT(db->SnapshotMetrics().counter(metrics::Ctr::kGcVersionsReclaimed),
            1000u);
}

TEST(MultiSchemeInterplayTest, SchemesShareOneDatabase) {
  // The CC scheme is per-transaction: SI, SSN, and OCC transactions can run
  // against the same tables (sequentially here) and observe each other.
  testing::TempDb db;
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  {
    Transaction si(db.get(), CcScheme::kSi);
    ASSERT_TRUE(si.Insert(t, pk, "k", "from-si", nullptr).ok());
    ASSERT_TRUE(si.Commit().ok());
  }
  {
    Transaction occ(db.get(), CcScheme::kOcc);
    Oid oid = 0;
    ASSERT_TRUE(occ.GetOid(pk, "k", &oid).ok());
    ASSERT_TRUE(occ.Update(t, oid, "from-occ").ok());
    ASSERT_TRUE(occ.Commit().ok());
  }
  {
    Transaction ssn(db.get(), CcScheme::kSiSsn);
    Slice v;
    ASSERT_TRUE(ssn.Get(pk, "k", &v).ok());
    EXPECT_EQ(v.ToString(), "from-occ");
    ASSERT_TRUE(ssn.Commit().ok());
  }
}

}  // namespace
}  // namespace ermia
