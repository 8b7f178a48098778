// Silo-style OCC semantics (§4 baseline): commit-time read validation,
// writer-wins contention resolution (the reader starves, not the writer —
// the behavior the paper critiques), lazy conflict detection, no-wait
// write-write install, read-only snapshots, and phantom validation.
#include <gtest/gtest.h>

#include "test_util.h"

namespace ermia {
namespace {

class OccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
    Put("x", "x0");
    Put("y", "y0");
  }

  void Put(const std::string& key, const std::string& value) {
    Transaction txn(db_->get(), CcScheme::kOcc);
    Oid oid = 0;
    Status s = txn.Insert(table_, pk_, key, value, &oid);
    if (s.IsKeyExists()) {
      ASSERT_TRUE(txn.GetOid(pk_, key, &oid).ok());
      ASSERT_TRUE(txn.Update(table_, oid, value).ok());
    } else {
      ASSERT_TRUE(s.ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::string Get(const std::string& key) {
    Transaction txn(db_->get(), CcScheme::kOcc);
    Slice v;
    Status s = txn.Get(pk_, key, &v);
    std::string out = s.ok() ? v.ToString() : "<" + s.ToString() + ">";
    EXPECT_TRUE(txn.Commit().ok());
    return out;
  }

  Oid OidOf(const std::string& key) {
    Transaction txn(db_->get(), CcScheme::kOcc);
    Oid oid = 0;
    EXPECT_TRUE(txn.GetOid(pk_, key, &oid).ok());
    EXPECT_TRUE(txn.Commit().ok());
    return oid;
  }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
};

// The paper's core complaint: a writer overwriting a reader's footprint
// aborts the reader at commit time — writer always wins.
TEST_F(OccTest, WriterWinsReaderAborts) {
  const Oid x = OidOf("x");
  Transaction reader(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(reader.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "x0");

  Put("x", "x1");  // writer commits mid-flight

  // Reader also writes something (not read-only) and must fail validation.
  const Oid y = OidOf("y");
  ASSERT_TRUE(reader.Update(table_, y, "r").ok());
  Status c = reader.Commit();
  EXPECT_TRUE(c.IsAborted()) << c.ToString();
  EXPECT_EQ(Get("x"), "x1");
  EXPECT_EQ(Get("y"), "y0");  // reader's write rolled back
}

// A read that finds no committed version is validated too. Insert() on a key
// whose entry a racer has inserted but not committed reads the record as
// absent and then writes it; if the racer commits in between, the write
// lands on the racer's committed record. Without validating the absent read
// both transactions would commit an insert of the same key.
TEST_F(OccTest, AbsentReadThenRacerCommitAbortsWriter) {
  Transaction racer(db_->get(), CcScheme::kOcc);
  Oid oid = 0;
  ASSERT_TRUE(racer.Insert(table_, pk_, "k", "racer", &oid).ok());

  Transaction writer(db_->get(), CcScheme::kOcc);
  Slice v;
  EXPECT_TRUE(writer.Read(table_, oid, &v).IsNotFound());  // in flight

  ASSERT_TRUE(racer.Commit().ok());
  ASSERT_TRUE(writer.Update(table_, oid, "writer").ok());
  Status c = writer.Commit();
  EXPECT_TRUE(c.IsAborted()) << c.ToString();
  EXPECT_EQ(Get("k"), "racer");
}

// ...and the detection is lazy: the doomed reader does not learn about the
// conflict until commit (contrast with SiTest.FirstUpdaterWinsImmediately).
TEST_F(OccTest, ConflictDetectedOnlyAtCommit) {
  const Oid x = OidOf("x");
  Transaction reader(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(reader.Read(table_, x, &v).ok());
  Put("x", "x1");
  // Reads keep succeeding against the latest committed version.
  EXPECT_TRUE(reader.Read(table_, x, &v).ok());
  const Oid y = OidOf("y");
  EXPECT_TRUE(reader.Update(table_, y, "r").ok());  // no early conflict
  EXPECT_TRUE(reader.Commit().IsAborted());         // pays at the end
}

TEST_F(OccTest, BlindWritesBothOrderedByInstall) {
  const Oid x = OidOf("x");
  Transaction t1(db_->get(), CcScheme::kOcc);
  Transaction t2(db_->get(), CcScheme::kOcc);
  ASSERT_TRUE(t1.Update(table_, x, "t1").ok());
  ASSERT_TRUE(t2.Update(table_, x, "t2").ok());
  // Writes are buffered: neither has touched the record yet. First committer
  // installs; the second's CAS fails (no-wait).
  EXPECT_TRUE(t1.Commit().ok());
  EXPECT_TRUE(t2.Commit().IsConflict());
  EXPECT_EQ(Get("x"), "t1");
}

TEST_F(OccTest, ReadOnlySnapshotNeverAborts) {
  const Oid x = OidOf("x");
  // Let the snapshot daemon observe the current state.
  db_->get()->RefreshOccSnapshot();
  Transaction ro(db_->get(), CcScheme::kOcc, /*read_only=*/true);
  Slice v;
  ASSERT_TRUE(ro.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "x0");
  Put("x", "x1");
  // Snapshot reads are repeatable and the commit always succeeds.
  ASSERT_TRUE(ro.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "x0");
  EXPECT_TRUE(ro.Commit().ok());
}

TEST_F(OccTest, ReadOnlySnapshotLagsBehindWriters) {
  const Oid x = OidOf("x");
  Put("x", "x1");
  // Without a refresh, a read-only transaction may see the stale snapshot —
  // Silo's documented trade-off. After a refresh it sees the new value.
  db_->get()->RefreshOccSnapshot();
  Transaction ro(db_->get(), CcScheme::kOcc, /*read_only=*/true);
  Slice v;
  ASSERT_TRUE(ro.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "x1");
  EXPECT_TRUE(ro.Commit().ok());
}

TEST_F(OccTest, ValidationPassesWhenFootprintUntouched) {
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  Transaction t(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(t.Read(table_, x, &v).ok());
  ASSERT_TRUE(t.Update(table_, y, "t").ok());
  Put("z", "unrelated");  // traffic outside the footprint
  EXPECT_TRUE(t.Commit().ok());
  EXPECT_EQ(Get("y"), "t");
}

TEST_F(OccTest, ReadMyOwnBufferedWrite) {
  const Oid x = OidOf("x");
  Transaction t(db_->get(), CcScheme::kOcc);
  ASSERT_TRUE(t.Update(table_, x, "mine").ok());
  Slice v;
  ASSERT_TRUE(t.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "mine");
  // Other transactions still see the committed value (write is buffered).
  EXPECT_EQ(Get("x"), "x0");
  ASSERT_TRUE(t.Commit().ok());
  EXPECT_EQ(Get("x"), "mine");
}

TEST_F(OccTest, ReadThenWriteSameRecordValidates) {
  const Oid x = OidOf("x");
  Transaction t(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(t.Read(table_, x, &v).ok());
  ASSERT_TRUE(t.Update(table_, x, v.ToString() + "+").ok());
  EXPECT_TRUE(t.Commit().ok());
  EXPECT_EQ(Get("x"), "x0+");
}

TEST_F(OccTest, PhantomInsertAbortsScanner) {
  Put("k1", "a");
  Transaction scanner(db_->get(), CcScheme::kOcc);
  int n = 0;
  ASSERT_TRUE(scanner
                  .Scan(pk_, "k0", "k9", -1,
                        [&](const Slice&, const Slice&) {
                          ++n;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(n, 1);
  Put("k2", "b");  // phantom
  const Oid x = OidOf("x");
  ASSERT_TRUE(scanner.Update(table_, x, "w").ok());
  Status c = scanner.Commit();
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.IsPhantom() || c.IsAborted());
}

TEST_F(OccTest, DeleteValidatesAgainstConcurrentRead) {
  const Oid x = OidOf("x");
  Transaction reader(db_->get(), CcScheme::kOcc);
  Slice v;
  ASSERT_TRUE(reader.Read(table_, x, &v).ok());

  Transaction deleter(db_->get(), CcScheme::kOcc);
  ASSERT_TRUE(deleter.Delete(table_, x).ok());
  ASSERT_TRUE(deleter.Commit().ok());

  const Oid y = OidOf("y");
  ASSERT_TRUE(reader.Update(table_, y, "r").ok());
  EXPECT_TRUE(reader.Commit().IsAborted());  // x was overwritten (tombstone)
}

// OCC read-only transactions begin at the lagging OCC snapshot, but the GC
// trims up to the log tail when no transaction is active. A read-only
// transaction that begins after such a trim must move its snapshot up to the
// trim bound instead of missing the record. The long daemon intervals keep
// the daemons out of the way.
TEST(OccSnapshotGcTest, ReadOnlySnapshotMovesUpToTheGcTrimBound) {
  EngineConfig config;
  config.enable_gc = true;
  config.gc_interval_ms = 1000;
  config.occ_snapshot_interval_ms = 1000;
  testing::TempDb db(config);
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  Oid oid = 0;
  {
    Transaction txn(db.get(), CcScheme::kOcc);
    ASSERT_TRUE(txn.Insert(t, pk, "k", "v0", &oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  db->RefreshOccSnapshot();  // the read-only snapshot now covers v0
  {
    Transaction txn(db.get(), CcScheme::kOcc);
    ASSERT_TRUE(txn.Update(t, oid, "v1").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  auto read_only_get = [&] {
    Transaction ro(db.get(), CcScheme::kOcc, /*read_only=*/true);
    Slice v;
    Status s = ro.Read(t, oid, &v);
    std::string out = s.ok() ? v.ToString() : "<" + s.ToString() + ">";
    EXPECT_TRUE(ro.Commit().ok());
    return out;
  };
  EXPECT_EQ(read_only_get(), "v0");  // untrimmed: the snapshot is stale
  const size_t reclaimed = db->gc().RunOnce();
  EXPECT_EQ(read_only_get(), "v1") << "reclaimed " << reclaimed;
}

}  // namespace
}  // namespace ermia
