// Two-phase locking baseline semantics (extension; DESIGN.md §2): strict
// S/X record locks held to commit, bounded-wait conflict aborts instead of
// deadlock detection, serializability (write skew impossible), and lock
// bookkeeping (upgrade, re-entrancy, release on both commit and abort).
#include <gtest/gtest.h>

#include <thread>

#include "test_util.h"

namespace ermia {
namespace {

class TplTest : public ::testing::Test {
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
    Transaction txn(db_->get(), CcScheme::k2pl);
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

  Oid OidOf(const std::string& key) {
    Transaction txn(db_->get(), CcScheme::k2pl);
    Oid oid = 0;
    EXPECT_TRUE(txn.GetOid(pk_, key, &oid).ok());
    EXPECT_TRUE(txn.Commit().ok());
    return oid;
  }

  std::string Get(const std::string& key) {
    Transaction txn(db_->get(), CcScheme::k2pl);
    Slice v;
    Status s = txn.Get(pk_, key, &v);
    std::string out = s.ok() ? v.ToString() : "<" + s.ToString() + ">";
    EXPECT_TRUE(txn.Commit().ok());
    return out;
  }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
};

TEST_F(TplTest, WriterBlocksReaderUntilTimeout) {
  const Oid x = OidOf("x");
  Transaction writer(db_->get(), CcScheme::k2pl);
  ASSERT_TRUE(writer.Update(table_, x, "locked").ok());
  // A concurrent reader cannot acquire the S lock: bounded wait, then abort.
  Transaction reader(db_->get(), CcScheme::k2pl);
  Slice v;
  EXPECT_TRUE(reader.Read(table_, x, &v).IsConflict());
  reader.Abort();
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(Get("x"), "locked");
}

TEST_F(TplTest, ReaderBlocksWriter) {
  const Oid x = OidOf("x");
  Transaction reader(db_->get(), CcScheme::k2pl);
  Slice v;
  ASSERT_TRUE(reader.Read(table_, x, &v).ok());
  Transaction writer(db_->get(), CcScheme::k2pl);
  EXPECT_TRUE(writer.Update(table_, x, "w").IsConflict());
  writer.Abort();
  EXPECT_TRUE(reader.Commit().ok());
}

TEST_F(TplTest, SharedLocksCoexist) {
  const Oid x = OidOf("x");
  Transaction r1(db_->get(), CcScheme::k2pl);
  Transaction r2(db_->get(), CcScheme::k2pl);
  Slice v;
  EXPECT_TRUE(r1.Read(table_, x, &v).ok());
  EXPECT_TRUE(r2.Read(table_, x, &v).ok());
  EXPECT_TRUE(r1.Commit().ok());
  EXPECT_TRUE(r2.Commit().ok());
}

TEST_F(TplTest, UpgradeOwnSharedLock) {
  const Oid x = OidOf("x");
  Transaction txn(db_->get(), CcScheme::k2pl);
  Slice v;
  ASSERT_TRUE(txn.Read(table_, x, &v).ok());        // S
  ASSERT_TRUE(txn.Update(table_, x, "up").ok());    // upgrade to X
  ASSERT_TRUE(txn.Read(table_, x, &v).ok());        // still fine
  EXPECT_EQ(v.ToString(), "up");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(Get("x"), "up");
}

TEST_F(TplTest, UpgradeBlockedByOtherReader) {
  const Oid x = OidOf("x");
  Transaction other(db_->get(), CcScheme::k2pl);
  Slice v;
  ASSERT_TRUE(other.Read(table_, x, &v).ok());
  Transaction txn(db_->get(), CcScheme::k2pl);
  ASSERT_TRUE(txn.Read(table_, x, &v).ok());
  EXPECT_TRUE(txn.Update(table_, x, "no").IsConflict());  // upgrade impossible
  txn.Abort();
  EXPECT_TRUE(other.Commit().ok());
}

TEST_F(TplTest, LocksReleasedOnAbort) {
  const Oid x = OidOf("x");
  {
    Transaction txn(db_->get(), CcScheme::k2pl);
    ASSERT_TRUE(txn.Update(table_, x, "tmp").ok());
    txn.Abort();
  }
  Transaction txn(db_->get(), CcScheme::k2pl);
  ASSERT_TRUE(txn.Update(table_, x, "after").ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(Get("x"), "after");
}

TEST_F(TplTest, LocksReleasedOnReadOnlyCommit) {
  const Oid x = OidOf("x");
  {
    Transaction reader(db_->get(), CcScheme::k2pl);
    Slice v;
    ASSERT_TRUE(reader.Read(table_, x, &v).ok());
    ASSERT_TRUE(reader.Commit().ok());  // no writes: trivial commit path
  }
  Transaction writer(db_->get(), CcScheme::k2pl);
  EXPECT_TRUE(writer.Update(table_, x, "w").ok());  // S lock must be gone
  EXPECT_TRUE(writer.Commit().ok());
}

// 2PL is serializable: the write-skew pattern cannot commit on both sides —
// each side's read S-locks block the other side's write.
TEST_F(TplTest, WriteSkewImpossible) {
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  Transaction t1(db_->get(), CcScheme::k2pl);
  Transaction t2(db_->get(), CcScheme::k2pl);
  Slice v;
  ASSERT_TRUE(t1.Read(table_, x, &v).ok());
  ASSERT_TRUE(t1.Read(table_, y, &v).ok());
  ASSERT_TRUE(t2.Read(table_, x, &v).ok());
  ASSERT_TRUE(t2.Read(table_, y, &v).ok());
  Status w1 = t1.Update(table_, x, "t1");  // blocked by t2's S on x
  Status w2 = t2.Update(table_, y, "t2");  // blocked by t1's S on y
  EXPECT_FALSE(w1.ok() && w2.ok());
  Status c1 = w1.ok() ? t1.Commit() : (t1.Abort(), w1);
  Status c2 = w2.ok() ? t2.Commit() : (t2.Abort(), w2);
  EXPECT_FALSE(c1.ok() && c2.ok());
}

TEST_F(TplTest, RepeatableReadsGuaranteedByLocks) {
  const Oid x = OidOf("x");
  Transaction reader(db_->get(), CcScheme::k2pl);
  Slice v1;
  ASSERT_TRUE(reader.Read(table_, x, &v1).ok());
  // Writers cannot sneak in: their X acquisition conflicts and aborts them.
  {
    Transaction w(db_->get(), CcScheme::k2pl);
    EXPECT_TRUE(w.Update(table_, x, "sneak").IsConflict());
    w.Abort();
  }
  Slice v2;
  ASSERT_TRUE(reader.Read(table_, x, &v2).ok());
  EXPECT_EQ(v1.ToString(), v2.ToString());
  EXPECT_TRUE(reader.Commit().ok());
}

TEST_F(TplTest, DeadlockResolvedByBoundedWait) {
  // Opposite lock orders; without timeouts this would deadlock forever.
  const Oid x = OidOf("x");
  const Oid y = OidOf("y");
  Transaction t1(db_->get(), CcScheme::k2pl);
  Transaction t2(db_->get(), CcScheme::k2pl);
  ASSERT_TRUE(t1.Update(table_, x, "1").ok());
  ASSERT_TRUE(t2.Update(table_, y, "2").ok());
  // Each now wants the other's lock; both time out (no hang).
  Status a = t1.Update(table_, y, "1b");
  Status b = t2.Update(table_, x, "2b");
  EXPECT_FALSE(a.ok() && b.ok());
  if (a.ok()) {
    EXPECT_TRUE(t1.Commit().ok());
  } else {
    t1.Abort();
  }
  if (b.ok()) {
    EXPECT_TRUE(t2.Commit().ok());
  } else {
    t2.Abort();
  }
}

TEST_F(TplTest, PhantomInsertAbortsScanner) {
  Put("k1", "a");
  Transaction scanner(db_->get(), CcScheme::k2pl);
  int n = 0;
  ASSERT_TRUE(scanner
                  .Scan(pk_, "k0", "k9", -1,
                        [&](const Slice&, const Slice&) {
                          ++n;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(n, 1);
  Put("k2", "b");
  const Oid x = OidOf("x");
  Status w = scanner.Update(table_, x, "w");
  if (w.ok()) {
    Status c = scanner.Commit();
    EXPECT_FALSE(c.ok());
  } else {
    scanner.Abort();
  }
}

// A writer-free 2PL transaction is certified like a writer: record locks
// cannot cover a key it found missing, so without node-set validation it
// could miss an insert yet read another write of the same commit.
TEST_F(TplTest, WriterFreeCommitValidatesNodeSet) {
  const Oid x = OidOf("x");
  Transaction reader(db_->get(), CcScheme::k2pl);
  Slice v;
  ASSERT_TRUE(reader.Get(pk_, "gap", &v).IsNotFound());
  {
    Transaction writer(db_->get(), CcScheme::k2pl);
    ASSERT_TRUE(writer.Insert(table_, pk_, "gap", "g", nullptr).ok());
    ASSERT_TRUE(writer.Update(table_, x, "x1").ok());
    ASSERT_TRUE(writer.Commit().ok());
  }
  ASSERT_TRUE(reader.Read(table_, x, &v).ok());
  EXPECT_EQ(v.ToString(), "x1");
  EXPECT_TRUE(reader.Commit().IsPhantom());
  // The abort released the reader's locks.
  Put("x", "x2");
  EXPECT_EQ(Get("x"), "x2");
}

}  // namespace
}  // namespace ermia
