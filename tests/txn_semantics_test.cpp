// Cross-cutting transaction semantics, parameterized over all four CC
// schemes: own-write visibility (point reads and scans), invisibility of
// others' uncommitted work, in-transaction insert/delete/insert cycles,
// all-or-nothing atomicity of multi-operation transactions, and index/record
// interleavings.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "test_util.h"

namespace ermia {
namespace {

class TxnSemanticsTest : public ::testing::TestWithParam<CcScheme> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
  }

  CcScheme scheme() const { return GetParam(); }
  Database* db() { return db_->get(); }

  std::vector<std::string> ScanKeys(Transaction& txn) {
    std::vector<std::string> keys;
    EXPECT_TRUE(txn.Scan(pk_, Slice(), Slice(), -1,
                         [&](const Slice& k, const Slice&) {
                           keys.push_back(k.ToString());
                           return true;
                         })
                    .ok());
    return keys;
  }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
};

TEST_P(TxnSemanticsTest, ScanSeesOwnUncommittedInserts) {
  Transaction txn(db(), scheme());
  ASSERT_TRUE(txn.Insert(table_, pk_, "b", "2", nullptr).ok());
  ASSERT_TRUE(txn.Insert(table_, pk_, "a", "1", nullptr).ok());
  EXPECT_EQ(ScanKeys(txn), (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_P(TxnSemanticsTest, ScanHidesOthersUncommittedInserts) {
  Transaction other(db(), scheme());
  ASSERT_TRUE(other.Insert(table_, pk_, "ghost", "x", nullptr).ok());

  Transaction txn(db(), scheme());
  if (scheme() == CcScheme::k2pl) {
    // Strict 2PL readers must wait for the inserter's exclusive lock — with
    // bounded waiting the scan surfaces a conflict rather than dirty data.
    std::vector<std::string> keys;
    Status s = txn.Scan(pk_, Slice(), Slice(), -1,
                        [&](const Slice& k, const Slice&) {
                          keys.push_back(k.ToString());
                          return true;
                        });
    EXPECT_TRUE(keys.empty());
    EXPECT_TRUE(s.ok() || s.IsConflict());
    txn.Abort();
  } else {
    // MVCC/OCC readers never block: the uncommitted insert is invisible.
    EXPECT_TRUE(ScanKeys(txn).empty());
    EXPECT_TRUE(txn.Commit().ok());
  }
  EXPECT_TRUE(other.Commit().ok());
}

TEST_P(TxnSemanticsTest, ReadOwnDelete) {
  Oid oid = 0;
  {
    Transaction setup(db(), scheme());
    ASSERT_TRUE(setup.Insert(table_, pk_, "k", "v", &oid).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  Transaction txn(db(), scheme());
  Slice v;
  ASSERT_TRUE(txn.Read(table_, oid, &v).ok());
  ASSERT_TRUE(txn.Delete(table_, oid).ok());
  EXPECT_TRUE(txn.Read(table_, oid, &v).IsNotFound());  // own tombstone
  EXPECT_TRUE(ScanKeys(txn).empty());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_P(TxnSemanticsTest, InsertDeleteInsertWithinOneTransaction) {
  Transaction txn(db(), scheme());
  Oid first = 0;
  ASSERT_TRUE(txn.Insert(table_, pk_, "k", "v1", &first).ok());
  ASSERT_TRUE(txn.Delete(table_, first).ok());
  Slice v;
  EXPECT_TRUE(txn.Get(pk_, "k", &v).IsNotFound());
  Oid second = 0;
  ASSERT_TRUE(txn.Insert(table_, pk_, "k", "v2", &second).ok());
  EXPECT_EQ(second, first);  // tombstone reuse keeps the OID
  ASSERT_TRUE(txn.Get(pk_, "k", &v).ok());
  EXPECT_EQ(v.ToString(), "v2");
  ASSERT_TRUE(txn.Commit().ok());

  Transaction check(db(), scheme());
  ASSERT_TRUE(check.Get(pk_, "k", &v).ok());
  EXPECT_EQ(v.ToString(), "v2");
  EXPECT_TRUE(check.Commit().ok());
}

TEST_P(TxnSemanticsTest, MultiOperationAtomicity) {
  // A transaction that inserts, updates, and deletes across several keys
  // either applies everything (commit) or nothing (abort).
  Oid keep = 0, kill = 0;
  {
    Transaction setup(db(), scheme());
    ASSERT_TRUE(setup.Insert(table_, pk_, "keep", "old", &keep).ok());
    ASSERT_TRUE(setup.Insert(table_, pk_, "kill", "old", &kill).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  auto run_batch = [&](bool commit) {
    Transaction txn(db(), scheme());
    EXPECT_TRUE(txn.Insert(table_, pk_, "fresh", "new", nullptr).ok());
    EXPECT_TRUE(txn.Update(table_, keep, "new").ok());
    EXPECT_TRUE(txn.Delete(table_, kill).ok());
    if (commit) {
      EXPECT_TRUE(txn.Commit().ok());
    } else {
      txn.Abort();
    }
  };
  run_batch(/*commit=*/false);
  {
    Transaction check(db(), scheme());
    Slice v;
    EXPECT_TRUE(check.Get(pk_, "fresh", &v).IsNotFound());
    ASSERT_TRUE(check.Get(pk_, "keep", &v).ok());
    EXPECT_EQ(v.ToString(), "old");
    EXPECT_TRUE(check.Get(pk_, "kill", &v).ok());
    EXPECT_TRUE(check.Commit().ok());
  }
  run_batch(/*commit=*/true);
  {
    Transaction check(db(), scheme());
    Slice v;
    ASSERT_TRUE(check.Get(pk_, "fresh", &v).ok());
    ASSERT_TRUE(check.Get(pk_, "keep", &v).ok());
    EXPECT_EQ(v.ToString(), "new");
    EXPECT_TRUE(check.Get(pk_, "kill", &v).IsNotFound());
    EXPECT_TRUE(check.Commit().ok());
  }
}

TEST_P(TxnSemanticsTest, SecondaryEntriesAreAtomicWithTheRecord) {
  Index* sec = (*db_)->CreateIndex(table_, "t_sec");
  {
    Transaction txn(db(), scheme());
    Oid oid = 0;
    ASSERT_TRUE(txn.Insert(table_, pk_, "p", "payload", &oid).ok());
    ASSERT_TRUE(txn.InsertIndexEntry(sec, "s1", oid).ok());
    ASSERT_TRUE(txn.InsertIndexEntry(sec, "s2", oid).ok());
    txn.Abort();
  }
  Transaction check(db(), scheme());
  Slice v;
  EXPECT_TRUE(check.Get(pk_, "p", &v).IsNotFound());
  EXPECT_TRUE(check.Get(sec, "s1", &v).IsNotFound());
  EXPECT_TRUE(check.Get(sec, "s2", &v).IsNotFound());
  EXPECT_TRUE(check.Commit().ok());
}

TEST_P(TxnSemanticsTest, UpdateAfterOwnInsertKeepsLatestValue) {
  Transaction txn(db(), scheme());
  Oid oid = 0;
  ASSERT_TRUE(txn.Insert(table_, pk_, "k", "v0", &oid).ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(txn.Update(table_, oid, "v" + std::to_string(i)).ok());
  }
  Slice v;
  ASSERT_TRUE(txn.Read(table_, oid, &v).ok());
  EXPECT_EQ(v.ToString(), "v5");
  ASSERT_TRUE(txn.Commit().ok());
  Transaction check(db(), scheme());
  ASSERT_TRUE(check.Get(pk_, "k", &v).ok());
  EXPECT_EQ(v.ToString(), "v5");
  EXPECT_TRUE(check.Commit().ok());
}

TEST_P(TxnSemanticsTest, EmptyTransactionCommits) {
  Transaction txn(db(), scheme());
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_P(TxnSemanticsTest, StatusCodesDistinguishOutcomes) {
  // NotFound (no data), KeyExists (duplicate), and conflict-class statuses
  // must be distinguishable so applications can retry correctly.
  Transaction txn(db(), scheme());
  Slice v;
  Status nf = txn.Get(pk_, "missing", &v);
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_FALSE(nf.ShouldAbort());
  ASSERT_TRUE(txn.Insert(table_, pk_, "dup", "a", nullptr).ok());
  ASSERT_TRUE(txn.Commit().ok());

  Transaction txn2(db(), scheme());
  Status ke = txn2.Insert(table_, pk_, "dup", "b", nullptr);
  EXPECT_TRUE(ke.IsKeyExists());
  EXPECT_FALSE(ke.ShouldAbort());
  txn2.Abort();
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TxnSemanticsTest,
                         ::testing::Values(CcScheme::kSi, CcScheme::kSiSsn,
                                           CcScheme::kOcc, CcScheme::k2pl),
                         testing::SchemeParamName);

// Transaction::MultiGet against its definition: Get on each key in order,
// stopping at the first status that is neither OK nor NotFound. Each
// scenario runs twice on a fresh database, once reading through one
// MultiGet and once through Gets, and both runs must report the same reads,
// the same stopping status and the same commit outcome.
class MultiGetTest : public ::testing::TestWithParam<CcScheme> {
 protected:
  static constexpr int kRows = 40;

  static std::string Key(int i) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "k%02d", i);
    return buf;
  }

  // A fresh database holding rows k00..k39 = "v0".."v39"; k05 and k17 are
  // committed deletes (tombstones).
  void Reset() {
    db_.reset();
    db_ = std::make_unique<testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
    Transaction load(db(), CcScheme::kSi);
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(load.Insert(table_, pk_, Key(i), "v" + std::to_string(i),
                              &oids_[i])
                      .ok());
    }
    ASSERT_TRUE(load.Commit().ok());
    Transaction del(db(), CcScheme::kSi);
    ASSERT_TRUE(del.Delete(table_, oids_[5]).ok());
    ASSERT_TRUE(del.Delete(table_, oids_[17]).ok());
    ASSERT_TRUE(del.Commit().ok());
  }

  CcScheme scheme() const { return GetParam(); }
  Database* db() { return db_->get(); }

  // Reads `keys` through one MultiGet or through Get per key. Records each
  // read as "OK=<value>" or its status, then the status the reads stopped
  // at ("stop OK" if every key was read).
  std::vector<std::string> ReadAll(Transaction& txn,
                                   const std::vector<std::string>& keys,
                                   bool batched) {
    const auto describe = [](const Status& s, const Slice& v) {
      return s.ok() ? "OK=" + v.ToString() : s.ToString();
    };
    const auto stops = [](const Status& s) {
      return !s.ok() && !s.IsNotFound();
    };
    std::vector<std::string> out;
    Status stop;
    if (batched) {
      const std::vector<Slice> slices(keys.begin(), keys.end());
      std::vector<Slice> values(keys.size());
      std::vector<Status> statuses(keys.size());
      stop = txn.MultiGet(pk_, slices.data(), slices.size(), values.data(),
                          statuses.data());
      for (size_t i = 0; i < keys.size(); ++i) {
        out.push_back(describe(statuses[i], values[i]));
        if (stops(statuses[i])) break;
      }
    } else {
      for (const std::string& k : keys) {
        Slice v;
        const Status s = txn.Get(pk_, k, &v);
        out.push_back(describe(s, v));
        if (stops(s)) {
          stop = s;
          break;
        }
      }
    }
    out.push_back("stop " + stop.ToString());
    return out;
  }

  // Runs `scenario` batched and unbatched, each on a fresh database, and
  // returns the batched run's record after checking the two are equal.
  std::vector<std::string> ExpectBatchMatchesGets(
      const std::function<std::vector<std::string>(bool batched)>& scenario) {
    Reset();
    const std::vector<std::string> batched = scenario(true);
    Reset();
    const std::vector<std::string> single = scenario(false);
    EXPECT_EQ(batched, single);
    return batched;
  }

  // Commits (or aborts, after a stopping read) and records the outcome.
  static void Finish(Transaction& txn, std::vector<std::string>* out) {
    if (out->back() != "stop OK") {
      txn.Abort();
      out->push_back("aborted");
    } else {
      out->push_back("commit " + txn.Commit().ToString());
    }
  }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
  Oid oids_[kRows] = {};
};

// Missing keys, tombstones and repeated keys, in a batch of more than two
// lockstep groups.
TEST_P(MultiGetTest, CommittedMissingTombstonedAndDuplicateKeys) {
  std::vector<std::string> keys;
  for (int i = kRows - 1; i >= 0; --i) keys.push_back(Key(i));
  for (const char* k : {"k05", "missing", "k00", "k00", "k", "k17", "k399",
                        "k39", "", "zzz"}) {
    keys.push_back(k);
  }
  ASSERT_GT(keys.size(), 2 * BTree::kLookupGroup);
  const auto out = ExpectBatchMatchesGets([&](bool batched) {
    Transaction txn(db(), scheme());
    auto reads = ReadAll(txn, keys, batched);
    Finish(txn, &reads);
    return reads;
  });
  ASSERT_EQ(out.size(), keys.size() + 2);
  EXPECT_EQ(out[0], "OK=v39");
  EXPECT_EQ(out[kRows - 1 - 5], "NOT_FOUND");
  EXPECT_EQ(out.back(), "commit OK");
}

// The transaction's own inserts, updates and deletes, read back in one
// batch, next to committed rows.
TEST_P(MultiGetTest, OwnInsertsUpdatesAndDeletes) {
  std::vector<std::string> keys = {"n1", "k03", "k04", "n2", "k03", "k02",
                                   "n1", "k05", "n3"};
  for (int i = 10; i < 30; ++i) keys.push_back(Key(i));
  const auto out = ExpectBatchMatchesGets([&](bool batched) {
    Transaction txn(db(), scheme());
    EXPECT_TRUE(txn.Insert(table_, pk_, "n1", "mine1", nullptr).ok());
    EXPECT_TRUE(txn.Insert(table_, pk_, "n2", "mine2", nullptr).ok());
    EXPECT_TRUE(txn.Update(table_, oids_[3], "updated").ok());
    EXPECT_TRUE(txn.Delete(table_, oids_[4]).ok());
    EXPECT_TRUE(txn.Insert(table_, pk_, "k05", "reinserted", nullptr).ok());
    auto reads = ReadAll(txn, keys, batched);
    Finish(txn, &reads);
    return reads;
  });
  ASSERT_GE(out.size(), 9u);
  EXPECT_EQ(out[0], "OK=mine1");
  EXPECT_EQ(out[1], "OK=updated");
  EXPECT_EQ(out[2], "NOT_FOUND");
  EXPECT_EQ(out[7], "OK=reinserted");
  EXPECT_EQ(out[8], "NOT_FOUND");
}

// A read that dooms the transaction stops the batch at that key. Under SSN
// the read of k01 closes the exclusion window: a committed overwriter of
// k01 (sstamp c1) came before a committed reader of k02 (c2 > c1) whose
// read T then overwrites (pstamp c2). Under 2PL the read of k07 meets an
// exclusive lock and gives up after its bounded wait. SI and OCC read on.
TEST_P(MultiGetTest, DoomingReadStopsTheBatch) {
  const std::vector<std::string> keys = {"k00", "k06", "k01", "k07", "k08",
                                         "k09"};
  const auto out = ExpectBatchMatchesGets([&](bool batched) {
    Transaction txn(db(), scheme());
    Slice v;
    {
      Transaction overwriter(db(), scheme());
      EXPECT_TRUE(overwriter.Update(table_, oids_[1], "new1").ok());
      EXPECT_TRUE(overwriter.Commit().ok());
    }
    {
      Transaction reader(db(), scheme());
      EXPECT_TRUE(reader.Get(pk_, "k02", &v).ok());
      EXPECT_TRUE(reader.Commit().ok());
    }
    std::vector<std::string> reads;
    if (!txn.Update(table_, oids_[2], "mine").ok()) {
      txn.Abort();
      reads.push_back("update failed");
      return reads;
    }
    Transaction locker(db(), scheme());
    EXPECT_TRUE(locker.Update(table_, oids_[7], "locked").ok());
    reads = ReadAll(txn, keys, batched);
    Finish(txn, &reads);
    locker.Abort();
    return reads;
  });
  ASSERT_GE(out.size(), 3u);
  if (scheme() == CcScheme::kSiSsn) {
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[2], "ABORTED: ssn exclusion window (early)");
  } else if (scheme() == CcScheme::k2pl) {
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[2], "OK=new1");  // 2PL reads the latest commit
    EXPECT_FALSE(out[3].rfind("OK", 0) == 0) << out[3];
  } else {
    EXPECT_EQ(out[out.size() - 2], "stop OK");
  }
}

// A batch registers the leaf of every key, found or not: a key it missed
// and another transaction then inserts is a phantom at the commit of a
// writer under the schemes that keep a node set.
TEST_P(MultiGetTest, MissedKeyInsertedLaterIsAPhantom) {
  const std::vector<std::string> keys = {"k00", "k01a", "k01"};
  const auto out = ExpectBatchMatchesGets([&](bool batched) {
    Transaction txn(db(), scheme());
    EXPECT_TRUE(txn.Update(table_, oids_[30], "mine").ok());
    auto reads = ReadAll(txn, keys, batched);
    Transaction inserter(db(), scheme());
    EXPECT_TRUE(inserter.Insert(table_, pk_, "k01a", "late", nullptr).ok());
    EXPECT_TRUE(inserter.Commit().ok());
    Finish(txn, &reads);
    return reads;
  });
  ASSERT_EQ(out.size(), keys.size() + 2);
  EXPECT_EQ(out[1], "NOT_FOUND");
  if (scheme() == CcScheme::kSi) {
    EXPECT_EQ(out.back(), "commit OK");
  } else {
    EXPECT_NE(out.back(), "commit OK");
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MultiGetTest,
                         ::testing::Values(CcScheme::kSi, CcScheme::kSiSsn,
                                           CcScheme::kOcc, CcScheme::k2pl),
                         testing::SchemeParamName);

}  // namespace
}  // namespace ermia
