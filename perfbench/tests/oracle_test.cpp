// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Tests for the benchmark's correctness oracle and parameter checks. Build
// with -DPERFBENCH_TESTS=ON and run perfbench_oracle_test from the build
// directory (it creates its log directories there).
#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <string>

#include "oracle.h"
#include "spec.h"
#include "workloads/tpcc/tpcc_workload.h"
#include "workloads/ycsb/ycsb_workload.h"

namespace perfbench {
namespace {

using ermia::CcScheme;
using ermia::Database;
using ermia::EngineConfig;
using ermia::Slice;
using ermia::Transaction;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "perfbench-test-XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

EngineConfig ConfigFor(const TempDir& dir) {
  EngineConfig c;
  c.log_dir = dir.path();
  return c;
}

WorkloadSpec SmallYcsb() {
  WorkloadSpec s;
  EXPECT_TRUE(DefaultSpec("ycsb-update", &s));
  s.records = 300;
  return s;
}

void UpdateKey(Database* db, uint64_t key, const std::string& value) {
  ermia::Table* table = db->GetTable("usertable");
  ermia::Index* pk = db->GetIndex("usertable_pk");
  Transaction txn(db, CcScheme::kSiSsn);
  ermia::Oid oid = 0;
  ASSERT_TRUE(txn.GetOid(pk, ermia::ycsb::YcsbWorkload::Key(key).slice(), &oid).ok());
  ASSERT_TRUE(txn.Update(table, oid, value).ok());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST(OracleTest, DigestIsStableAndSeesEveryChange) {
  TempDir dir;
  auto db = std::make_unique<Database>(ConfigFor(dir));
  ASSERT_TRUE(db->Open().ok());
  auto wl = MakeWorkload(SmallYcsb());
  ASSERT_TRUE(wl->Load(db.get()).ok());

  std::vector<IndexDigest> a, b;
  ASSERT_TRUE(DigestDatabase(db.get(), &a).ok());
  ASSERT_TRUE(DigestDatabase(db.get(), &b).ok());
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].entries, 300u);
  EXPECT_EQ(CompareDigests(a, b), "");

  UpdateKey(db.get(), 17, std::string(100, 'z'));
  ASSERT_TRUE(DigestDatabase(db.get(), &b).ok());
  EXPECT_EQ(CompareDigests(a, b), "digest:usertable_pk");

  {
    Transaction txn(db.get(), CcScheme::kSiSsn);
    ASSERT_TRUE(txn.Insert(db->GetTable("usertable"), db->GetIndex("usertable_pk"),
                           ermia::ycsb::YcsbWorkload::Key(1000).slice(), "v", nullptr)
                    .ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(DigestDatabase(db.get(), &b).ok());
  EXPECT_EQ(CompareDigests(a, b).rfind("record_count:usertable_pk", 0), 0u);
  db->Close();
}

TEST(OracleTest, RecoveredDatabaseMatchesDigestBeforeClose) {
  TempDir dir;
  const WorkloadSpec spec = SmallYcsb();
  std::vector<IndexDigest> before, after;
  {
    auto db = std::make_unique<Database>(ConfigFor(dir));
    ASSERT_TRUE(db->Open().ok());
    auto wl = MakeWorkload(spec);
    ASSERT_TRUE(wl->Load(db.get()).ok());
    for (uint64_t k = 0; k < 50; ++k) UpdateKey(db.get(), k * 5, std::string(100, 'a' + k % 26));
    ASSERT_TRUE(DigestDatabase(db.get(), &before).ok());
    db->Close();
  }
  auto rdb = std::make_unique<Database>(ConfigFor(dir));
  ermia::tpcc::TpccTables unused;
  CreateSchema(rdb.get(), spec, &unused);
  ASSERT_TRUE(rdb->Open().ok());
  ASSERT_TRUE(rdb->Recover().ok());
  ASSERT_TRUE(DigestDatabase(rdb.get(), &after).ok());
  EXPECT_EQ(CompareDigests(before, after), "");
  rdb->Close();
}

// A transaction that writes one record twice logs two records with the same
// commit LSN; recovery must end with the second. Today it fails:
// InstallRecovered (src/engine/recovery.cpp) skips a record whose LSN is >=
// the installed head's, so replay keeps the first write. This is the defect
// behind tpcc-hybrid's "after_recover*:digest:stock_pk" failures (a NewOrder
// that orders one item twice updates its stock row twice).
TEST(OracleTest, RecoveryKeepsTheLastOfTwoWritesInOneTransaction) {
  TempDir dir;
  const WorkloadSpec spec = SmallYcsb();
  std::vector<IndexDigest> before, after;
  {
    auto db = std::make_unique<Database>(ConfigFor(dir));
    ASSERT_TRUE(db->Open().ok());
    auto wl = MakeWorkload(spec);
    ASSERT_TRUE(wl->Load(db.get()).ok());
    ermia::Table* table = db->GetTable("usertable");
    Transaction txn(db.get(), CcScheme::kSiSsn);
    ermia::Oid oid = 0;
    ASSERT_TRUE(txn.GetOid(db->GetIndex("usertable_pk"),
                           ermia::ycsb::YcsbWorkload::Key(7).slice(), &oid)
                    .ok());
    ASSERT_TRUE(txn.Update(table, oid, std::string(100, '1')).ok());
    ASSERT_TRUE(txn.Update(table, oid, std::string(100, '2')).ok());
    ASSERT_TRUE(txn.Commit().ok());
    ASSERT_TRUE(DigestDatabase(db.get(), &before).ok());
    db->Close();
  }
  auto rdb = std::make_unique<Database>(ConfigFor(dir));
  ermia::tpcc::TpccTables unused;
  CreateSchema(rdb.get(), spec, &unused);
  ASSERT_TRUE(rdb->Open().ok());
  ASSERT_TRUE(rdb->Recover().ok());
  ASSERT_TRUE(DigestDatabase(rdb.get(), &after).ok());
  EXPECT_EQ(CompareDigests(before, after), "");
  rdb->Close();
}

class TpccOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(ConfigFor(dir_));
    ASSERT_TRUE(db_->Open().ok());
    cfg_.warehouses = 1;
    cfg_.density = 0.01;
    cfg_.hybrid = true;
    tables_ = ermia::tpcc::CreateTpccSchema(db_.get(), /*hybrid=*/true);
    ASSERT_TRUE(ermia::tpcc::LoadTpcc(db_.get(), tables_, cfg_).ok());
  }
  void TearDown() override { db_->Close(); }

  // Rewrites one row through `edit`.
  template <typename Row, typename Edit>
  void EditRow(ermia::Index* pk, const ermia::Varstr& key, Edit edit) {
    Transaction txn(db_.get(), CcScheme::kSi);
    ermia::Oid oid = 0;
    ASSERT_TRUE(txn.GetOid(pk, key.slice(), &oid).ok());
    Slice raw;
    ASSERT_TRUE(txn.Read(pk->table(), oid, &raw).ok());
    Row row;
    ASSERT_TRUE(ermia::tpcc::LoadRow(raw, &row));
    edit(&row);
    ASSERT_TRUE(txn.Update(pk->table(), oid, ermia::tpcc::RowSlice(row)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::string Check() {
    return CheckTpccConsistency(db_.get(), tables_, cfg_.warehouses, cfg_.districts());
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  ermia::tpcc::TpccConfig cfg_;
  ermia::tpcc::TpccTables tables_;
};

TEST_F(TpccOracleTest, HoldsAfterLoad) { EXPECT_EQ(Check(), ""); }

TEST_F(TpccOracleTest, NamesConditionOneWhenNextOrderIdDrifts) {
  EditRow<ermia::tpcc::DistrictRow>(tables_.district_pk, ermia::tpcc::DistrictKey(1, 3),
                                    [](ermia::tpcc::DistrictRow* r) { r->d_next_o_id++; });
  EXPECT_EQ(Check().rfind("tpcc_condition_1 w=1 d=3", 0), 0u) << Check();
}

TEST_F(TpccOracleTest, NamesConditionTwoWhenYtdDisagrees) {
  EditRow<ermia::tpcc::WarehouseRow>(tables_.warehouse_pk, ermia::tpcc::WarehouseKey(1),
                                     [](ermia::tpcc::WarehouseRow* r) { r->w_ytd += 5; });
  EXPECT_EQ(Check().rfind("tpcc_condition_2 w=1", 0), 0u) << Check();
}

TEST(SpecTest, DefaultsAreValid) {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec s;
    ASSERT_TRUE(DefaultSpec(name, &s)) << name;
    EXPECT_EQ(Validate(s), "") << name;
  }
  WorkloadSpec s;
  EXPECT_FALSE(DefaultSpec("ycsb-zipf", &s));
}

TEST(SpecTest, RejectsParametersTheWorkloadsCannotRun) {
  WorkloadSpec s = SmallYcsb();
  s.records = 0;  // YcsbWorkload::PickKey would divide by zero
  EXPECT_NE(Validate(s).find("records"), std::string::npos);
  s = SmallYcsb();
  s.workers = 0;
  EXPECT_NE(Validate(s).find("workers"), std::string::npos);
  s = SmallYcsb();
  s.rounds = 0;
  EXPECT_NE(Validate(s).find("rounds"), std::string::npos);
  ASSERT_TRUE(DefaultSpec("tpcc-hybrid", &s));
  s.warehouses = 0;
  EXPECT_NE(Validate(s).find("warehouses"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
