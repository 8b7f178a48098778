// End-to-end recovery under real workload traffic: load TPC-C, run a
// concurrent mixed workload, checkpoint mid-stream, keep running, crash
// (destroy without shutdown checkpoint), recover, and verify the TPC-C
// consistency conditions still hold and the database still serves traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "test_util.h"
#include "workloads/tpcc/tpcc_workload.h"

namespace ermia {
namespace tpcc {
namespace {

class WorkloadRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.synchronous_commit = true;
    cfg_.warehouses = 2;
    cfg_.density = 0.02;
    db_ = std::make_unique<ermia::testing::TempDb>(config_);
    tables_ = CreateTpccSchema(db_->get(), /*hybrid=*/false);
    ASSERT_TRUE((*db_)->Open().ok());
    ASSERT_TRUE(LoadTpcc(db_->get(), tables_, cfg_).ok());
    (*db_)->RefreshOccSnapshot();
  }

  void CrashAndRecover() {
    db_->ShutDown();
    db_->Restart(config_);
    tables_ = CreateTpccSchema(db_->get(), /*hybrid=*/false);
    ASSERT_TRUE((*db_)->Open().ok());
    ASSERT_TRUE((*db_)->Recover().ok());
  }

  void RunTraffic(int txns_per_thread, int threads) {
    TpccWorkload workload(cfg_, TpccRunOptions{});
    std::vector<std::thread> workers;
    std::atomic<uint64_t> commits{0};
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        FastRandom rng(t + 31);
        TpccCtx ctx{db_->get(), &tables_, &cfg_,
                    CcScheme::kSi, static_cast<uint32_t>(t),
                    static_cast<uint32_t>(threads), &rng,
                    PartitionPolicy::kLocal, &seq_};
        for (int i = 0; i < txns_per_thread; ++i) {
          Status s;
          switch (rng.UniformU64(0, 2)) {
            case 0:
              s = TxnNewOrder(ctx);
              break;
            case 1:
              s = TxnPayment(ctx);
              break;
            default:
              s = TxnDelivery(ctx);
              break;
          }
          if (s.ok()) commits.fetch_add(1);
        }
        ThreadRegistry::Deregister();
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_GT(commits.load(), 0u);
  }

  // TPC-C consistency condition 1 (d_next_o_id == max order id + 1) and the
  // warehouse/district YTD money conservation.
  void CheckConsistency() {
    Transaction txn(db_->get(), CcScheme::kSi);
    double w_ytd = 0, d_ytd = 0;
    for (uint32_t w = 1; w <= cfg_.warehouses; ++w) {
      Slice raw;
      ASSERT_TRUE(
          txn.Get(tables_.warehouse_pk, WarehouseKey(w).slice(), &raw).ok());
      WarehouseRow wr;
      ASSERT_TRUE(LoadRow(raw, &wr));
      w_ytd += wr.w_ytd;
      for (uint32_t d = 1; d <= cfg_.districts(); ++d) {
        ASSERT_TRUE(
            txn.Get(tables_.district_pk, DistrictKey(w, d).slice(), &raw).ok());
        DistrictRow dr;
        ASSERT_TRUE(LoadRow(raw, &dr));
        d_ytd += dr.d_ytd;
        uint32_t max_o = 0;
        ASSERT_TRUE(txn.ScanOids(
                           tables_.order_pk, OrderKey(w, d, 0).slice(),
                           OrderKey(w, d, UINT32_MAX).slice(), -1,
                           [&](const Slice& key, Oid) {
                             KeyDecoder dec(key);
                             dec.U32();
                             dec.U32();
                             max_o = dec.U32();
                             return true;
                           })
                        .ok());
        EXPECT_EQ(static_cast<uint32_t>(dr.d_next_o_id) - 1, max_o)
            << "w=" << w << " d=" << d;
      }
    }
    EXPECT_NEAR(w_ytd, d_ytd, 0.01);
    EXPECT_TRUE(txn.Commit().ok());
  }

  EngineConfig config_;
  TpccConfig cfg_;
  std::unique_ptr<ermia::testing::TempDb> db_;
  TpccTables tables_;
  std::atomic<uint64_t> seq_{0};
};

TEST_F(WorkloadRecoveryTest, CrashWithoutCheckpoint) {
  RunTraffic(/*txns_per_thread=*/40, /*threads=*/3);
  CheckConsistency();
  CrashAndRecover();
  CheckConsistency();
  RunTraffic(20, 2);  // recovered database keeps serving
  CheckConsistency();
}

TEST_F(WorkloadRecoveryTest, CheckpointMidStream) {
  RunTraffic(30, 3);
  ASSERT_TRUE((*db_)->TakeCheckpoint(nullptr).ok());
  RunTraffic(30, 3);  // post-checkpoint tail to replay
  CheckConsistency();
  CrashAndRecover();
  CheckConsistency();
  RunTraffic(20, 2);
  CheckConsistency();
}

TEST_F(WorkloadRecoveryTest, DoubleCrash) {
  RunTraffic(25, 2);
  CrashAndRecover();
  RunTraffic(25, 2);
  ASSERT_TRUE((*db_)->TakeCheckpoint(nullptr).ok());
  CrashAndRecover();
  CheckConsistency();
}

}  // namespace
}  // namespace tpcc
}  // namespace ermia
