// Parallel SSN commit (§3.6.2, Algorithm 1): certification runs without the
// former global commit latch, so these tests stress the latch-free paths
// specifically — barrier-synchronized write skews that MUST NOT both commit,
// disjoint-key traffic that MUST all commit (no cross-transaction
// interference, no deadlock in the stamp-finalization waits), and a
// randomized dependency-graph check at higher thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "test_util.h"

namespace ermia {
namespace {

class SsnParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<testing::TempDb>();
    ASSERT_TRUE((*db_)->Open().ok());
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
  }

  void Put(const std::string& key, const std::string& value) {
    Transaction txn(db_->get(), CcScheme::kSi);
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
    Transaction txn(db_->get(), CcScheme::kSi);
    Oid oid = 0;
    EXPECT_TRUE(txn.GetOid(pk_, key, &oid).ok());
    EXPECT_TRUE(txn.Commit().ok());
    return oid;
  }

  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
};

// Many pairs of threads race the classic write skew on private record pairs,
// with a barrier ensuring both sides read before either commits. In every
// round, both committing would be an exclusion-window violation (each read
// the version the other overwrote), so at most one may succeed — and at least
// one must (no mutual-abort livelock round after round).
TEST_F(SsnParallelTest, BarrieredWriteSkewNeverBothCommit) {
  constexpr int kPairs = 4;
  constexpr int kRounds = 60;

  std::vector<Oid> a(kPairs), b(kPairs);
  for (int p = 0; p < kPairs; ++p) {
    Put("a" + std::to_string(p), "0");
    Put("b" + std::to_string(p), "0");
    a[p] = OidOf("a" + std::to_string(p));
    b[p] = OidOf("b" + std::to_string(p));
  }

  std::atomic<int> both_committed{0};
  std::atomic<int> neither_committed{0};

  auto run_pair = [&](int p) {
    std::barrier sync(2);
    std::atomic<int> commits{0};
    auto side = [&](bool leader, Oid read_then_write, Oid read_only) {
      for (int r = 0; r < kRounds; ++r) {
        Transaction txn(db_->get(), CcScheme::kSiSsn);
        Slice v;
        Status s = txn.Read(table_, read_then_write, &v);
        if (s.ok()) s = txn.Read(table_, read_only, &v);
        sync.arrive_and_wait();  // both sides have read (or failed)
        if (s.ok()) s = txn.Update(table_, read_then_write, "w");
        if (s.ok()) s = txn.Commit();
        if (!s.ok() && !txn.finished()) txn.Abort();
        if (s.ok()) commits.fetch_add(1, std::memory_order_relaxed);
        sync.arrive_and_wait();  // both sides decided
        if (leader) {  // only one side tallies and resets the round counter
          const int n = commits.load(std::memory_order_relaxed);
          if (n == 2) both_committed.fetch_add(1, std::memory_order_relaxed);
          if (n == 0) neither_committed.fetch_add(1, std::memory_order_relaxed);
          commits.store(0, std::memory_order_relaxed);
        }
        sync.arrive_and_wait();  // counter reset before next round
      }
      ThreadRegistry::Deregister();
    };
    std::thread t1(side, true, a[p], b[p]);
    std::thread t2(side, false, b[p], a[p]);
    t1.join();
    t2.join();
  };

  std::vector<std::thread> pairs;
  for (int p = 0; p < kPairs; ++p) pairs.emplace_back(run_pair, p);
  for (auto& t : pairs) t.join();

  EXPECT_EQ(both_committed.load(), 0)
      << "exclusion-window violation: both sides of a write skew committed";
  EXPECT_LT(neither_committed.load(), kPairs * kRounds / 2)
      << "every round mutually aborted: certification is livelocking";
}

// Disjoint keys: N threads hammer private records. No transaction conflicts
// with any other, so every commit must succeed — the parallel protocol may
// not introduce cross-transaction aborts, and the stamp-finalization loop may
// not deadlock while unrelated commits are in flight.
TEST_F(SsnParallelTest, DisjointCommitsAllSucceed) {
  constexpr int kThreads = 8;
  constexpr int kTxns = 200;

  std::vector<Oid> oids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Put("d" + std::to_string(t), "0");
    oids[t] = OidOf("d" + std::to_string(t));
  }

  std::atomic<int> failures{0};
  auto worker = [&](int t) {
    for (int i = 0; i < kTxns; ++i) {
      Transaction txn(db_->get(), CcScheme::kSiSsn);
      Slice v;
      Status s = txn.Read(table_, oids[t], &v);
      if (s.ok()) s = txn.Update(table_, oids[t], std::to_string(i));
      if (s.ok()) s = txn.Commit();
      if (!s.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        if (!txn.finished()) txn.Abort();
      }
    }
    ThreadRegistry::Deregister();
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0)
      << "non-conflicting transactions aborted under parallel commit";
}

// Randomized mixed read/write traffic over a small hot set at a higher thread
// count than cc_ssn_test's property test: reconstruct the committed history's
// dependency graph (WR, WW, RW edges) and assert it is acyclic.
TEST_F(SsnParallelTest, RandomHistoriesAcyclicUnderParallelCommit) {
  constexpr int kRecords = 8;
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 250;

  std::vector<Oid> oids(kRecords);
  for (int i = 0; i < kRecords; ++i) {
    Put("r" + std::to_string(i), "0");
    oids[i] = OidOf("r" + std::to_string(i));
  }

  struct CommittedTxn {
    uint64_t id;
    std::map<int, uint64_t> reads;       // record -> write id read
    std::map<int, uint64_t> overwrites;  // record -> write id overwritten
  };

  std::mutex mu;
  std::vector<CommittedTxn> history;
  std::atomic<uint64_t> next_write_id{1};
  std::mutex wid_mu;
  std::map<uint64_t, uint64_t> wid_to_txn;

  auto worker = [&](int seed) {
    FastRandom rng(seed);
    for (int i = 0; i < kTxnsPerThread; ++i) {
      Transaction txn(db_->get(), CcScheme::kSiSsn);
      std::map<int, uint64_t> reads, overwrites, writes;
      bool aborted = false;
      const int nops = 2 + static_cast<int>(rng.UniformU64(0, 3));
      for (int op = 0; op < nops && !aborted; ++op) {
        const int rec = static_cast<int>(rng.UniformU64(0, kRecords - 1));
        Slice v;
        Status rs = txn.Read(table_, oids[rec], &v);
        if (!rs.ok()) {
          aborted = true;
          break;
        }
        uint64_t seen = 0;
        if (v.size() == 8) std::memcpy(&seen, v.data(), 8);
        reads[rec] = seen;
        if (rng.Bernoulli(0.5)) {
          const uint64_t wid = next_write_id.fetch_add(1);
          char buf[8];
          std::memcpy(buf, &wid, 8);
          Status ws = txn.Update(table_, oids[rec], Slice(buf, 8));
          if (!ws.ok()) {
            aborted = true;
            break;
          }
          overwrites[rec] = writes.count(rec) ? overwrites[rec] : seen;
          writes[rec] = wid;
          reads.erase(rec);  // own write supersedes the read edge
        }
      }
      if (aborted) {
        txn.Abort();
        continue;
      }
      if (!txn.Commit().ok()) continue;
      const uint64_t id = txn.tid();
      {
        std::lock_guard<std::mutex> g(wid_mu);
        for (auto& [rec, wid] : writes) wid_to_txn[wid] = id;
      }
      std::lock_guard<std::mutex> g(mu);
      history.push_back({id, std::move(reads), std::move(overwrites)});
    }
    ThreadRegistry::Deregister();
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t + 1);
  for (auto& t : threads) t.join();

  std::map<uint64_t, size_t> node;
  for (auto& t : history) node.emplace(t.id, node.size());
  std::vector<std::vector<size_t>> adj(node.size());
  auto add_edge = [&](uint64_t from, uint64_t to) {
    auto fi = node.find(from);
    auto ti = node.find(to);
    if (fi == node.end() || ti == node.end() || fi->second == ti->second) {
      return;
    }
    adj[fi->second].push_back(ti->second);
  };
  {
    std::lock_guard<std::mutex> g(wid_mu);
    std::map<uint64_t, uint64_t> overwriter_of;
    for (const auto& t : history) {
      for (const auto& [rec, prev_wid] : t.overwrites) {
        if (prev_wid != 0 && wid_to_txn.count(prev_wid)) {
          add_edge(wid_to_txn[prev_wid], t.id);  // WW
        }
        if (prev_wid != 0) overwriter_of[prev_wid] = t.id;
      }
      for (const auto& [rec, wid] : t.reads) {
        if (wid != 0 && wid_to_txn.count(wid)) {
          add_edge(wid_to_txn[wid], t.id);  // WR
        }
      }
    }
    for (const auto& t : history) {
      for (const auto& [rec, wid] : t.reads) {
        auto it = overwriter_of.find(wid);
        if (it != overwriter_of.end()) add_edge(t.id, it->second);  // RW
      }
    }
  }

  enum { kWhite, kGray, kBlack };
  std::vector<int> color(adj.size(), kWhite);
  bool cycle = false;
  for (size_t s = 0; s < adj.size() && !cycle; ++s) {
    if (color[s] != kWhite) continue;
    std::vector<std::pair<size_t, size_t>> stack{{s, 0}};
    color[s] = kGray;
    while (!stack.empty() && !cycle) {
      auto& [u, i] = stack.back();
      if (i < adj[u].size()) {
        const size_t w = adj[u][i++];
        if (color[w] == kGray) {
          cycle = true;
        } else if (color[w] == kWhite) {
          color[w] = kGray;
          stack.push_back({w, 0});
        }
      } else {
        color[u] = kBlack;
        stack.pop_back();
      }
    }
  }
  EXPECT_FALSE(cycle) << "committed history has a dependency cycle";
  EXPECT_GT(history.size(), 200u) << "too few commits to be meaningful";
}

}  // namespace
}  // namespace ermia
