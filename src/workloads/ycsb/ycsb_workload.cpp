#include "workloads/ycsb/ycsb_workload.h"

#include <algorithm>

namespace ermia {
namespace ycsb {

Status YcsbWorkload::Load(Database* db) {
  table_ = db->CreateTable("usertable");
  pk_ = db->CreateIndex(table_, "usertable_pk");
  insert_cursor_.store(cfg_.records);
  if (cfg_.zipf_theta > 0) {
    zipf_ = std::make_unique<ZipfianRandom>(cfg_.records, cfg_.zipf_theta);
  }
  FastRandom rng(0x5CB);
  std::string value(cfg_.value_size, 'y');
  std::unique_ptr<Transaction> txn;
  for (uint64_t k = 0; k < cfg_.records; ++k) {
    if (!txn) txn = std::make_unique<Transaction>(db, CcScheme::kSi);
    for (auto& c : value) c = static_cast<char>('a' + rng.UniformU64(0, 25));
    ERMIA_RETURN_NOT_OK(
        txn->Insert(table_, pk_, Key(k).slice(), value, nullptr));
    if ((k + 1) % 512 == 0) {
      ERMIA_RETURN_NOT_OK(txn->Commit());
      txn.reset();
    }
  }
  if (txn) return txn->Commit();
  return Status::OK();
}

const char* YcsbWorkload::TxnTypeName(size_t) const {
  switch (cfg_.mix) {
    case YcsbMix::kA:
      return "YCSB-A";
    case YcsbMix::kB:
      return "YCSB-B";
    case YcsbMix::kC:
      return "YCSB-C";
    case YcsbMix::kE:
      return "YCSB-E";
    case YcsbMix::kF:
      return "YCSB-F";
  }
  return "YCSB";
}

uint64_t YcsbWorkload::PickKey(FastRandom& rng) const {
  const uint64_t n = insert_cursor_.load(std::memory_order_relaxed);
  if (!zipf_) return rng.UniformU64(0, n - 1);
  return zipf_->Next(rng) % n;
}

// The key stream matches the per-op path: one NextDouble (the read/write
// draw, always a read here), then one PickKey, per op.
Status YcsbWorkload::RunReadBatch(Database* db, CcScheme scheme,
                                  FastRandom& rng) {
  constexpr uint32_t kBatch = BTree::kLookupGroup;
  Transaction txn(db, scheme, /*read_only=*/true);
  Varstr keys[kBatch];
  Slice slices[kBatch];
  Slice values[kBatch];
  Status statuses[kBatch];
  for (uint32_t done = 0; done < cfg_.ops_per_txn;) {
    const uint32_t m = std::min(cfg_.ops_per_txn - done, kBatch);
    for (uint32_t i = 0; i < m; ++i) {
      rng.NextDouble();
      keys[i] = Key(PickKey(rng));
      slices[i] = keys[i].slice();
    }
    ERMIA_RETURN_NOT_OK(txn.MultiGet(pk_, slices, m, values, statuses));
    done += m;
  }
  return txn.Commit();
}

Status YcsbWorkload::RunTxn(Database* db, CcScheme scheme, size_t /*type*/,
                            uint32_t /*worker_id*/, uint32_t /*num_workers*/,
                            FastRandom& rng) {
  if (cfg_.mix == YcsbMix::kC) return RunReadBatch(db, scheme, rng);
  Transaction txn(db, scheme);
  std::string value(cfg_.value_size, 'u');
  for (uint32_t op = 0; op < cfg_.ops_per_txn; ++op) {
    double read_fraction = 1.0;
    switch (cfg_.mix) {
      case YcsbMix::kA:
        read_fraction = 0.5;
        break;
      case YcsbMix::kB:
        read_fraction = 0.95;
        break;
      case YcsbMix::kC:  // RunReadBatch
        break;
      case YcsbMix::kE:
        read_fraction = 0.95;  // "read" = scan for E
        break;
      case YcsbMix::kF:
        read_fraction = 0.5;  // "write" = read-modify-write
        break;
    }
    const bool is_read = rng.NextDouble() < read_fraction;
    if (cfg_.mix == YcsbMix::kE) {
      if (is_read) {
        const uint64_t start = PickKey(rng);
        ERMIA_RETURN_NOT_OK(txn.Scan(
            pk_, Key(start).slice(), Slice(), cfg_.scan_length,
            [](const Slice&, const Slice&) { return true; }));
      } else {
        const uint64_t k =
            insert_cursor_.fetch_add(1, std::memory_order_relaxed);
        Status s = txn.Insert(table_, pk_, Key(k).slice(), value, nullptr);
        if (!s.ok() && !s.IsKeyExists()) return s;
      }
      continue;
    }
    const uint64_t k = PickKey(rng);
    Oid oid = 0;
    Status g = txn.GetOid(pk_, Key(k).slice(), &oid);
    if (g.IsNotFound()) continue;
    ERMIA_RETURN_NOT_OK(g);
    if (is_read) {
      Slice v;
      ERMIA_RETURN_NOT_OK(txn.Read(table_, oid, &v));
    } else if (cfg_.mix == YcsbMix::kF) {
      Slice v;
      ERMIA_RETURN_NOT_OK(txn.Read(table_, oid, &v));
      value.assign(v.data(), v.size());
      if (!value.empty()) value[0] = static_cast<char>('a' + (value[0] + 1) % 26);
      ERMIA_RETURN_NOT_OK(txn.Update(table_, oid, value));
    } else {
      ERMIA_RETURN_NOT_OK(txn.Update(table_, oid, value));
    }
  }
  return txn.Commit();
}

}  // namespace ycsb
}  // namespace ermia
