// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
#include "oracle.h"

#include <cmath>
#include <cstring>

#include "common/key_encoder.h"

namespace perfbench {

using ermia::CcScheme;
using ermia::Slice;
using ermia::Status;
using ermia::Transaction;

namespace {

// 64-bit mix of a byte string, eight bytes at a time (not cryptographic;
// it only has to make accidental equality of different contents unlikely).
uint64_t HashBytes(const char* p, size_t n, uint64_t h) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  h ^= n * kMul;
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
    p += 8;
    n -= 8;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, p, n);
  h = (h ^ tail) * kMul;
  return h ^ (h >> 32);
}

}  // namespace

Status DigestDatabase(ermia::Database* db, std::vector<IndexDigest>* out) {
  out->clear();
  Transaction txn(db, CcScheme::kSi, /*read_only=*/true);
  for (ermia::Index* index : db->index_list()) {
    IndexDigest d;
    d.index = index->name();
    Status s = txn.Scan(index, Slice(), Slice(), -1,
                        [&](const Slice& key, const Slice& value) {
                          d.digest = HashBytes(key.data(), key.size(), d.digest);
                          d.digest = HashBytes(value.data(), value.size(), d.digest);
                          ++d.entries;
                          return true;
                        });
    if (!s.ok()) return s;
    out->push_back(d);
  }
  return txn.Commit();
}

std::string CompareDigests(const std::vector<IndexDigest>& before,
                           const std::vector<IndexDigest>& after) {
  if (before.size() != after.size()) return "record_count:index_list";
  for (size_t i = 0; i < before.size(); ++i) {
    if (before[i].index != after[i].index) return "record_count:index_list";
    if (before[i].entries != after[i].entries) {
      return "record_count:" + before[i].index + " before=" +
             std::to_string(before[i].entries) +
             " after=" + std::to_string(after[i].entries);
    }
    if (before[i].digest != after[i].digest) return "digest:" + before[i].index;
  }
  return "";
}

std::string CheckTpccConsistency(ermia::Database* db,
                                 const ermia::tpcc::TpccTables& t,
                                 uint32_t warehouses, uint32_t districts) {
  using namespace ermia::tpcc;
  Transaction txn(db, CcScheme::kSi, /*read_only=*/true);
  std::string failed;
  for (uint32_t w = 1; w <= warehouses && failed.empty(); ++w) {
    Slice raw;
    WarehouseRow wr;
    if (!txn.Get(t.warehouse_pk, WarehouseKey(w).slice(), &raw).ok() ||
        !LoadRow(raw, &wr)) {
      failed = "tpcc_missing_warehouse w=" + std::to_string(w);
      break;
    }
    double d_ytd = 0;
    for (uint32_t d = 1; d <= districts; ++d) {
      DistrictRow dr;
      if (!txn.Get(t.district_pk, DistrictKey(w, d).slice(), &raw).ok() ||
          !LoadRow(raw, &dr)) {
        failed = "tpcc_missing_district w=" + std::to_string(w) +
                 " d=" + std::to_string(d);
        break;
      }
      d_ytd += dr.d_ytd;
      uint32_t max_o = 0;
      Status s = txn.ScanOids(t.order_pk, OrderKey(w, d, 0).slice(),
                              OrderKey(w, d, UINT32_MAX).slice(), -1,
                              [&](const Slice& key, ermia::Oid) {
                                ermia::KeyDecoder dec(key);
                                dec.U32();
                                dec.U32();
                                max_o = dec.U32();
                                return true;
                              });
      if (!s.ok() || static_cast<uint32_t>(dr.d_next_o_id) - 1 != max_o) {
        failed = "tpcc_condition_1 w=" + std::to_string(w) +
                 " d=" + std::to_string(d) +
                 " d_next_o_id=" + std::to_string(dr.d_next_o_id) +
                 " max_o_id=" + std::to_string(max_o);
        break;
      }
    }
    // The two sums add the same payments in different orders, so allow
    // rounding relative to the magnitude.
    if (failed.empty() &&
        std::fabs(wr.w_ytd - d_ytd) > 1e-9 * std::fabs(wr.w_ytd) + 0.01) {
      failed = "tpcc_condition_2 w=" + std::to_string(w) +
               " w_ytd=" + std::to_string(wr.w_ytd) +
               " sum_d_ytd=" + std::to_string(d_ytd);
    }
  }
  Status c = txn.Commit();
  if (failed.empty() && !c.ok()) failed = "tpcc_check_commit " + c.ToString();
  return failed;
}

}  // namespace perfbench
