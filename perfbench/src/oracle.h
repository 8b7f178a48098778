// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Correctness oracle for benchmark runs. Each check returns an empty string
// when it holds and otherwise the name of the failed check plus detail, so a
// failed run says exactly which invariant broke.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "workloads/tpcc/tpcc_schema.h"

namespace perfbench {

// Entry count and order-sensitive digest of every visible (key, value) pair
// reachable through one index.
struct IndexDigest {
  std::string index;
  uint64_t entries = 0;
  uint64_t digest = 0;
};

// Scans every index of the catalog, in catalog order, inside one read-only
// SI transaction. Call with no concurrent writers.
ermia::Status DigestDatabase(ermia::Database* db, std::vector<IndexDigest>* out);

// Compares the state before Close() with the state after Recover():
// "record_count:<index>" when an index's entry count differs,
// "digest:<index>" when its contents differ.
std::string CompareDigests(const std::vector<IndexDigest>& before,
                           const std::vector<IndexDigest>& after);

// TPC-C consistency condition 1 (d_next_o_id - 1 equals the highest order
// id of every district) and condition 2 (W_YTD equals the sum of its
// districts' D_YTD): "tpcc_condition_1 w=.. d=.." or "tpcc_condition_2
// w=..", empty when both hold.
std::string CheckTpccConsistency(ermia::Database* db,
                                 const ermia::tpcc::TpccTables& tables,
                                 uint32_t warehouses, uint32_t districts);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
