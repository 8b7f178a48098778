// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// The benchmark's workloads: their fixed sizes, the amount of work a run
// does, and the checks that reject a parameter set before anything is
// loaded. README.md explains why each workload and size was chosen.
#ifndef PERFBENCH_SPEC_H_
#define PERFBENCH_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/driver.h"
#include "engine/database.h"
#include "workloads/tpcc/tpcc_workload.h"

namespace perfbench {

enum class Kind { kTpccHybrid, kYcsbUpdate, kKvReadLarge };

// What a run of one workload loads and how much work it measures. The
// remaining sizes (TPC-C density and Q2* footprint, YCSB value size and
// operations per transaction) are constants in spec.cpp.
struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kTpccHybrid;
  uint32_t workers = 2;
  uint32_t warehouses = 2;  // tpcc-hybrid only
  uint64_t records = 0;     // YCSB workloads only

  // Fixed work: the measured phases run txns_per_second * --seconds
  // transactions in total, split evenly over the workers and the rounds.
  // Each round loads a fresh database; tpcc-hybrid uses several because its
  // throughput falls as its tables grow (README.md).
  uint64_t txns_per_second = 0;
  uint32_t rounds = 1;
};

// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Fills `out` with the named workload's defaults; false if the name is
// unknown.
bool DefaultSpec(const std::string& name, WorkloadSpec* out);

// Empty if the spec can run; otherwise a message naming the first bad
// parameter. The runner checks its fixed spec with it before anything is
// loaded, so a size the workloads would crash on (records = 0 makes
// YcsbWorkload::PickKey divide by zero) stops the run up front.
std::string Validate(const WorkloadSpec& spec);

std::unique_ptr<ermia::bench::Workload> MakeWorkload(const WorkloadSpec& spec);

// Re-creates the schema the workload's Load() creates, in the same order
// (FIDs follow creation order), so Recover() can replay into it. Fills
// `tpcc` for TPC-C-hybrid.
void CreateSchema(ermia::Database* db, const WorkloadSpec& spec,
                  ermia::tpcc::TpccTables* tpcc);

// Whether transaction type `type` of the workload is the long read-mostly
// class (TPC-C-hybrid's Q2*); every other type is "short".
bool IsLongType(const WorkloadSpec& spec, size_t type);

}  // namespace perfbench

#endif  // PERFBENCH_SPEC_H_
