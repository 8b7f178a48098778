// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
#include "spec.h"

#include "workloads/ycsb/ycsb_workload.h"

namespace perfbench {

using ermia::tpcc::TpccTxnType;

namespace {

constexpr double kTpccDensity = 0.1;
constexpr double kQ2Fraction = 0.1;  // share of the stock range one Q2* scans
constexpr uint32_t kValueSize = 100;
constexpr uint32_t kOpsPerTxn = 10;

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tpcc-hybrid", "ycsb-update",
                                                 "kv-read-large"};
  return names;
}

bool DefaultSpec(const std::string& name, WorkloadSpec* out) {
  WorkloadSpec s;
  s.name = name;
  if (name == "tpcc-hybrid") {
    s.kind = Kind::kTpccHybrid;
    s.txns_per_second = 16000;
    s.rounds = 8;
  } else if (name == "ycsb-update") {
    s.kind = Kind::kYcsbUpdate;
    s.records = 1000000;
    // One worker: at two, about one run in ten queued updates faster than
    // a GC pass could retire them, and Close() then spent minutes in one
    // pass (README.md, "Why ycsb-update runs one worker").
    s.workers = 1;
    s.txns_per_second = 30000;
  } else if (name == "kv-read-large") {
    s.kind = Kind::kKvReadLarge;
    s.records = 4000000;
    s.txns_per_second = 100000;
  } else {
    return false;
  }
  *out = s;
  return true;
}

std::string Validate(const WorkloadSpec& s) {
  if (s.workers < 1) return "workers must be >= 1";
  if (s.txns_per_second < 1) return "txns_per_second must be >= 1";
  if (s.rounds < 1) return "rounds must be >= 1";
  if (s.kind == Kind::kTpccHybrid) {
    if (s.warehouses < 1) return "warehouses must be >= 1";
  } else if (s.records < 1) {
    return "records must be >= 1";
  }
  return "";
}

std::unique_ptr<ermia::bench::Workload> MakeWorkload(const WorkloadSpec& s) {
  if (s.kind == Kind::kTpccHybrid) {
    ermia::tpcc::TpccConfig cfg;
    cfg.warehouses = s.warehouses;
    cfg.density = kTpccDensity;
    ermia::tpcc::TpccRunOptions opts;
    opts.hybrid = true;
    opts.q2_fraction = kQ2Fraction;
    opts.policy = ermia::tpcc::PartitionPolicy::kLocal;
    return std::make_unique<ermia::tpcc::TpccWorkload>(cfg, opts);
  }
  ermia::ycsb::YcsbConfig cfg;
  cfg.records = s.records;
  cfg.value_size = kValueSize;
  cfg.ops_per_txn = kOpsPerTxn;
  // Uniform keys: YcsbWorkload's Zipfian streams are seeded from the worker
  // id alone, so they would ignore the run seed (README.md).
  cfg.zipf_theta = 0;
  cfg.mix = s.kind == Kind::kYcsbUpdate ? ermia::ycsb::YcsbMix::kA
                                        : ermia::ycsb::YcsbMix::kC;
  return std::make_unique<ermia::ycsb::YcsbWorkload>(cfg);
}

void CreateSchema(ermia::Database* db, const WorkloadSpec& s,
                  ermia::tpcc::TpccTables* tpcc) {
  if (s.kind == Kind::kTpccHybrid) {
    *tpcc = ermia::tpcc::CreateTpccSchema(db, /*hybrid=*/true);
    return;
  }
  // Mirrors YcsbWorkload::Load.
  ermia::Table* table = db->CreateTable("usertable");
  db->CreateIndex(table, "usertable_pk");
}

bool IsLongType(const WorkloadSpec& s, size_t type) {
  return s.kind == Kind::kTpccHybrid &&
         type == static_cast<size_t>(TpccTxnType::kQ2Star);
}

}  // namespace perfbench
