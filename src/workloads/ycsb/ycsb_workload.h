// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// YCSB-style key-value workload (not in the paper's evaluation; standard
// kit for memory-optimized engines). Single table of fixed-size records,
// Zipfian or uniform key choice, and the classic operation mixes:
//   A: 50% read / 50% update         C: 100% read
//   B: 95% read / 5% update          E: 95% scan / 5% insert
//   F: 50% read / 50% read-modify-write
#ifndef ERMIA_WORKLOADS_YCSB_YCSB_WORKLOAD_H_
#define ERMIA_WORKLOADS_YCSB_YCSB_WORKLOAD_H_

#include <atomic>
#include <memory>

#include "bench/driver.h"
#include "common/key_encoder.h"

namespace ermia {
namespace ycsb {

enum class YcsbMix { kA, kB, kC, kE, kF };

struct YcsbConfig {
  uint64_t records = 100000;
  uint32_t value_size = 100;
  uint32_t ops_per_txn = 10;
  double zipf_theta = 0.8;  // <= 0 means uniform
  uint32_t scan_length = 50;
  YcsbMix mix = YcsbMix::kB;
};

class YcsbWorkload : public bench::Workload {
 public:
  explicit YcsbWorkload(YcsbConfig cfg) : cfg_(cfg) {}

  Status Load(Database* db) override;
  size_t NumTxnTypes() const override { return 1; }
  const char* TxnTypeName(size_t) const override;
  size_t PickTxnType(FastRandom&) const override { return 0; }
  Status RunTxn(Database* db, CcScheme scheme, size_t type, uint32_t worker_id,
                uint32_t num_workers, FastRandom& rng) override;

  void set_mix(YcsbMix mix) { cfg_.mix = mix; }
  const YcsbConfig& config() const { return cfg_; }

  static Varstr Key(uint64_t k) { return KeyEncoder().U64(k).varstr(); }

 private:
  uint64_t PickKey(FastRandom& rng) const;
  // Mix C: draws each op's key as the other mixes do, then reads them all
  // with one MultiGet.
  Status RunReadBatch(Database* db, CcScheme scheme, FastRandom& rng);

  YcsbConfig cfg_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
  std::atomic<uint64_t> insert_cursor_{0};
  // Built by Load when zipf_theta > 0; shared by all workers, who draw from
  // it with their own run-seeded generators.
  std::unique_ptr<ZipfianRandom> zipf_;
};

}  // namespace ycsb
}  // namespace ermia

#endif  // ERMIA_WORKLOADS_YCSB_YCSB_WORKLOAD_H_
