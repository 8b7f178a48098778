// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Epoch-gated garbage collector for dead versions (paper §3.2/§3.4).
// Committing transactions enqueue the OIDs they updated; the collector trims
// each chain down to the newest version still visible to the oldest active
// transaction, unlinking older versions and deferring the actual frees to the
// GC epoch manager so in-flight readers are never pulled out from under.
// The collector owns no thread: the Database's maintenance loop runs a pass
// every EngineConfig::gc_interval_ms.
#ifndef ERMIA_STORAGE_GC_H_
#define ERMIA_STORAGE_GC_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/sysconf.h"
#include "epoch/epoch_manager.h"
#include "metrics/metrics.h"
#include "storage/table.h"

namespace ermia {

class GarbageCollector {
 public:
  // `oldest_active` returns the smallest begin offset of any in-flight
  // transaction (or the log tail when idle): versions overwritten before that
  // point — except the newest such version — are unreachable.
  // `metrics` may be null (standalone construction in unit tests).
  GarbageCollector(EpochManager* gc_epoch,
                   std::function<uint64_t()> oldest_active,
                   metrics::EngineMetrics* metrics = nullptr);
  ERMIA_NO_COPY(GarbageCollector);

  // Called by committing transactions for every record they overwrote.
  void NotifyUpdate(Table* table, Oid oid);

  // One collection pass; returns versions reclaimed (tests call this
  // directly; the maintenance loop calls it on its interval).
  size_t RunOnce();

 private:
  struct Item {
    Table* table;
    Oid oid;
  };

  EpochManager* gc_epoch_;
  std::function<uint64_t()> oldest_active_;
  metrics::EngineMetrics* metrics_;  // nullable

  // Per-thread recycle queues (sharded by ThreadRegistry::MyId()): committing
  // workers enqueue into their own shard, so the commit path never contends
  // with other workers — only with the collector's periodic drain of that
  // shard, which is brief and touches one shard at a time.
  struct alignas(kCacheLineSize) Shard {
    SpinLatch latch;
    std::deque<Item> queue;
  };
  Shard shards_[kMaxThreads];
};

}  // namespace ermia

#endif  // ERMIA_STORAGE_GC_H_
