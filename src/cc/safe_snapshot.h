// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Safe-snapshot maintenance for SSN read-mostly optimizations (paper §3.6.2;
// "Rethinking serializable MVCC" PVLDB'15 read-only exemptions).
//
// The manager publishes a lagging "safe" log offset S with two guarantees:
//
//   (1) Every transaction that began below S has finished (post-committed and
//       published its stamps, or aborted). Version stamps at offsets < S are
//       final: a version with clsn < S has an immutable pstamp contribution
//       history and, if overwritten, its overwriter's sstamp is final too.
//   (2) No committed transaction — past or future — has a backward
//       rw-dependency crossing S, i.e. final sstamp offset < S <= cstamp
//       offset. A declared read-only transaction that reads the committed
//       state as of S therefore sits on no rw-antidependency cycle and
//       serializes at S with zero tracking (the Fekete et al. read-only
//       anomaly is exactly a backward edge crossing the snapshot point).
//
// Protocol (the engine's maintenance thread drives Tick; see docs/INTERNALS.md
// "Read-mostly optimizations" for the proof):
//
//   a. Pick candidate c = current log tail, record mark = gc-epoch E,
//      advance the gc epoch.
//   b. Wait (across ticks) until ReclaimBoundary() >= mark: every
//      transaction that was in flight when c was chosen has exited. Any
//      transaction entering afterwards observed the epoch advance, which
//      happens-after the tail read, so its begin offset is >= c.
//   c. Check the poison table: every SSN commit whose final sstamp offset is
//      below its cstamp offset records that interval (a committed backward
//      edge). If no recorded interval covers c, publish S = max(S, c);
//      otherwise burn the candidate and retry with a fresh tail. Only
//      transactions that began below c can be the *first* to commit a
//      backward edge across c (any later committer's edge folds an earlier
//      committed sstamp < c, recursing to a straddler), and all of those
//      have drained and recorded by step b.
//
// Recording is candidate-independent and cheap (per-thread shard, bounded
// table, overflow folds into one conservative interval), so the tick never
// coordinates with committers beyond the epoch it already shares.
#ifndef ERMIA_CC_SAFE_SNAPSHOT_H_
#define ERMIA_CC_SAFE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/sysconf.h"
#include "epoch/epoch_manager.h"

namespace ermia {

class SafeSnapshotManager {
 public:
  SafeSnapshotManager() = default;
  ERMIA_NO_COPY(SafeSnapshotManager);

  // Highest published safe offset. Monotone; readers adopt it as their begin
  // offset, the GC horizon is pinned by gc_horizon() below it.
  uint64_t published() const {
    return published_.load(std::memory_order_acquire);
  }

  // GC trim bound: the safe offset as of the *previous* completed tick
  // (always <= published()). The extra tick of lag closes the window between
  // a reader loading published() and its TID-table registration becoming
  // visible to the GC oldest-active scan — registration completes ns after
  // the load, the horizon follows tens of ms later.
  uint64_t gc_horizon() const {
    return gc_horizon_.load(std::memory_order_acquire);
  }

  // Records a committed backward rw-dependency: this transaction's final
  // sstamp offset is below its cstamp offset, so no safe point may land in
  // (sstamp_off, cstamp_off]. Called from SSN commit, after the exclusion
  // test passes and before the transaction exits its gc epoch (the epoch
  // drain in Tick step b is what makes the record visible to validation).
  void RecordBackwardEdge(uint64_t sstamp_off, uint64_t cstamp_off);

  // One state-machine step; called by the engine's maintenance loop (and by
  // tests). `gc_epoch` must be the same manager transactions Enter() around
  // their lifetime; `log_tail` is the current log tail offset, loaded by the
  // caller immediately before the call (sequenced before the epoch advance
  // inside). Internally latched so a test-driven Tick cannot race the
  // loop's. In a quiesced system one call selects, validates, and
  // publishes.
  void Tick(EpochManager& gc_epoch, uint64_t log_tail);

  // Resets the published offset (engine open/recovery, before any
  // transactions run).
  void Reset(uint64_t offset);

  struct Stats {
    uint64_t published = 0;
    uint64_t rounds = 0;    // candidates selected
    uint64_t burnt = 0;     // candidates discarded due to a poison interval
    uint64_t recorded = 0;  // backward edges recorded
  };
  Stats GetStats() const;

 private:
  struct Interval {
    uint64_t sstamp_off;
    uint64_t cstamp_off;
  };

  // Per-thread shard: bounded interval table + one conservative fold for
  // overflow. The latch is uncontended in steady state (owner thread +
  // occasional tick scan/prune).
  struct alignas(kCacheLineSize) Shard {
    SpinLatch latch;
    static constexpr uint32_t kCapacity = 32;
    Interval entries[kCapacity];
    uint32_t count = 0;
    // Folded overflow interval; low > high means empty.
    uint64_t fold_low = UINT64_MAX;
    uint64_t fold_high = 0;
  };

  // True if any recorded interval (s, e] covers c, pruning entries dead for
  // all future candidates (cstamp_off <= prune_below) along the way.
  bool Poisoned(uint64_t c, uint64_t prune_below);

  Shard shards_[kMaxThreads];

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> gc_horizon_{0};
  std::atomic<uint64_t> rounds_{0};
  std::atomic<uint64_t> burnt_{0};
  std::atomic<uint64_t> recorded_{0};

  // Candidate state machine, owned by whoever holds tick_latch_.
  SpinLatch tick_latch_;
  bool pending_ = false;
  uint64_t candidate_ = 0;
  Epoch mark_ = 0;
};

}  // namespace ermia

#endif  // ERMIA_CC_SAFE_SNAPSHOT_H_
