// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Engine-wide metrics registry: always-on, near-zero-overhead counters and
// bounded histograms, sharded per thread so hot paths never contend.
//
// Design (Larson et al. style abort accounting + Taurus-style log telemetry):
//  * One Shard per ThreadRegistry slot holds every counter and histogram
//    bucket. A thread only ever writes its own shard, so increments are
//    single-writer: a relaxed load + relaxed store on a cache line the
//    writer already owns. No RMW, no fence, no false sharing (shards are
//    cache-line aligned and written by exactly one thread at a time).
//  * Readers (snapshots, the reporter phase) sum the shards with relaxed
//    loads. Snapshot semantics: every monotone counter value lies between
//    its true value when the snapshot started and when it finished, and
//    repeated snapshots are monotonically non-decreasing per counter. The
//    vector is NOT a cross-counter consistent cut — two counters bumped by
//    one event may differ by in-flight increments.
//  * Histograms are bounded: 64 log2 buckets (bucket b counts values in
//    [2^(b-1), 2^b)), so Observe() is one array increment and a snapshot is
//    a fixed-size copy. Percentiles interpolate inside the matched bucket.
#ifndef ERMIA_METRICS_METRICS_H_
#define ERMIA_METRICS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/macros.h"
#include "common/profiling.h"
#include "common/sysconf.h"

namespace ermia {
namespace metrics {

// Why a transaction aborted. Every Transaction::Finish(false) attributes the
// abort to exactly one reason (the first failure the transaction hit), so the
// per-reason counters always sum to the total abort count.
enum class AbortReason : uint32_t {
  kExplicit = 0,          // caller-initiated Abort() (e.g. NewOrder rollback)
  kSiFirstUpdaterWins,    // SI write-write: uncommitted head won (§3.6.1)
  kSiSnapshotOverwrite,   // SI write-write: committed overwrite since begin
  kSsnExclusionRead,      // SSN π<=η detected early, during a read
  kSsnExclusionUpdate,    // SSN π<=η detected during SsnOnUpdate
  kSsnExclusionCommit,    // SSN exclusion window at commit certification
  kOccWriteWrite,         // OCC install CAS lost (write-write at commit)
  kOccReadValidation,     // OCC read-set validation failed
  kPhantom,               // node-set (phantom) validation failed
  kTplNoWait,             // 2PL bounded-wait lock acquisition gave up
  kLogUnavailable,        // log stalled/poisoned: writer shed at commit
  kOther,                 // anything else (safety net)
  kNumReasons,
};

const char* AbortReasonName(AbortReason r);

// Monotone event counters. The kAbort* block mirrors AbortReason and must
// stay contiguous and in the same order (AbortCtr() indexes into it).
// Entries at or after kFirstSampledGauge are NOT sharded counters: they are
// point-in-time gauges overlaid by Database::SnapshotMetrics() (and so are
// not monotone across snapshots).
enum class Ctr : uint32_t {
  // Transaction layer.
  kTxnCommits = 0,
  kTxnReads,
  kTxnUpdates,
  kTxnInserts,
  kTxnDeletes,
  // Abort-reason taxonomy (contiguous; mirrors AbortReason).
  kAbortExplicit,
  kAbortSiFirstUpdaterWins,
  kAbortSiSnapshotOverwrite,
  kAbortSsnExclusionRead,
  kAbortSsnExclusionUpdate,
  kAbortSsnExclusionCommit,
  kAbortOccWriteWrite,
  kAbortOccReadValidation,
  kAbortPhantom,
  kAbortTplNoWait,
  kAbortLogUnavailable,
  kAbortOther,
  // Log manager.
  kLogFlushes,
  kLogFlushedBytes,
  kLogBlocksInstalled,
  kLogSkipBlocks,
  kLogDeadZoneBytes,
  kLogSegmentRotations,
  // GC epoch manager.
  kEpochAdvances,
  kEpochDeferredEnqueued,
  kEpochDeferredExecuted,
  kEpochStragglerStalls,
  // Garbage collector.
  kGcPasses,
  kGcVersionsReclaimed,
  kGcItemsDeferred,
  // Periodic checkpoints the maintenance loop completed.
  kCheckpointsTaken,
  // Recovery (checkpoint load + log-tail replay). The *Us stage times are
  // wall time on the recovering thread: checkpoint load, then per log chunk
  // the read (I/O and header walk), verify and install steps; with the
  // crew's start-up they add up to kRecoveryDurationUs.
  kRecoveryReplayBlocks,
  kRecoveryReplayRecords,
  kRecoveryReplayBytes,
  kRecoveryCheckpointEntries,
  kRecoveryDurationUs,
  kRecoveryCheckpointUs,
  kRecoveryReadUs,
  kRecoveryVerifyUs,
  kRecoveryInstallUs,
  // Transaction resource pool (txn/txn_resources.h).
  kTxnResPoolHits,
  kTxnResPoolMisses,
  // SSN read-mostly optimizations (cc/safe_snapshot.h).
  kSsnSafesnapTxns,        // declared-RO txns begun at the safe-snapshot LSN
  kSsnReadOptReads,        // reads exempted from bitmap/read-set tracking
  kSsnBitmapAdvertises,    // reader-bitmap fetch_or RMWs actually performed
  kSsnReadOptWriterWaits,  // commit-time committer scans for old overwrites
  // Graceful degradation (log/log_manager.h state machine, engine/governor,
  // engine/watchdog).
  kLogStalls,              // healthy -> stalled transitions (ENOSPC)
  kLogStallRetries,        // flush retries attempted while stalled
  kLogStallResumes,        // stalled -> healthy transitions (space freed)
  kLogPoisonEvents,        // -> poisoned transitions (EIO / failed fsync)
  kLogWriterRejects,       // writer ops rejected with Status::LogUnavailable
  kGovAdmissionWaits,      // governor admission-gate sleep episodes
  kGovAdmissionTimeouts,   // admission waits that failed open (anti-livelock)
  kGovLimitChanges,        // AIMD writer-limit adjustments applied
  kWatchdogTrips,          // watchdog trip events (any reason)
  // ---- sampled gauges (filled at snapshot time, not sharded) ----
  kIndexNodeSplits,
  kIndexReadRetries,
  kTidOccupancyHwm,
  kTidActiveTxns,
  kEpochBoundaryLag,
  // Version allocator (storage/version_alloc.h; mirrors
  // VersionAllocator::Snapshot()).
  kVerAllocSlabBytes,
  kVerAllocFreelistHits,
  kVerAllocSlabCarves,
  kVerAllocTransferPushes,
  kVerAllocTransferPops,
  kVerAllocMallocFallbacks,
  kVerAllocDeferredFrees,
  kVerAllocLimboRecycled,
  kVerAllocLimboSize,
  // Flight recorder (trace/trace.h): process-global totals — events written
  // into the per-thread rings and events overwritten before any dump read
  // them (ring wrap).
  kTraceEventsRecorded,
  kTraceEventsDropped,
  // Safe-snapshot maintenance (cc/safe_snapshot.h): the published safe LSN,
  // candidate rounds attempted / burnt by a poisoning backward edge, and
  // reader-registry slot-wait episodes (cc/ssn_readers.h).
  kSsnSafeSnapshotLsn,
  kSsnSafesnapRounds,
  kSsnSafesnapBurnt,
  kSsnReaderSlotWaits,
  // Graceful-degradation gauges: current log health (0 healthy / 1 stalled /
  // 2 poisoned), the governor's current writer limit, in-flight admitted
  // writers and last measured abort rate (permille), and the watchdog's last
  // trip reason (engine/watchdog.h; 0 = none).
  kLogHealthState,
  kGovWriterLimit,
  kGovInflightWriters,
  kGovAbortRatePermille,
  kWatchdogLastTripReason,
  kNumCounters,
};

inline constexpr uint32_t kFirstSampledGauge =
    static_cast<uint32_t>(Ctr::kIndexNodeSplits);
inline constexpr uint32_t kAbortCtrBase =
    static_cast<uint32_t>(Ctr::kAbortExplicit);

static_assert(static_cast<uint32_t>(Ctr::kAbortOther) - kAbortCtrBase + 1 ==
                  static_cast<uint32_t>(AbortReason::kNumReasons),
              "abort counter block must mirror AbortReason");

inline Ctr AbortCtr(AbortReason r) {
  return static_cast<Ctr>(kAbortCtrBase + static_cast<uint32_t>(r));
}

const char* CtrName(Ctr c);

// Bounded histograms (64 log2 buckets each).
enum class Hist : uint32_t {
  kLogFlushBytes = 0,   // bytes drained per flusher pass
  kLogFlushLatencyUs,   // wall time of one flusher pass (write + fsync)
  kLogCommitWaitUs,     // synchronous-commit group-commit wait
  kGcChainLength,       // version-chain length at GC examination time
  kEpochReclaimBatch,   // deferred cleanups executed per RunReclaimers
  kRecoveryBatchRecords,  // records one worker installed from one chunk
  kRecoveryBatchUs,       // time of one worker's install pass over one chunk
  kNumHists,
};

const char* HistName(Hist h);

inline constexpr size_t kHistBuckets = 64;

// Ablation-only kill switch: abl_metrics_overhead flips this to approximate
// the pre-metrics baseline. Production code never sets it; the relaxed load
// it adds to Inc/Observe is part of the overhead being measured.
inline std::atomic<bool> g_suppressed{false};
inline void SetSuppressedForAblation(bool on) {
  g_suppressed.store(on, std::memory_order_relaxed);
}
inline bool Suppressed() {
  return g_suppressed.load(std::memory_order_relaxed);
}

// Aggregated view of one EngineMetrics (plus sampled gauges and the process-
// wide profiling cycle counters). Plain values; safe to copy and diff.
struct HistSnapshot {
  uint64_t buckets[kHistBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;

  double mean() const;
  // p in [0, 100]; linear interpolation inside the matched bucket.
  double Percentile(double p) const;
  uint64_t MaxBucketHigh() const;  // upper bound of the highest hit bucket
};

struct MetricsSnapshot {
  uint64_t counters[static_cast<size_t>(Ctr::kNumCounters)] = {};
  HistSnapshot hists[static_cast<size_t>(Hist::kNumHists)] = {};
  // Fig. 11 component cycle accounting (process-wide; see common/profiling.h).
  prof::Counters profile;

  uint64_t counter(Ctr c) const {
    return counters[static_cast<size_t>(c)];
  }
  const HistSnapshot& hist(Hist h) const {
    return hists[static_cast<size_t>(h)];
  }
  uint64_t abort_count(AbortReason r) const { return counter(AbortCtr(r)); }
  // Total aborts; equals the sum of the per-reason counters by construction.
  uint64_t aborts_total() const;

  // Monotone counters and histograms become this-minus-prev; sampled gauges
  // keep their current (this) value.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& prev) const;

  // Machine-readable dump (counters, abort_reasons, histograms with
  // count/sum/mean/p50/p90/p99/max and non-empty buckets, profile cycles).
  std::string ToJson() const;
};

// The per-engine registry. One instance per Database; every subsystem holds
// a pointer and increments through it. Cheap enough to leave always-on.
class EngineMetrics {
 public:
  EngineMetrics();
  ERMIA_NO_COPY(EngineMetrics);

  // Hot path: single-writer relaxed add into the calling thread's shard.
  void Inc(Ctr c, uint64_t n = 1) {
    if (ERMIA_UNLIKELY(Suppressed())) return;
    auto& cell = shards_[ThreadRegistry::MyId()]
                     .counters[static_cast<size_t>(c)];
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  // Hot path: one bucket increment + sum accumulation, same discipline.
  void Observe(Hist h, uint64_t value) {
    if (ERMIA_UNLIKELY(Suppressed())) return;
    Shard& s = shards_[ThreadRegistry::MyId()];
    auto& bucket = s.hist_buckets[static_cast<size_t>(h)][BucketFor(value)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    auto& sum = s.hist_sums[static_cast<size_t>(h)];
    sum.store(sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  }

  // Relaxed sum over all shards; see snapshot semantics in the file comment.
  // Fills `profile` from prof::SnapshotAll(); sampled gauges stay zero (the
  // Database overlays them).
  MetricsSnapshot Snapshot() const;

  // Relaxed sum of one counter across all shards. Cheap enough for periodic
  // polling (the overload governor samples commit/abort counters every tick
  // without paying for a full Snapshot()).
  uint64_t Sum(Ctr c) const {
    const uint32_t hwm = ThreadRegistry::HighWaterMark();
    const uint32_t n = hwm < kMaxThreads ? hwm : kMaxThreads;
    uint64_t total = 0;
    for (uint32_t t = 0; t < n; ++t) {
      total += shards_[t]
                   .counters[static_cast<size_t>(c)]
                   .load(std::memory_order_relaxed);
    }
    return total;
  }

  static size_t BucketFor(uint64_t v) {
    if (v == 0) return 0;
    const size_t b = 64 - static_cast<size_t>(__builtin_clzll(v));
    return b < kHistBuckets ? b : kHistBuckets - 1;
  }
  // Lower bound of bucket b: 0 for b==0, else 2^(b-1).
  static uint64_t BucketLow(size_t b) {
    return b == 0 ? 0 : 1ull << (b - 1);
  }

 private:
  struct alignas(kCacheLineSize) Shard {
    std::atomic<uint64_t> counters[static_cast<size_t>(Ctr::kNumCounters)];
    std::atomic<uint64_t>
        hist_buckets[static_cast<size_t>(Hist::kNumHists)][kHistBuckets];
    std::atomic<uint64_t> hist_sums[static_cast<size_t>(Hist::kNumHists)];
  };

  Shard shards_[kMaxThreads];
};

}  // namespace metrics
}  // namespace ermia

#endif  // ERMIA_METRICS_METRICS_H_
