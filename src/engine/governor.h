// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Abort-storm governor: an AIMD admission gate for write transactions.
//
// Under heavy write contention optimistic schemes livelock productively —
// every worker burns its slice installing versions that certification then
// throws away, and measured goodput collapses well below what fewer writers
// would sustain. The governor measures the engine-wide abort rate over fixed
// ticks and adapts a concurrent-writer limit the way TCP adapts a congestion
// window: halve on loss (abort rate above the high watermark), grow by one
// per tick when the storm subsides (below the low watermark). Writers that
// do not fit under the limit park briefly at transaction begin with jittered
// backoff; the gate fails open after bounded rounds so a misconfigured
// governor can throttle but never livelock the system.
//
// The gate is intentionally upstream of everything: an admitted writer has
// not yet entered the gc epoch, claimed a TID, or touched the log, so parked
// writers hold no engine resources that could stall reclamation.
#ifndef ERMIA_ENGINE_GOVERNOR_H_
#define ERMIA_ENGINE_GOVERNOR_H_

#include <atomic>
#include <cstdint>

#include "common/macros.h"
#include "common/sysconf.h"
#include "metrics/metrics.h"

namespace ermia {

class OverloadGovernor {
 public:
  // `metrics` may be null (standalone unit tests).
  OverloadGovernor(const EngineConfig& config,
                   metrics::EngineMetrics* metrics);
  ERMIA_NO_COPY(OverloadGovernor);

  // Blocks the calling writer until it fits under the writer limit, with
  // jittered sleep backoff between attempts. Always returns with a slot
  // held: after kMaxAdmissionRounds the gate fails open (overshooting the
  // limit beats stranding a worker). Pair with ReleaseWriter().
  void AdmitWriter();
  void ReleaseWriter();

  // One AIMD step. `commits`/`aborts` are cumulative engine counters (the
  // caller samples metrics::EngineMetrics::Sum); the governor diffs them
  // against the previous tick. Single caller only (the maintenance loop's
  // snapshot tick).
  void Tick(uint64_t commits, uint64_t aborts);

  uint32_t writer_limit() const {
    return limit_.load(std::memory_order_relaxed);
  }
  uint32_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  // Abort rate measured at the last meaningful tick, in permille.
  uint32_t abort_rate_permille() const {
    return rate_permille_.load(std::memory_order_relaxed);
  }

 private:
  // Admission rounds before failing open; with the jittered sleep growing to
  // kMaxSleepUs this bounds a worst-case park well under a second.
  static constexpr uint32_t kMaxAdmissionRounds = 256;
  static constexpr uint32_t kMaxSleepUs = 2000;

  metrics::EngineMetrics* metrics_;  // nullable
  const uint32_t high_permille_;
  const uint32_t low_permille_;
  const uint32_t min_writers_;
  const uint32_t max_writers_;
  const uint32_t min_sample_;

  std::atomic<uint32_t> limit_;
  std::atomic<uint32_t> inflight_{0};
  std::atomic<uint32_t> rate_permille_{0};

  // Tick-thread private (one caller).
  uint64_t last_commits_ = 0;
  uint64_t last_aborts_ = 0;
};

}  // namespace ermia

#endif  // ERMIA_ENGINE_GOVERNOR_H_
