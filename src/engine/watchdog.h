// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Engine watchdog: a low-frequency check, run by the Database's maintenance
// loop every EngineConfig::watchdog_interval_ms, that detects the silent failure
// modes graceful degradation can leave behind — a flusher that stopped
// advancing durability while completed bytes pile up, an epoch reclaim
// boundary pinned by a straggler, a safe-snapshot horizon frozen while the
// log tail races ahead, and a log that has been degraded for longer than the
// grace period. A trip is diagnostic, not corrective: one stderr line, the
// kWatchdogTrips counter, a kWatchdogTrip trace event, and (when
// EngineConfig::watchdog_dump_dir is set) a flight-recorder dump plus a
// metrics snapshot for post-mortem analysis. Each reason re-arms only after
// its signal recovers, so a persistent condition trips once, not every tick.
#ifndef ERMIA_ENGINE_WATCHDOG_H_
#define ERMIA_ENGINE_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/macros.h"

namespace ermia {

class Database;

class Watchdog {
 public:
  // Stable numeric codes: exported through the kWatchdogLastTripReason gauge
  // and the kWatchdogTrip trace payload.
  enum class Reason : uint32_t {
    kNone = 0,
    // Completed log bytes exist (CompleteUntil > DurableOffset) but the
    // durable offset has not moved for the grace period while the log still
    // claims to be healthy.
    kFlusherStalled = 1,
    // The gc-epoch reclaim boundary is pinned (a straggler never exited)
    // while the open epoch keeps advancing.
    kEpochStuck = 2,
    // The safe-snapshot horizon stopped advancing while the log tail moved
    // on (judged over twice the grace period — the snapshot lags by design).
    kSafeSnapshotStuck = 3,
    // The log has been stalled/poisoned for longer than the grace period.
    kLogDegraded = 4,
  };

  explicit Watchdog(Database* db);
  ERMIA_NO_COPY(Watchdog);

  // One detection pass over all signals; returns the first reason tripped
  // this pass (kNone if quiet). Tests call it directly to drive detection
  // deterministically instead of sleeping out the interval.
  Reason CheckOnce();

  uint64_t trips() const { return trips_.load(std::memory_order_relaxed); }
  Reason last_reason() const {
    return static_cast<Reason>(last_reason_.load(std::memory_order_relaxed));
  }

 private:
  using Clock = std::chrono::steady_clock;

  void Trip(Reason reason, uint64_t detail);
  bool GraceElapsed(Clock::time_point since, uint64_t multiplier = 1) const;

  Database* db_;

  // Last observed signal values + when each last changed (CheckOnce-thread
  // private; tests and the maintenance loop never run CheckOnce
  // concurrently).
  uint64_t seen_durable_ = 0;
  Clock::time_point durable_since_{};
  uint64_t seen_boundary_ = 0;
  uint64_t boundary_epoch_ = 0;
  Clock::time_point boundary_since_{};
  uint64_t seen_safesnap_ = 0;
  uint64_t safesnap_tail_ = 0;
  Clock::time_point safesnap_since_{};
  Clock::time_point degraded_since_{};
  bool was_degraded_ = false;
  // Re-arm latches: a reason that tripped stays quiet until its signal
  // recovers.
  bool armed_[5] = {true, true, true, true, true};

  std::atomic<uint64_t> trips_{0};
  std::atomic<uint32_t> last_reason_{0};
};

const char* WatchdogReasonName(Watchdog::Reason r);

}  // namespace ermia

#endif  // ERMIA_ENGINE_WATCHDOG_H_
