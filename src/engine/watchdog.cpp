#include "engine/watchdog.h"

#include <cstdio>
#include <fstream>

#include "engine/database.h"
#include "trace/trace.h"

namespace ermia {

const char* WatchdogReasonName(Watchdog::Reason r) {
  switch (r) {
    case Watchdog::Reason::kNone:
      return "none";
    case Watchdog::Reason::kFlusherStalled:
      return "flusher_stalled";
    case Watchdog::Reason::kEpochStuck:
      return "epoch_stuck";
    case Watchdog::Reason::kSafeSnapshotStuck:
      return "safe_snapshot_stuck";
    case Watchdog::Reason::kLogDegraded:
      return "log_degraded";
  }
  return "unknown";
}

Watchdog::Watchdog(Database* db) : db_(db) {
  const auto now = Clock::now();
  durable_since_ = boundary_since_ = safesnap_since_ = degraded_since_ = now;
  seen_durable_ = db_->log().DurableOffset();
  seen_boundary_ = db_->gc_epoch().ReclaimBoundary();
  boundary_epoch_ = db_->gc_epoch().current();
  seen_safesnap_ = db_->safe_snapshot_offset();
  safesnap_tail_ = db_->log().CurrentOffset();
}

bool Watchdog::GraceElapsed(Clock::time_point since,
                            uint64_t multiplier) const {
  return Clock::now() - since >= std::chrono::milliseconds(
                                     db_->config().watchdog_grace_ms *
                                     multiplier);
}

Watchdog::Reason Watchdog::CheckOnce() {
  Reason tripped = Reason::kNone;
  auto fire = [&](size_t idx, Reason r, uint64_t detail) {
    if (!armed_[idx]) return;
    armed_[idx] = false;
    Trip(r, detail);
    if (tripped == Reason::kNone) tripped = r;
  };

  // (a) Flusher stalled: pending completed bytes, durable offset frozen, log
  // still claiming to be healthy (an honest stall is reason (d)'s job).
  {
    const uint64_t durable = db_->log().DurableOffset();
    const uint64_t complete = db_->log().CompleteUntil();
    if (durable != seen_durable_ || complete <= durable) {
      seen_durable_ = durable;
      durable_since_ = Clock::now();
      armed_[1] = true;
    } else if (db_->log().health() == LogHealth::kHealthy &&
               GraceElapsed(durable_since_)) {
      fire(1, Reason::kFlusherStalled, durable);
    }
  }

  // (b) Epoch reclaim boundary pinned while the open epoch keeps advancing:
  // the signature of a straggler that entered and never exited.
  {
    const uint64_t boundary = db_->gc_epoch().ReclaimBoundary();
    const uint64_t epoch = db_->gc_epoch().current();
    if (boundary != seen_boundary_) {
      seen_boundary_ = boundary;
      boundary_epoch_ = epoch;
      boundary_since_ = Clock::now();
      armed_[2] = true;
    } else if (epoch >= boundary_epoch_ + 2 && GraceElapsed(boundary_since_)) {
      fire(2, Reason::kEpochStuck, boundary);
    }
  }

  // (c) Safe-snapshot horizon frozen while the log tail advances. The
  // snapshot lags by design, so judge it over twice the grace period.
  {
    const uint64_t snap = db_->safe_snapshot_offset();
    const uint64_t tail = db_->log().CurrentOffset();
    if (snap != seen_safesnap_) {
      seen_safesnap_ = snap;
      safesnap_tail_ = tail;
      safesnap_since_ = Clock::now();
      armed_[3] = true;
    } else if (tail > safesnap_tail_ && GraceElapsed(safesnap_since_, 2)) {
      fire(3, Reason::kSafeSnapshotStuck, snap);
    }
  }

  // (d) Log degraded past the grace period (stall that never resolved, or a
  // sticky poison the operator should notice).
  {
    const LogHealth health = db_->log().health();
    if (health == LogHealth::kHealthy) {
      was_degraded_ = false;
      armed_[4] = true;
    } else {
      if (!was_degraded_) {
        was_degraded_ = true;
        degraded_since_ = Clock::now();
      }
      if (GraceElapsed(degraded_since_)) {
        fire(4, Reason::kLogDegraded, static_cast<uint64_t>(health));
      }
    }
  }
  return tripped;
}

void Watchdog::Trip(Reason reason, uint64_t detail) {
  trips_.fetch_add(1, std::memory_order_relaxed);
  last_reason_.store(static_cast<uint32_t>(reason), std::memory_order_relaxed);
  db_->metrics().Inc(metrics::Ctr::kWatchdogTrips);
  if (ERMIA_UNLIKELY(trace::Active())) {
    trace::Emit(trace::Event::kWatchdogTrip, 0,
                static_cast<uint64_t>(reason), detail);
  }
  std::fprintf(stderr,
               "ermia: watchdog trip: %s (detail=%llu, durable=%llu, "
               "tail=%llu)\n",
               WatchdogReasonName(reason),
               static_cast<unsigned long long>(detail),
               static_cast<unsigned long long>(db_->log().DurableOffset()),
               static_cast<unsigned long long>(db_->log().CurrentOffset()));
  const std::string& dir = db_->config().watchdog_dump_dir;
  if (dir.empty()) return;
  // Post-mortem bundle: flight-recorder rings + a full metrics snapshot.
  // Best effort — the watchdog must never take the engine down.
  (void)db_->DumpTrace(dir + "/watchdog_trace.bin");
  std::ofstream out(dir + "/watchdog_metrics.json", std::ios::trunc);
  if (out.is_open()) out << db_->SnapshotMetrics().ToJson() << "\n";
}

}  // namespace ermia
