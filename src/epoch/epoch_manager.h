// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Three-epoch resource manager (paper §3.4). The paper runs several of these
// at different timescales; this engine needs one, Database::gc_epoch_, which
// guards the reclamation of dead versions. B+-tree nodes and indirection
// chunks live as long as their structure, TID slots detect reuse with
// generation counts, and segment files are never reused, so nothing needs
// the other timescales.
//
// Semantics. A monotonically increasing global epoch E is "open"; E-1 is
// "closing"; epochs <= E-2 are "closed". A thread Enter()s an epoch, may
// Quiesce() cheaply (a single shared read when the epoch is not trying to
// close — the paper's conditional quiescent point), and Exit()s when it holds
// no references. A resource retired in epoch e may be reclaimed once every
// registered thread has quiesced past e, i.e. once e <= ReclaimBoundary().
// The third ("closing") epoch exists so that busy threads — which quiesce
// often — migrate to the open epoch on their own and are never flagged as
// stragglers; only true stragglers hold the boundary back.
#ifndef ERMIA_EPOCH_EPOCH_MANAGER_H_
#define ERMIA_EPOCH_EPOCH_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/sysconf.h"
#include "metrics/metrics.h"

namespace ermia {

using Epoch = uint64_t;

class EpochManager {
 public:
  EpochManager();
  ~EpochManager();
  ERMIA_NO_COPY(EpochManager);

  // Marks the calling thread active in the current open epoch and returns it.
  // Must be balanced with Exit(). Nested Enter() calls are not supported; use
  // Quiesce() to refresh an existing registration.
  Epoch Enter();

  // Marks the calling thread quiescent (holds no managed references).
  void Exit();

  // Conditional quiescent point: if the thread's epoch is still the open one
  // this is a single shared load; otherwise the thread migrates to the open
  // epoch (equivalent to Exit+Enter, still lock-free). Returns true if the
  // thread migrated. The caller must not hold references across this call.
  bool Quiesce();

  // True if the calling thread currently holds an epoch pin (Enter without a
  // matching Exit). Lets nested code pin conditionally instead of
  // double-entering.
  bool InEpoch() const {
    return threads_[ThreadRegistry::MyId()].active.load(
        std::memory_order_relaxed);
  }

  // Current open epoch.
  Epoch current() const { return epoch_.load(std::memory_order_acquire); }

  // Largest epoch e such that no active thread can still hold references to
  // resources retired in any epoch <= e. (min(entered) over active threads,
  // else current) minus one.
  Epoch ReclaimBoundary() const;

  // Advances the open epoch by one: the previous open epoch becomes
  // "closing", the one before that "closed". Callers (a daemon or worker
  // threads at commit points) drive this; advancing is always safe.
  Epoch Advance();

  // Schedules `cleanup` to run once the *current* epoch is reclaimable.
  // Cleanup runs inside RunReclaimers() on whichever thread calls it.
  void Defer(std::function<void()> cleanup);

  // Runs all pending cleanups whose retirement epoch is reclaimable; returns
  // how many ran. Typically called by a background daemon right after
  // Advance(), and by tests.
  size_t RunReclaimers();

  // Number of threads currently marked active (diagnostics/tests).
  uint32_t ActiveThreads() const;

  // Optional telemetry sink (nullable; set once at engine construction,
  // before any daemon runs).
  void set_metrics(metrics::EngineMetrics* m) { metrics_ = m; }

 private:
  struct alignas(kCacheLineSize) ThreadState {
    std::atomic<Epoch> entered{0};
    std::atomic<bool> active{false};
  };

  struct Deferred {
    Epoch retired;
    std::function<void()> cleanup;
  };

  ThreadState threads_[kMaxThreads];
  std::atomic<Epoch> epoch_{2};  // start >= 2 so boundary never underflows
  metrics::EngineMetrics* metrics_ = nullptr;

  SpinLatch deferred_latch_;
  std::vector<Deferred> deferred_;
};

// RAII guard for code regions that hold epoch-protected references.
class EpochGuard {
 public:
  explicit EpochGuard(EpochManager& mgr) : mgr_(mgr) { mgr_.Enter(); }
  ~EpochGuard() { mgr_.Exit(); }
  ERMIA_NO_COPY(EpochGuard);

 private:
  EpochManager& mgr_;
};

}  // namespace ermia

#endif  // ERMIA_EPOCH_EPOCH_MANAGER_H_
