#include "epoch/epoch_manager.h"

#include <algorithm>

#include "trace/trace.h"

namespace ermia {

EpochManager::EpochManager() = default;

EpochManager::~EpochManager() {
  // Best effort: run anything still deferred. Threads are gone by now.
  for (auto& d : deferred_) d.cleanup();
}

Epoch EpochManager::Enter() {
  const uint32_t id = ThreadRegistry::MyId();
  ThreadState& ts = threads_[id];
  ERMIA_DCHECK(!ts.active.load(std::memory_order_relaxed));
  // Publish the entered epoch before the active flag so a reclaimer that
  // observes active==true also observes a valid entered epoch.
  for (;;) {
    const Epoch e = epoch_.load(std::memory_order_acquire);
    ts.entered.store(e, std::memory_order_relaxed);
    ts.active.store(true, std::memory_order_seq_cst);
    // Re-check: if the epoch advanced between the load and the store we may
    // have registered in a stale epoch. That is still safe (we only ever
    // under-report our epoch, which delays reclamation), but refresh once to
    // keep the boundary tight.
    const Epoch now = epoch_.load(std::memory_order_seq_cst);
    if (ERMIA_LIKELY(now == e)) return e;
    ts.entered.store(now, std::memory_order_seq_cst);
    return now;
  }
}

void EpochManager::Exit() {
  ThreadState& ts = threads_[ThreadRegistry::MyId()];
  ERMIA_DCHECK(ts.active.load(std::memory_order_relaxed));
  ts.active.store(false, std::memory_order_release);
}

bool EpochManager::Quiesce() {
  ThreadState& ts = threads_[ThreadRegistry::MyId()];
  const Epoch open = epoch_.load(std::memory_order_acquire);
  if (ERMIA_LIKELY(ts.entered.load(std::memory_order_relaxed) == open)) {
    // Fast path: epoch is not trying to close under us; announcement is
    // uninteresting and costs one shared read.
    return false;
  }
  // Migrate: momentarily quiescent, then active in the open epoch.
  ts.active.store(false, std::memory_order_release);
  ts.entered.store(open, std::memory_order_relaxed);
  ts.active.store(true, std::memory_order_seq_cst);
  return true;
}

Epoch EpochManager::ReclaimBoundary() const {
  Epoch min_entered = epoch_.load(std::memory_order_seq_cst);
  const uint32_t hwm = ThreadRegistry::HighWaterMark();
  for (uint32_t i = 0; i < hwm; ++i) {
    const ThreadState& ts = threads_[i];
    if (ts.active.load(std::memory_order_seq_cst)) {
      min_entered =
          std::min(min_entered, ts.entered.load(std::memory_order_seq_cst));
    }
  }
  return min_entered - 1;
}

Epoch EpochManager::Advance() {
  if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kEpochAdvances);
  const Epoch e = epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (ERMIA_UNLIKELY(trace::Active())) {
    trace::Emit(trace::Event::kEpochAdvance, 0, e, 0);
  }
  return e;
}

void EpochManager::Defer(std::function<void()> cleanup) {
  const Epoch e = epoch_.load(std::memory_order_acquire);
  if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kEpochDeferredEnqueued);
  SpinLatchGuard g(deferred_latch_);
  deferred_.push_back({e, std::move(cleanup)});
}

size_t EpochManager::RunReclaimers() {
  const Epoch boundary = ReclaimBoundary();
  std::vector<Deferred> ready;
  size_t still_pending = 0;
  {
    SpinLatchGuard g(deferred_latch_);
    auto split = std::partition(
        deferred_.begin(), deferred_.end(),
        [boundary](const Deferred& d) { return d.retired > boundary; });
    ready.assign(std::make_move_iterator(split),
                 std::make_move_iterator(deferred_.end()));
    deferred_.erase(split, deferred_.end());
    still_pending = deferred_.size();
  }
  for (auto& d : ready) d.cleanup();
  if (metrics_ != nullptr) {
    if (!ready.empty()) {
      metrics_->Inc(metrics::Ctr::kEpochDeferredExecuted, ready.size());
      metrics_->Observe(metrics::Hist::kEpochReclaimBatch, ready.size());
    } else if (still_pending > 0) {
      // Work is queued but a straggler (an active thread still in an old
      // epoch) holds the reclaim boundary back.
      metrics_->Inc(metrics::Ctr::kEpochStragglerStalls);
    }
  }
  return ready.size();
}

uint32_t EpochManager::ActiveThreads() const {
  uint32_t n = 0;
  const uint32_t hwm = ThreadRegistry::HighWaterMark();
  for (uint32_t i = 0; i < hwm; ++i) {
    if (threads_[i].active.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

}  // namespace ermia
