#include "storage/gc.h"

#include <vector>

#include "trace/trace.h"

namespace ermia {

GarbageCollector::GarbageCollector(EpochManager* gc_epoch,
                                   std::function<uint64_t()> oldest_active,
                                   metrics::EngineMetrics* metrics)
    : gc_epoch_(gc_epoch),
      oldest_active_(std::move(oldest_active)),
      metrics_(metrics) {}

void GarbageCollector::NotifyUpdate(Table* table, Oid oid) {
  Shard& shard = shards_[ThreadRegistry::MyId() % kMaxThreads];
  SpinLatchGuard g(shard.latch);
  shard.queue.push_back({table, oid});
}

size_t GarbageCollector::RunOnce() {
  // Pin the epoch for the whole pass: the chain walk reads versions that a
  // concurrent worker may recycle once the limbo boundary passes their
  // retirement epoch. The pass must not rely on which thread advances the
  // epoch (the maintenance loop does, and so may any caller of Advance), so
  // it registers like any other reader. Conditional because tests drive
  // RunOnce from threads that already hold a pin.
  const bool pin = !gc_epoch_->InEpoch();
  if (pin) gc_epoch_->Enter();
  const bool traced = trace::Active();
  if (ERMIA_UNLIKELY(traced)) {
    trace::Emit(trace::Event::kGcPassBegin, 0, 0, 0);
  }
  const uint64_t boundary = oldest_active_();
  std::deque<Item> batch;
  for (Shard& shard : shards_) {
    SpinLatchGuard g(shard.latch);
    if (shard.queue.empty()) continue;
    if (batch.empty()) {
      batch.swap(shard.queue);
    } else {
      batch.insert(batch.end(), shard.queue.begin(), shard.queue.end());
      shard.queue.clear();
    }
  }
  // A hot record is queued once per update, and each walk passes every
  // version committed since the pass began. Walked once per entry, a hot
  // chain costs time quadratic in the updates per pass, and a slow pass lets
  // more queue until it never ends. A direct-mapped filter of the records
  // this pass walked skips the repeats in one probe per entry, keeping the
  // queue order. A repeat whose slot another record took in between is
  // walked again: harmless, and rare for a record hot enough to matter.
  constexpr int kFilterBits = 12;
  std::vector<uint64_t> walked(size_t{1} << kFilterBits, ~uint64_t{0});
  size_t reclaimed = 0;
  for (const Item& item : batch) {
    const uint64_t id =
        static_cast<uint64_t>(item.table->fid()) << 32 | item.oid;
    // Fibonacci hashing over the combined id, as in RecordLockTable.
    uint64_t& slot =
        walked[(id * 0x9E3779B97F4A7C15ull) >> (64 - kFilterBits)];
    if (slot == id) continue;
    slot = id;
    Version* head = item.table->array().Head(item.oid);
    if (head == nullptr) continue;
    // Find the newest version whose stamp is a committed LSN strictly below
    // the boundary: visibility is `clsn < begin`, so this is the version the
    // oldest active snapshot (begin == boundary) reads; everything older is
    // unreachable to every current and future transaction.
    Version* keep = head;
    uint64_t chain_len = 0;
    bool found_boundary_version = false;
    while (keep != nullptr) {
      ++chain_len;
      const uint64_t s = keep->clsn.load(std::memory_order_acquire);
      if (!IsTidStamp(s) && StampOffset(s) < boundary) {
        found_boundary_version = true;
        break;
      }
      keep = keep->next.load(std::memory_order_acquire);
    }
    if (metrics_ != nullptr) {
      metrics_->Observe(metrics::Hist::kGcChainLength, chain_len);
    }
    if (!found_boundary_version || keep == nullptr) {
      // Every version is still reachable (or TID-stamped): the chain stays
      // untouched until a later pass.
      if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kGcItemsDeferred);
      continue;
    }
    Version* dead = keep->next.exchange(nullptr, std::memory_order_acq_rel);
    if (dead == nullptr) {
      // Chain already fully trimmed; if newer uncommitted/recent versions
      // exist the record will be re-enqueued by its next update anyway.
      continue;
    }
    // Walk once, handing each version to the allocator's epoch-integrated
    // limbo (FreeDeferred does not touch the version's bytes — in-flight
    // readers may still traverse the unlinked chain — so reading `next`
    // after the call would also be safe; reading it before is clearer).
    for (Version* v = dead; v != nullptr;) {
      Version* next = v->next.load(std::memory_order_relaxed);
      Version::FreeDeferred(gc_epoch_, v);
      ++reclaimed;
      v = next;
    }
  }
  if (metrics_ != nullptr) {
    metrics_->Inc(metrics::Ctr::kGcPasses);
    if (reclaimed > 0) {
      metrics_->Inc(metrics::Ctr::kGcVersionsReclaimed, reclaimed);
    }
  }
  if (ERMIA_UNLIKELY(traced)) {
    trace::Emit(trace::Event::kGcPassEnd, 0, reclaimed, 0);
  }
  if (pin) gc_epoch_->Exit();
  return reclaimed;
}

}  // namespace ermia
