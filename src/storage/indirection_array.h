// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Latch-free indirection array (paper §3.2): maps OIDs to version-chain
// heads. Installing a new version is a single CAS on the slot; allocating an
// OID is a fetch_add (plus an optional free list fed by the garbage
// collector). Storage grows by chunks published with CAS so readers never
// take a latch and existing slots never move.
#ifndef ERMIA_STORAGE_INDIRECTION_ARRAY_H_
#define ERMIA_STORAGE_INDIRECTION_ARRAY_H_

#include <atomic>

#include "common/macros.h"
#include "common/treiber_stack.h"
#include "log/log_record.h"
#include "storage/version.h"

namespace ermia {

class IndirectionArray {
 public:
  IndirectionArray();
  ~IndirectionArray();
  ERMIA_NO_COPY(IndirectionArray);

  // Allocates a fresh OID (contention-free: fetch_add or private free list).
  Oid Allocate();

  // Returns an OID to the free list (garbage collector only, once no index
  // entry references it).
  void Free(Oid oid);

  // Head of the version chain; nullptr if never installed or fully removed.
  Version* Head(Oid oid) const {
    const std::atomic<Version*>* slot = SlotIfExists(oid);
    return slot ? slot->load(std::memory_order_acquire) : nullptr;
  }

  // Starts fetching oid's slot, so that a batch of reads overlaps its slot
  // misses (Transaction::MultiGet).
  void PrefetchSlot(Oid oid) const {
    if (const std::atomic<Version*>* slot = SlotIfExists(oid)) {
      __builtin_prefetch(slot);
    }
  }

  // Installs `desired` iff the head is still `expected` (update path: the
  // single CAS that makes multi-versioning cheap).
  bool CasHead(Oid oid, Version* expected, Version* desired) {
    return Slot(oid)->compare_exchange_strong(expected, desired,
                                              std::memory_order_acq_rel);
  }

  // Unconditional install (insert path: the OID is private to the inserter).
  void PutHead(Oid oid, Version* v) {
    Slot(oid)->store(v, std::memory_order_release);
  }

  // Raw slot access for CC protocols that need the address (OCC validation).
  std::atomic<Version*>* Slot(Oid oid);

  // One past the largest OID ever allocated.
  Oid HighWaterMark() const {
    return next_oid_.load(std::memory_order_acquire);
  }

  // Recovery: make sure `oid` is addressable and bump the allocator past it.
  void EnsureAllocatedThrough(Oid oid);

  // Slots per chunk: one 2 MiB huge-page region (common/huge_pages.h).
  static constexpr uint32_t kChunkBits = 18;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr uint32_t kMaxChunks = 1024;  // 256M OIDs

 private:

  const std::atomic<Version*>* SlotIfExists(Oid oid) const;
  std::atomic<Version*>* EnsureChunk(uint32_t chunk_idx);

  std::atomic<std::atomic<Version*>*> chunks_[kMaxChunks];
  std::atomic<Oid> next_oid_{1};  // OID 0 is invalid

  // Lock-free OID recycling (Treiber stack): allocation never takes a latch
  // even when it hits the free list.
  TreiberStack<Oid> free_list_;
};

}  // namespace ermia

#endif  // ERMIA_STORAGE_INDIRECTION_ARRAY_H_
