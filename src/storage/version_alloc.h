// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Epoch-integrated thread-local version allocator (paper §3.2/§3.4: the
// version-install hot path must never touch a global allocator; reclamation
// rides the epoch managers that already exist for exactly this purpose).
//
// Design:
//  * Size classes. Payload-carrying blocks are rounded up to one of
//    kNumClasses sizes between 64 B and 8 KiB (fine 32 B steps while blocks
//    are small, coarser steps above). Larger blocks fall back to malloc and
//    are tagged kMallocClass so Free() always routes by provenance.
//  * Thread-local caches. Each thread owns one freelist per class plus a bump
//    pointer into a large slab chunk. Allocation is: pop the freelist, else
//    splice a batch from the global transfer cache, else carve from the slab.
//    No latch, no RMW on any shared line in the steady state.
//  * Epoch-deferred recycling. A version unlinked from a chain may still be
//    traversed by concurrent readers until the reclamation epoch closes, so
//    FreeDeferred() records the block out-of-band in the freeing thread's
//    limbo — the block's bytes are NOT touched — tagged with the current
//    epoch. Limbo is one FIFO per epoch manager, filled in epoch order, so
//    a periodic harvest pops the prefix whose epoch has fallen at or below
//    the manager's ReclaimBoundary() onto the freelists, at a cost of the
//    entries it reclaims (only then is the first word reused as the
//    freelist link). Free() without an epoch is reserved for versions that
//    were never published to a chain.
//  * ASan poisoning. A block is poisoned whole when it joins a freelist and
//    unpoisoned for exactly the requested bytes when handed out, so in an
//    ASan build a read of a reclaimed version, or a write into a class's
//    slack, faults at the access. Limbo blocks stay unpoisoned: readers may
//    still walk them. Outside ASan builds the poisoning compiles to nothing.
//  * Transfer cache. Freelist overflow (e.g. the GC pass reclaiming whole
//    chains) is flushed to a per-class lock-free Treiber stack in batches of
//    kTransferBatch intrusively linked blocks; worker threads splice batches
//    back on a freelist miss. Memory freed by the GC pass thus flows back
//    to workers without a lock and without crossing malloc.
//  * Epoch-manager registry. Databases attach their gc epoch manager at
//    construction and detach before destruction. Limbo entries name their
//    manager by (slot, generation); a harvest that finds the generation
//    changed knows the manager is gone — every thread it protected has
//    quiesced — and reclaims immediately instead of dereferencing a dangling
//    manager.
//
// The allocator is a process-wide singleton (versions can outlive a Database
// across tests in one process; blocks are recycled by provenance). Slab
// chunks are never returned to the OS; their blocks are reused for the
// process lifetime.
#ifndef ERMIA_STORAGE_VERSION_ALLOC_H_
#define ERMIA_STORAGE_VERSION_ALLOC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/huge_pages.h"
#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/treiber_stack.h"

namespace ermia {

class EpochManager;

class VersionAllocator {
 public:
  // Provenance tag of blocks that came straight from malloc.
  static constexpr uint8_t kMallocClass = 0xFF;
  static constexpr size_t kNumClasses = 27;
  // Largest slab-served block (sizeof(Version) + payload).
  static constexpr size_t kMaxBlockBytes = 8192;
  static constexpr size_t kChunkBytes = kHugePageSize;  // one slab chunk
  // Blocks per transfer-cache batch (intrusively linked; the batch head
  // doubles as the Treiber node payload).
  static constexpr uint32_t kTransferBatch = 32;
  // Freelist length that triggers a batch flush to the transfer cache.
  static constexpr uint32_t kFreelistHighWater = 4 * kTransferBatch;
  // Deferred frees between harvest attempts on the owning thread.
  static constexpr uint32_t kHarvestPeriod = 64;
  static constexpr uint32_t kMaxEpochSlots = 8;

  static VersionAllocator& Instance();

  // Returns at least `bytes` of uninitialized storage and tags *cls with the
  // provenance byte the caller must keep for Free/FreeDeferred.
  void* Allocate(size_t bytes, uint8_t* cls);

  // Immediate recycle. Only legal for blocks that were never reachable by
  // other threads (aborted OCC intents, transaction-private scratch):
  // published blocks must go through FreeDeferred.
  void Free(void* block, uint8_t cls);

  // Epoch-deferred recycle: the block joins the calling thread's limbo
  // tagged with mgr's current epoch and becomes allocatable only once that
  // epoch is at or below mgr->ReclaimBoundary(). The block's contents are
  // not touched until then (in-flight readers may still traverse it).
  void FreeDeferred(void* block, uint8_t cls, EpochManager* mgr);

  // Registry of epoch managers limbo entries may reference. Attach at
  // Database construction, detach before the manager is destroyed; detach
  // makes every limbo entry naming the manager immediately reclaimable.
  void AttachEpoch(EpochManager* mgr);
  void DetachEpoch(EpochManager* mgr);

  struct Stats {
    uint64_t slab_bytes = 0;        // chunk memory ever carved (gauge)
    uint64_t freelist_hits = 0;     // allocations served by a local freelist
    uint64_t slab_carves = 0;       // allocations served by bump carving
    uint64_t transfer_pushes = 0;   // batches flushed to the transfer cache
    uint64_t transfer_pops = 0;     // batches spliced from the transfer cache
    uint64_t malloc_fallbacks = 0;  // blocks too big for a class
    uint64_t deferred_frees = 0;    // FreeDeferred calls
    uint64_t limbo_recycled = 0;    // limbo entries harvested to freelists
    uint64_t immediate_frees = 0;   // Free calls on slab blocks
    uint64_t limbo_size = 0;        // entries currently awaiting their epoch
  };
  Stats Snapshot() const;

  static size_t ClassBytes(uint8_t cls);
  // kMallocClass when bytes exceeds kMaxBlockBytes.
  static uint8_t ClassFor(size_t bytes);

  // ---- test hooks ----
  // Forces a harvest of the calling thread's limbo; returns entries moved to
  // freelists.
  size_t HarvestThisThread();
  // Pushes the calling thread's freelists to the transfer cache.
  void FlushThisThread();

 private:
  struct ThreadCache;

  VersionAllocator();
  ~VersionAllocator() = delete;  // intentionally immortal

  ThreadCache* Cache();
  void RetireCache(ThreadCache* c);
  void FreeDeferredViaManager(void* block, uint8_t cls, EpochManager* mgr);
  void* PopLocal(ThreadCache* c, uint8_t cls);
  void PushLocal(ThreadCache* c, uint8_t cls, void* block);
  void FlushBatch(ThreadCache* c, uint8_t cls);
  void FlushFreelists(ThreadCache* c);
  bool SpliceFromTransfer(ThreadCache* c, uint8_t cls);
  void* CarveFromSlab(ThreadCache* c, uint8_t cls);
  size_t Harvest(ThreadCache* c);
  void DrainOrphansInto(ThreadCache* c);

  friend struct VersionAllocatorTls;

  // Per-class lock-free batch stacks (the transfer cache).
  TreiberStack<void*> transfer_[kNumClasses];

  // Epoch-manager registry. Slots are written under epoch_latch_; readers
  // (FreeDeferred's slot lookup) use acquire loads only.
  struct EpochSlot {
    std::atomic<EpochManager*> mgr{nullptr};
    std::atomic<uint32_t> gen{0};
  };
  mutable SpinLatch epoch_latch_;
  EpochSlot epoch_slots_[kMaxEpochSlots];

  // Thread-cache registry, retired-thread limbo, and stats folded from
  // exited threads — all cold-path, one latch.
  mutable SpinLatch caches_latch_;
  ThreadCache* caches_head_ = nullptr;
  struct OrphanEntry;
  std::vector<OrphanEntry>* orphans_;
  std::atomic<uint64_t> orphan_count_{0};
  std::atomic<uint64_t> slab_bytes_{0};
  Stats folded_;
};

}  // namespace ermia

#endif  // ERMIA_STORAGE_VERSION_ALLOC_H_
