#include "storage/version_alloc.h"

#include <cstdlib>
#include <cstring>

#include "epoch/epoch_manager.h"

namespace ermia {

namespace {

constexpr uint8_t kPoisonByte = 0xEF;
// Marks a freelist block as poisoned (word [8,16) of the block; the freelist
// link itself only uses [0,8)). Batch heads overwrite this word with their
// batch count, which can never equal the magic, so spliced batch heads are
// simply skipped by verification.
constexpr uint64_t kPoisonMagic = 0xA110CEDEADBEEF01ull;

// Size-class table. Fine 32 B steps while blocks are small (most versions are
// a 56 B header plus a short payload), coarser steps above — 27 classes from
// 64 B to 8 KiB, worst-case internal fragmentation ~14%.
struct SizeTable {
  uint16_t bytes[VersionAllocator::kNumClasses];
  // quantum = ceil(size / 32); maps to the smallest class that fits.
  uint8_t cls_for_quantum[VersionAllocator::kMaxBlockBytes / 32 + 1];

  SizeTable() {
    size_t n = 0;
    for (size_t s = 64; s <= 256; s += 32) bytes[n++] = s;    // 7
    for (size_t s = 320; s <= 512; s += 64) bytes[n++] = s;   // 4
    for (size_t s = 640; s <= 1024; s += 128) bytes[n++] = s; // 4
    for (size_t s = 1280; s <= 2048; s += 256) bytes[n++] = s;
    for (size_t s = 2560; s <= 4096; s += 512) bytes[n++] = s;
    for (size_t s = 5120; s <= 8192; s += 1024) bytes[n++] = s;
    ERMIA_CHECK(n == VersionAllocator::kNumClasses);
    uint8_t cls = 0;
    for (size_t q = 0; q <= VersionAllocator::kMaxBlockBytes / 32; ++q) {
      while (q * 32 > bytes[cls]) ++cls;
      cls_for_quantum[q] = cls;
    }
  }
};

const SizeTable& Sizes() {
  static const SizeTable table;
  return table;
}

uint64_t ReadWord(void* block, size_t off) {
  uint64_t w;
  std::memcpy(&w, static_cast<char*>(block) + off, sizeof w);
  return w;
}

void WriteWord(void* block, size_t off, uint64_t w) {
  std::memcpy(static_cast<char*>(block) + off, &w, sizeof w);
}

void* ReadLink(void* block) {
  void* p;
  std::memcpy(&p, block, sizeof p);
  return p;
}

void WriteLink(void* block, void* next) {
  std::memcpy(block, &next, sizeof next);
}

}  // namespace

size_t VersionAllocator::ClassBytes(uint8_t cls) {
  ERMIA_DCHECK(cls < kNumClasses);
  return Sizes().bytes[cls];
}

uint8_t VersionAllocator::ClassFor(size_t bytes) {
  if (bytes > kMaxBlockBytes) return kMallocClass;
  const size_t q = (bytes + 31) / 32;
  return Sizes().cls_for_quantum[q];
}

// A block a thread freed under an open epoch: the memory itself is not
// touched (readers may still traverse the unlinked version) — all bookkeeping
// lives in this out-of-band record until the harvest proves the epoch closed.
struct LimboEntry {
  void* block;
  EpochManager* mgr;  // compared against the slot, never dereferenced stale
  uint64_t epoch;     // mgr->current() at free time
  uint32_t slot;      // epoch_slots_ index claimed to host mgr
  uint32_t gen;       // slot generation at free time
  uint8_t cls;
};

struct VersionAllocator::OrphanEntry : LimboEntry {};

struct VersionAllocator::ThreadCache {
  void* free_head[kNumClasses] = {};
  uint32_t free_count[kNumClasses] = {};
  std::vector<LimboEntry> limbo;
  // Mirrors limbo.size() for cross-thread stat reads (the vector itself is
  // owner-mutated without a latch).
  std::atomic<uint64_t> limbo_count{0};
  uint32_t deferred_since_harvest = 0;
  char* slab_pos = nullptr;
  char* slab_end = nullptr;
  ThreadCache* next = nullptr;

  // Single-writer counters: the owner bumps with relaxed load+store, the
  // stats snapshot sums with relaxed loads.
  struct Counters {
    std::atomic<uint64_t> freelist_hits{0};
    std::atomic<uint64_t> slab_carves{0};
    std::atomic<uint64_t> transfer_pushes{0};
    std::atomic<uint64_t> transfer_pops{0};
    std::atomic<uint64_t> malloc_fallbacks{0};
    std::atomic<uint64_t> deferred_frees{0};
    std::atomic<uint64_t> limbo_recycled{0};
    std::atomic<uint64_t> immediate_frees{0};
  } stats;
};

namespace {
void Bump(std::atomic<uint64_t>& c, uint64_t by = 1) {
  c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}
}  // namespace

// TLS holder: retires the cache on thread exit (freelists to the transfer
// cache, unexpired limbo to the orphan list, stats folded).
struct VersionAllocatorTls {
  VersionAllocator::ThreadCache* cache = nullptr;
  ~VersionAllocatorTls() {
    if (cache != nullptr) {
      VersionAllocator::Instance().RetireCache(cache);
      cache = nullptr;
    }
  }
};

namespace {
thread_local VersionAllocatorTls tls_cache;
}  // namespace

VersionAllocator::VersionAllocator()
    : orphans_(new std::vector<OrphanEntry>()) {}

VersionAllocator& VersionAllocator::Instance() {
  // Intentionally leaked: worker TLS destructors (and tests that keep
  // versions across Database lifetimes) may touch the allocator during
  // process teardown, after static destructors would have run.
  static VersionAllocator* inst = new VersionAllocator();
  return *inst;
}

VersionAllocator::ThreadCache* VersionAllocator::Cache() {
  ThreadCache* c = tls_cache.cache;
  if (ERMIA_LIKELY(c != nullptr)) return c;
  c = new ThreadCache();
  {
    SpinLatchGuard g(caches_latch_);
    c->next = caches_head_;
    caches_head_ = c;
  }
  tls_cache.cache = c;
  return c;
}

void VersionAllocator::RetireCache(ThreadCache* c) {
  // Freelists go to the transfer cache (full batches, then a remainder
  // batch) so another thread can reuse the memory.
  for (uint8_t cls = 0; cls < kNumClasses; ++cls) {
    while (c->free_count[cls] >= kTransferBatch) FlushBatch(c, cls);
    if (c->free_count[cls] > 0) {
      void* head = c->free_head[cls];
      WriteWord(head, 8, c->free_count[cls]);
      transfer_[cls].Push(head);
      c->free_head[cls] = nullptr;
      c->free_count[cls] = 0;
    }
  }
  SpinLatchGuard g(caches_latch_);
  // Unexpired limbo entries outlive the thread on the orphan list; they are
  // adopted by whichever thread harvests next.
  for (const LimboEntry& e : c->limbo) {
    orphans_->push_back(OrphanEntry{e});
  }
  orphan_count_.store(orphans_->size(), std::memory_order_release);
  const auto& s = c->stats;
  folded_.freelist_hits += s.freelist_hits.load(std::memory_order_relaxed);
  folded_.slab_carves += s.slab_carves.load(std::memory_order_relaxed);
  folded_.transfer_pushes +=
      s.transfer_pushes.load(std::memory_order_relaxed);
  folded_.transfer_pops += s.transfer_pops.load(std::memory_order_relaxed);
  folded_.malloc_fallbacks +=
      s.malloc_fallbacks.load(std::memory_order_relaxed);
  folded_.deferred_frees += s.deferred_frees.load(std::memory_order_relaxed);
  folded_.limbo_recycled += s.limbo_recycled.load(std::memory_order_relaxed);
  folded_.immediate_frees +=
      s.immediate_frees.load(std::memory_order_relaxed);
  ThreadCache** pp = &caches_head_;
  while (*pp != nullptr && *pp != c) pp = &(*pp)->next;
  if (*pp == c) *pp = c->next;
  delete c;
}

void VersionAllocator::ApplyPoison(void* block, uint8_t cls) {
  const size_t csize = ClassBytes(cls);
  if (csize <= 16) return;
  std::memset(static_cast<char*>(block) + 16, kPoisonByte, csize - 16);
  WriteWord(block, 8, kPoisonMagic);
}

void VersionAllocator::VerifyPoison(void* block, uint8_t cls) {
  if (ReadWord(block, 8) != kPoisonMagic) return;  // not poisoned (or batch head)
  const size_t csize = ClassBytes(cls);
  const unsigned char* p = static_cast<unsigned char*>(block);
  for (size_t i = 16; i < csize; ++i) {
    ERMIA_CHECK(p[i] == kPoisonByte);  // something wrote to a reclaimed block
  }
  WriteWord(block, 8, 0);
}

void* VersionAllocator::PopLocal(ThreadCache* c, uint8_t cls) {
  void* b = c->free_head[cls];
  if (b == nullptr) return nullptr;
  c->free_head[cls] = ReadLink(b);
  --c->free_count[cls];
  if (ERMIA_UNLIKELY(poison_.load(std::memory_order_acquire))) {
    VerifyPoison(b, cls);
  }
  return b;
}

void VersionAllocator::PushLocal(ThreadCache* c, uint8_t cls, void* block) {
  if (ERMIA_UNLIKELY(poison_.load(std::memory_order_acquire))) {
    ApplyPoison(block, cls);
  }
  WriteLink(block, c->free_head[cls]);
  c->free_head[cls] = block;
  if (++c->free_count[cls] > kFreelistHighWater) FlushBatch(c, cls);
}

void VersionAllocator::FlushBatch(ThreadCache* c, uint8_t cls) {
  ERMIA_DCHECK(c->free_count[cls] >= kTransferBatch);
  void* head = c->free_head[cls];
  void* tail = head;
  for (uint32_t i = 1; i < kTransferBatch; ++i) tail = ReadLink(tail);
  c->free_head[cls] = ReadLink(tail);
  c->free_count[cls] -= kTransferBatch;
  WriteLink(tail, nullptr);
  WriteWord(head, 8, kTransferBatch);  // batch count rides in the head block
  transfer_[cls].Push(head);
  Bump(c->stats.transfer_pushes);
}

bool VersionAllocator::SpliceFromTransfer(ThreadCache* c, uint8_t cls) {
  void* head = nullptr;
  if (!transfer_[cls].Pop(&head)) return false;
  const uint64_t count = ReadWord(head, 8);
  ERMIA_DCHECK(count >= 1 && count <= kFreelistHighWater);
  void* tail = head;
  for (uint64_t i = 1; i < count; ++i) tail = ReadLink(tail);
  WriteLink(tail, c->free_head[cls]);
  c->free_head[cls] = head;
  c->free_count[cls] += static_cast<uint32_t>(count);
  Bump(c->stats.transfer_pops);
  return true;
}

void* VersionAllocator::CarveFromSlab(ThreadCache* c, uint8_t cls) {
  const size_t csize = ClassBytes(cls);
  if (static_cast<size_t>(c->slab_end - c->slab_pos) < csize) {
    // The chunk remainder (< one max-class block) is abandoned; chunks are
    // never unmapped.
    char* chunk = static_cast<char*>(MapHugeRegion(kChunkBytes));
    slab_bytes_.fetch_add(kChunkBytes, std::memory_order_relaxed);
    c->slab_pos = chunk;
    c->slab_end = chunk + kChunkBytes;
  }
  void* b = c->slab_pos;
  c->slab_pos += csize;
  Bump(c->stats.slab_carves);
  return b;
}

void* VersionAllocator::Allocate(size_t bytes, uint8_t* cls) {
  if (mode() == VersionAllocMode::kMalloc) {
    *cls = kMallocClass;
    void* b = std::malloc(bytes);
    ERMIA_CHECK(b != nullptr);
    return b;
  }
  const uint8_t c = ClassFor(bytes);
  if (ERMIA_UNLIKELY(c == kMallocClass)) {
    Bump(Cache()->stats.malloc_fallbacks);
    *cls = kMallocClass;
    void* b = std::malloc(bytes);
    ERMIA_CHECK(b != nullptr);
    return b;
  }
  *cls = c;
  ThreadCache* tc = Cache();
  void* b = PopLocal(tc, c);
  if (b == nullptr && !tc->limbo.empty()) {
    // Freelist dry but limbo populated: the epoch may have closed already.
    Harvest(tc);
    b = PopLocal(tc, c);
  }
  if (b == nullptr && SpliceFromTransfer(tc, c)) b = PopLocal(tc, c);
  if (b != nullptr) {
    Bump(tc->stats.freelist_hits);
    return b;
  }
  return CarveFromSlab(tc, c);
}

void VersionAllocator::Free(void* block, uint8_t cls) {
  if (block == nullptr) return;
  if (cls == kMallocClass) {
    std::free(block);
    return;
  }
  ThreadCache* tc = Cache();
  Bump(tc->stats.immediate_frees);
  PushLocal(tc, cls, block);
}

void VersionAllocator::FreeDeferred(void* block, uint8_t cls,
                                    EpochManager* mgr) {
  if (block == nullptr) return;
  ThreadCache* tc = Cache();
  Bump(tc->stats.deferred_frees);
  // Locate the registry slot hosting mgr. Managers attach before any
  // transaction runs, so the scan virtually always hits slot 0.
  uint32_t slot = kMaxEpochSlots;
  uint32_t gen = 0;
  for (uint32_t s = 0; s < kMaxEpochSlots; ++s) {
    if (epoch_slots_[s].mgr.load(std::memory_order_acquire) == mgr) {
      slot = s;
      gen = epoch_slots_[s].gen.load(std::memory_order_acquire);
      break;
    }
  }
  if (ERMIA_UNLIKELY(slot == kMaxEpochSlots)) {
    // Unattached manager (standalone unit tests): fall back to its own
    // deferred list, which its destructor drains — lifetime stays safe.
    FreeDeferredViaManager(block, cls, mgr);
    return;
  }
  tc->limbo.push_back(
      LimboEntry{block, mgr, mgr->current(), slot, gen, cls});
  tc->limbo_count.store(tc->limbo.size(), std::memory_order_relaxed);
  if (++tc->deferred_since_harvest >= kHarvestPeriod) {
    tc->deferred_since_harvest = 0;
    Harvest(tc);
  }
}

void VersionAllocator::FreeDeferredViaManager(void* block, uint8_t cls,
                                              EpochManager* mgr) {
  mgr->Defer([this, block, cls] { Free(block, cls); });
}

void VersionAllocator::DrainOrphansInto(ThreadCache* c) {
  if (orphan_count_.load(std::memory_order_acquire) == 0) return;
  SpinLatchGuard g(caches_latch_);
  constexpr size_t kAdoptMax = 256;
  size_t take = orphans_->size() < kAdoptMax ? orphans_->size() : kAdoptMax;
  while (take-- > 0) {
    c->limbo.push_back(orphans_->back());
    orphans_->pop_back();
  }
  orphan_count_.store(orphans_->size(), std::memory_order_release);
  c->limbo_count.store(c->limbo.size(), std::memory_order_relaxed);
}

size_t VersionAllocator::Harvest(ThreadCache* c) {
  DrainOrphansInto(c);
  if (c->limbo.empty()) return 0;
  // Snapshot every attached manager's reclaim boundary once, under the
  // latch: DetachEpoch also takes it, so a manager observed attached here
  // cannot be destroyed before the snapshot completes (Database detaches
  // strictly before destroying its managers).
  struct Snap {
    EpochManager* mgr;
    uint32_t gen;
    uint64_t boundary;
  } snap[kMaxEpochSlots];
  {
    SpinLatchGuard g(epoch_latch_);
    for (uint32_t s = 0; s < kMaxEpochSlots; ++s) {
      snap[s].mgr = epoch_slots_[s].mgr.load(std::memory_order_relaxed);
      snap[s].gen = epoch_slots_[s].gen.load(std::memory_order_relaxed);
      snap[s].boundary =
          snap[s].mgr != nullptr ? snap[s].mgr->ReclaimBoundary() : 0;
    }
  }
  size_t reclaimed = 0;
  size_t kept = 0;
  for (size_t i = 0; i < c->limbo.size(); ++i) {
    const LimboEntry& e = c->limbo[i];
    const Snap& s = snap[e.slot];
    // Generation or manager mismatch means the manager detached: every
    // thread it protected has quiesced, so the block is free now.
    const bool detached = s.mgr != e.mgr || s.gen != e.gen;
    if (detached || e.epoch <= s.boundary) {
      ++reclaimed;
      if (e.cls == kMallocClass) {
        std::free(e.block);
      } else {
        PushLocal(c, e.cls, e.block);
      }
    } else {
      c->limbo[kept++] = e;
    }
  }
  c->limbo.resize(kept);
  c->limbo_count.store(kept, std::memory_order_relaxed);
  if (reclaimed > 0) Bump(c->stats.limbo_recycled, reclaimed);
  return reclaimed;
}

void VersionAllocator::AttachEpoch(EpochManager* mgr) {
  SpinLatchGuard g(epoch_latch_);
  for (uint32_t s = 0; s < kMaxEpochSlots; ++s) {
    if (epoch_slots_[s].mgr.load(std::memory_order_relaxed) == mgr) return;
  }
  for (uint32_t s = 0; s < kMaxEpochSlots; ++s) {
    if (epoch_slots_[s].mgr.load(std::memory_order_relaxed) == nullptr) {
      epoch_slots_[s].gen.fetch_add(1, std::memory_order_release);
      epoch_slots_[s].mgr.store(mgr, std::memory_order_release);
      return;
    }
  }
  // More concurrent Databases than slots: deferred frees against this
  // manager fall back to the manager's own deferred list (see FreeDeferred).
}

void VersionAllocator::DetachEpoch(EpochManager* mgr) {
  SpinLatchGuard g(epoch_latch_);
  for (uint32_t s = 0; s < kMaxEpochSlots; ++s) {
    if (epoch_slots_[s].mgr.load(std::memory_order_relaxed) == mgr) {
      epoch_slots_[s].mgr.store(nullptr, std::memory_order_release);
      epoch_slots_[s].gen.fetch_add(1, std::memory_order_release);
      return;
    }
  }
}

size_t VersionAllocator::HarvestThisThread() { return Harvest(Cache()); }

void VersionAllocator::FlushThisThread() {
  ThreadCache* c = Cache();
  for (uint8_t cls = 0; cls < kNumClasses; ++cls) {
    while (c->free_count[cls] >= kTransferBatch) FlushBatch(c, cls);
    if (c->free_count[cls] > 0) {
      void* head = c->free_head[cls];
      WriteWord(head, 8, c->free_count[cls]);
      transfer_[cls].Push(head);
      Bump(c->stats.transfer_pushes);
      c->free_head[cls] = nullptr;
      c->free_count[cls] = 0;
    }
  }
}

VersionAllocator::Stats VersionAllocator::Snapshot() const {
  Stats out;
  SpinLatchGuard g(caches_latch_);
  out = folded_;
  for (const ThreadCache* c = caches_head_; c != nullptr; c = c->next) {
    const auto& s = c->stats;
    out.freelist_hits += s.freelist_hits.load(std::memory_order_relaxed);
    out.slab_carves += s.slab_carves.load(std::memory_order_relaxed);
    out.transfer_pushes += s.transfer_pushes.load(std::memory_order_relaxed);
    out.transfer_pops += s.transfer_pops.load(std::memory_order_relaxed);
    out.malloc_fallbacks +=
        s.malloc_fallbacks.load(std::memory_order_relaxed);
    out.deferred_frees += s.deferred_frees.load(std::memory_order_relaxed);
    out.limbo_recycled += s.limbo_recycled.load(std::memory_order_relaxed);
    out.immediate_frees += s.immediate_frees.load(std::memory_order_relaxed);
    out.limbo_size += c->limbo_count.load(std::memory_order_relaxed);
  }
  out.limbo_size += orphan_count_.load(std::memory_order_relaxed);
  out.slab_bytes = slab_bytes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ermia
