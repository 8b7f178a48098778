#include "storage/indirection_array.h"

#include "common/huge_pages.h"

namespace ermia {

namespace {
constexpr size_t kChunkBytes =
    IndirectionArray::kChunkSize * sizeof(std::atomic<Version*>);
static_assert(kChunkBytes == kHugePageSize);
}  // namespace

IndirectionArray::IndirectionArray() {
  for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
}

IndirectionArray::~IndirectionArray() {
  for (auto& c : chunks_) {
    std::atomic<Version*>* chunk = c.load(std::memory_order_relaxed);
    if (chunk == nullptr) continue;
    for (uint32_t i = 0; i < kChunkSize; ++i) {
      Version* v = chunk[i].load(std::memory_order_relaxed);
      while (v != nullptr) {
        Version* next = v->next.load(std::memory_order_relaxed);
        Version::Free(v);
        v = next;
      }
    }
    UnmapHugeRegion(chunk, kChunkBytes);
  }
}

Oid IndirectionArray::Allocate() {
  Oid oid;
  if (free_list_.Pop(&oid)) return oid;
  oid = next_oid_.fetch_add(1, std::memory_order_relaxed);
  ERMIA_CHECK(oid < kMaxChunks * kChunkSize);
  (void)Slot(oid);  // make the slot addressable before handing it out
  return oid;
}

void IndirectionArray::Free(Oid oid) { free_list_.Push(oid); }

std::atomic<Version*>* IndirectionArray::Slot(Oid oid) {
  const uint32_t chunk_idx = oid >> kChunkBits;
  std::atomic<Version*>* chunk =
      chunks_[chunk_idx].load(std::memory_order_acquire);
  if (ERMIA_UNLIKELY(chunk == nullptr)) chunk = EnsureChunk(chunk_idx);
  return &chunk[oid & (kChunkSize - 1)];
}

const std::atomic<Version*>* IndirectionArray::SlotIfExists(Oid oid) const {
  const uint32_t chunk_idx = oid >> kChunkBits;
  if (chunk_idx >= kMaxChunks) return nullptr;
  std::atomic<Version*>* chunk =
      chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return &chunk[oid & (kChunkSize - 1)];
}

std::atomic<Version*>* IndirectionArray::EnsureChunk(uint32_t chunk_idx) {
  ERMIA_CHECK(chunk_idx < kMaxChunks);
  auto* fresh =
      static_cast<std::atomic<Version*>*>(MapHugeRegion(kChunkBytes));
  std::atomic<Version*>* expected = nullptr;
  if (!chunks_[chunk_idx].compare_exchange_strong(expected, fresh,
                                                  std::memory_order_acq_rel)) {
    UnmapHugeRegion(fresh, kChunkBytes);
    return expected;  // another thread published the chunk first
  }
  return fresh;
}

void IndirectionArray::EnsureAllocatedThrough(Oid oid) {
  (void)Slot(oid);
  Oid cur = next_oid_.load(std::memory_order_relaxed);
  while (cur <= oid && !next_oid_.compare_exchange_weak(
                           cur, oid + 1, std::memory_order_relaxed)) {
  }
}

}  // namespace ermia
