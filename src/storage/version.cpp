#include "storage/version.h"

#include <new>

#include "storage/version_alloc.h"

namespace ermia {

Version* Version::Alloc(const Slice& payload, bool tombstone) {
  const size_t bytes = sizeof(Version) + (tombstone ? 0 : payload.size());
  uint8_t cls;
  void* mem = VersionAllocator::Instance().Allocate(bytes, &cls);
  Version* v = new (mem) Version();
  v->alloc_class = cls;
  v->tombstone = tombstone;
  if (!tombstone) {
    v->size = static_cast<uint32_t>(payload.size());
    std::memcpy(v->data(), payload.data(), payload.size());
  }
  return v;
}

void Version::Free(Version* v) {
  if (v == nullptr) return;
  const uint8_t cls = v->alloc_class;
  v->~Version();
  VersionAllocator::Instance().Free(v, cls);
}

void Version::FreeDeferred(EpochManager* epoch, Version* v) {
  if (v == nullptr) return;
  // No destructor call and no writes here: readers that picked up v before
  // it was unlinked may still load its fields until the epoch closes. The
  // struct is trivially destructible, so deferring the (no-op) destruction
  // is sound; the allocator only touches the bytes at harvest time.
  VersionAllocator::Instance().FreeDeferred(v, v->alloc_class, epoch);
}

}  // namespace ermia
