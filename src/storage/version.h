// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Record versions (paper §3.1/§3.2). Each logical record (OID) points to a
// latch-free singly linked chain of versions, newest first. A version's
// creation stamp (`clsn`) is either the owning transaction's TID (high bit
// set) while the transaction is in flight / pre-committing, or the commit LSN
// after post-commit. SSN's per-version η (pstamp) and π (sstamp) live here
// too (§3.6.2).
#ifndef ERMIA_STORAGE_VERSION_H_
#define ERMIA_STORAGE_VERSION_H_

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/macros.h"
#include "common/slice.h"
#include "log/lsn.h"

namespace ermia {

class EpochManager;

// Stamp word encoding: TID stamps carry the high bit; LSN stamps are raw
// Lsn::value()s (their offsets never reach bit 63).
inline constexpr uint64_t kTidStampFlag = 1ull << 63;
inline constexpr uint64_t kInfinityStamp = UINT64_MAX & ~kTidStampFlag;

inline bool IsTidStamp(uint64_t s) { return (s & kTidStampFlag) != 0; }
inline uint64_t MakeTidStamp(uint64_t tid) { return tid | kTidStampFlag; }
inline uint64_t TidFromStamp(uint64_t s) { return s & ~kTidStampFlag; }
// Comparable commit position of an LSN stamp.
inline uint64_t StampOffset(uint64_t s) {
  ERMIA_DCHECK(!IsTidStamp(s));
  return Lsn(s).offset();
}

struct Version {
  std::atomic<Version*> next{nullptr};
  std::atomic<uint64_t> clsn{0};
  // SSN stamps (parallel commit, §3.6.2 / docs/INTERNALS.md "Parallel SSN
  // commit"):
  // pstamp = η(V): commit stamp of V's most recent committed reader,
  //                CAS-published (atomic max) by readers during pre-commit.
  // sstamp = V's commit word. Exactly one of three states:
  //            kInfinityStamp      — V is the latest version;
  //            TID | kTidStampFlag — an in-flight transaction overwrote V and
  //                                  has not resolved (set at install time, so
  //                                  concurrent committers can find the
  //                                  overwriter through the TID table);
  //            π(U)                — final successor stamp of the committed
  //                                  overwriter U, published before U's state
  //                                  flips to kCommitted.
  std::atomic<uint64_t> pstamp{0};
  std::atomic<uint64_t> sstamp{kInfinityStamp};
  // In-flight reader advertisement: bit s set while the transaction holding
  // SSN reader slot s has V in its read set. Overwriters resolve set bits
  // through the reader registry + TID table and wait out only conflicting
  // committers with smaller cstamps (never a global latch).
  std::atomic<uint64_t> readers{0};
  // Logical log offset of this version's payload (its durable address), set
  // during pre-commit when the log block is serialized.
  uint64_t log_ptr{0};
  uint32_t size{0};
  bool tombstone{false};
  // Allocator provenance (VersionAllocator size class, or 0xFF for raw
  // malloc). Set by Alloc; Free routes by it, so versions survive
  // an EngineConfig::version_allocator mode change mid-process.
  uint8_t alloc_class{0xFF};

  // Payload bytes follow the struct.
  char* data() { return reinterpret_cast<char*>(this + 1); }
  const char* data() const { return reinterpret_cast<const char*>(this + 1); }
  Slice value() const { return Slice(data(), size); }

  // Starts fetching v's header (at most two cache lines: versions are not
  // line-aligned). Harmless on nullptr.
  static void Prefetch(const Version* v) {
    const char* p = reinterpret_cast<const char*>(v);
    __builtin_prefetch(p);
    __builtin_prefetch(p + sizeof(Version) - 1);
  }

  // Allocates a version with a copy of `payload`. Tombstones carry no bytes.
  static Version* Alloc(const Slice& payload, bool tombstone = false);
  // Immediate free. Only for versions that were never published to a chain
  // (aborted OCC intents): the storage is recyclable to another thread right
  // away.
  static void Free(Version* v);
  // Epoch-deferred free for versions that were reachable from an indirection
  // chain: concurrent readers may still traverse v until `epoch`'s
  // reclamation boundary passes the current epoch, so the storage joins the
  // allocator's limbo list untouched and recycles only after that.
  static void FreeDeferred(EpochManager* epoch, Version* v);
};

}  // namespace ermia

#endif  // ERMIA_STORAGE_VERSION_H_
