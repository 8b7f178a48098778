// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Central log ring buffer plus completion tracking. Transactions copy their
// privately staged records into the ring at (logical offset mod capacity) —
// no latch is needed because each byte range was exclusively reserved by the
// global fetch_add in the log manager. The completion tracker keeps the
// frontier below which every reserved range has been filled (or is a dead
// zone), so the flusher can write that prefix without waiting on bytes
// nobody will ever write.
#ifndef ERMIA_LOG_LOG_BUFFER_H_
#define ERMIA_LOG_LOG_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>

#include "common/macros.h"

namespace ermia {

// Tracks completion of the logical offset space. Ranges are marked complete
// out of order; `complete_until()` is the end of the longest marked prefix.
class CompletionTracker {
 public:
  explicit CompletionTracker(uint64_t start) : complete_until_(start) {}
  ERMIA_NO_COPY(CompletionTracker);

  // Marks [begin, end) complete: its ring bytes are final, or it lies in a
  // dead zone outside every segment.
  void Mark(uint64_t begin, uint64_t end);

  // Re-bases the tracker (log resume after recovery). No ranges may be
  // outstanding.
  void Reset(uint64_t start);

  uint64_t complete_until() const {
    return complete_until_.load(std::memory_order_acquire);
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, uint64_t> pending_;  // above the frontier: begin -> end
  std::atomic<uint64_t> complete_until_;
};

// The ring itself. Capacity must be a power of two.
class LogRingBuffer {
 public:
  explicit LogRingBuffer(uint64_t capacity);
  ~LogRingBuffer();
  ERMIA_NO_COPY(LogRingBuffer);

  uint64_t capacity() const { return capacity_; }

  char* At(uint64_t offset) { return data_ + (offset & mask_); }

  // Bytes from logical `offset` up to the wrap point.
  uint64_t ContiguousFrom(uint64_t offset) const {
    return capacity_ - (offset & mask_);
  }

  // Copies `size` bytes at logical `offset`, splitting at the wrap point.
  void Write(uint64_t offset, const void* src, uint64_t size);

  // Zero-fills `size` bytes at logical `offset`, splitting at the wrap point.
  void Zero(uint64_t offset, uint64_t size);

 private:
  char* data_;
  uint64_t capacity_;
  uint64_t mask_;
};

}  // namespace ermia

#endif  // ERMIA_LOG_LOG_BUFFER_H_
