// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Central log ring buffer plus completion tracking. Transactions copy their
// privately staged records into the ring at (logical offset mod capacity) —
// no latch is needed because each byte range was exclusively reserved by the
// global fetch_add in the log manager. The completion tracker records which
// ranges carry data and which are holes (dead zones, skipped tails) so the
// flusher can advance a contiguous durable watermark without waiting on bytes
// nobody will ever write.
#ifndef ERMIA_LOG_LOG_BUFFER_H_
#define ERMIA_LOG_LOG_BUFFER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "common/macros.h"

namespace ermia {

// Tracks completion of the logical offset space. Ranges are marked complete
// out of order; `complete_until()` is the largest offset with no holes of
// *unknown* state below it.
class CompletionTracker {
 public:
  explicit CompletionTracker(uint64_t start) : complete_until_(start) {}
  ERMIA_NO_COPY(CompletionTracker);

  struct Range {
    uint64_t begin;
    uint64_t end;
    bool has_data;  // false for dead zones / skipped tails (nothing to write)
  };

  void MarkData(uint64_t begin, uint64_t end) { Mark(begin, end, true); }
  void MarkHole(uint64_t begin, uint64_t end) { Mark(begin, end, false); }

  // Re-bases the tracker (log resume after recovery). No ranges may be
  // outstanding.
  void Reset(uint64_t start);

  uint64_t complete_until() const {
    return complete_until_.load(std::memory_order_acquire);
  }

  // Removes and returns, in offset order, all fully-complete ranges with
  // begin < upto. `upto` must be <= complete_until().
  std::vector<Range> TakeCompleted(uint64_t upto);

 private:
  void Mark(uint64_t begin, uint64_t end, bool has_data);

  mutable std::mutex mu_;
  std::map<uint64_t, Range> pending_;  // above the frontier, keyed by begin
  std::deque<Range> completed_;        // below complete_until_, in order
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

  // Copies `size` bytes at logical `offset`, splitting at the wrap point.
  void Write(uint64_t offset, const void* src, uint64_t size);

  // Reads out of the ring (used by the flusher), splitting at the wrap point.
  void Read(uint64_t offset, void* dst, uint64_t size) const;

 private:
  char* data_;
  uint64_t capacity_;
  uint64_t mask_;
};

}  // namespace ermia

#endif  // ERMIA_LOG_LOG_BUFFER_H_
