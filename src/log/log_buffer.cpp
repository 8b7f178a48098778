#include "log/log_buffer.h"

#include <cstdlib>
#include <cstring>

namespace ermia {

void CompletionTracker::Mark(uint64_t begin, uint64_t end, bool has_data) {
  ERMIA_DCHECK(begin <= end);
  if (begin == end) return;
  std::lock_guard<std::mutex> g(mu_);
  uint64_t frontier = complete_until_.load(std::memory_order_relaxed);
  if (begin != frontier) {
    pending_.emplace(begin, Range{begin, end, has_data});
    return;
  }
  // The common case — the range at the frontier — touches no map. Then
  // advance over pending ranges that became contiguous, moving them to the
  // completed list the flusher consumes.
  completed_.push_back(Range{begin, end, has_data});
  frontier = end;
  auto it = pending_.begin();
  while (it != pending_.end() && it->first == frontier) {
    frontier = it->second.end;
    completed_.push_back(it->second);
    it = pending_.erase(it);
  }
  complete_until_.store(frontier, std::memory_order_release);
}

void CompletionTracker::Reset(uint64_t start) {
  std::lock_guard<std::mutex> g(mu_);
  ERMIA_CHECK(pending_.empty() && completed_.empty());
  complete_until_.store(start, std::memory_order_release);
}

std::vector<CompletionTracker::Range> CompletionTracker::TakeCompleted(
    uint64_t upto) {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Range> out;
  while (!completed_.empty() && completed_.front().begin < upto) {
    Range& r = completed_.front();
    if (r.end > upto) {
      // Split: the caller only wants bytes below `upto`.
      out.push_back(Range{r.begin, upto, r.has_data});
      r.begin = upto;
      break;
    }
    out.push_back(r);
    completed_.pop_front();
  }
  return out;
}

LogRingBuffer::LogRingBuffer(uint64_t capacity)
    : capacity_(capacity), mask_(capacity - 1) {
  ERMIA_CHECK((capacity & (capacity - 1)) == 0);
  data_ = static_cast<char*>(std::malloc(capacity));
  ERMIA_CHECK(data_ != nullptr);
}

LogRingBuffer::~LogRingBuffer() { std::free(data_); }

void LogRingBuffer::Write(uint64_t offset, const void* src, uint64_t size) {
  ERMIA_DCHECK(size <= capacity_);
  const uint64_t pos = offset & mask_;
  const uint64_t first = std::min(size, capacity_ - pos);
  std::memcpy(data_ + pos, src, first);
  if (size > first) {
    std::memcpy(data_, static_cast<const char*>(src) + first, size - first);
  }
}

void LogRingBuffer::Read(uint64_t offset, void* dst, uint64_t size) const {
  ERMIA_DCHECK(size <= capacity_);
  const uint64_t pos = offset & mask_;
  const uint64_t first = std::min(size, capacity_ - pos);
  std::memcpy(dst, data_ + pos, first);
  if (size > first) {
    std::memcpy(static_cast<char*>(dst) + first, data_, size - first);
  }
}

}  // namespace ermia
