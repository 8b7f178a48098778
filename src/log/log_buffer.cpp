#include "log/log_buffer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace ermia {

void CompletionTracker::Mark(uint64_t begin, uint64_t end) {
  ERMIA_DCHECK(begin <= end);
  if (begin == end) return;
  std::lock_guard<std::mutex> g(mu_);
  uint64_t frontier = complete_until_.load(std::memory_order_relaxed);
  if (begin != frontier) {
    pending_.emplace(begin, end);
    return;
  }
  // The common case — the range at the frontier — touches no map. Then
  // advance over pending ranges that became contiguous.
  frontier = end;
  auto it = pending_.begin();
  while (it != pending_.end() && it->first == frontier) {
    frontier = it->second;
    it = pending_.erase(it);
  }
  complete_until_.store(frontier, std::memory_order_release);
}

void CompletionTracker::Reset(uint64_t start) {
  std::lock_guard<std::mutex> g(mu_);
  ERMIA_CHECK(pending_.empty());
  complete_until_.store(start, std::memory_order_release);
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
  const uint64_t first = std::min(size, ContiguousFrom(offset));
  std::memcpy(At(offset), src, first);
  std::memcpy(data_, static_cast<const char*>(src) + first, size - first);
}

void LogRingBuffer::Zero(uint64_t offset, uint64_t size) {
  ERMIA_DCHECK(size <= capacity_);
  const uint64_t first = std::min(size, ContiguousFrom(offset));
  std::memset(At(offset), 0, first);
  std::memset(data_, 0, size - first);
}

}  // namespace ermia
