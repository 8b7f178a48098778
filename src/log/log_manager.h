// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Scalable centralized log manager (paper §3.3). The LSN space is claimed
// with a single global fetch_add per transaction; segment rotation, dead
// zones, and skip records handle the corner cases. After the claim, a commit
// copies its block into the central ring buffer and marks it complete, which
// takes the completion tracker's mutex once. A background flusher writes the
// completed prefix of the ring to segment files (group commit), one extent
// per segment.
#ifndef ERMIA_LOG_LOG_MANAGER_H_
#define ERMIA_LOG_LOG_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/sysconf.h"
#include "log/log_buffer.h"
#include "log/log_record.h"
#include "log/lsn.h"
#include "log/segment.h"
#include "metrics/metrics.h"

namespace ermia {

// Steady-state health of the durability pipeline (graceful degradation; see
// docs/INTERNALS.md "Degraded modes"). Values are stable: the
// kLogHealthState gauge and watchdog trip payloads export them numerically.
enum class LogHealth : uint32_t {
  // Normal operation: flushes succeed, writes admitted, durability advances.
  kHealthy = 0,
  // A segment write failed with ENOSPC/EDQUOT. The flusher retries from the
  // durable offset with bounded exponential backoff; new write
  // transactions are rejected with Status::LogUnavailable, reads keep
  // running, and in-flight synchronous commits block until the retry
  // succeeds (resume) or the log degrades further. Fully reversible.
  kStalled = 1,
  // A write failed hard (EIO, ...) or an fdatasync failed. After a failed
  // fsync the page-cache state is unknowable, so the durable offset — and
  // with it every durability acknowledgment — freezes at the last
  // known-good value forever (fsync-gate semantics). The engine continues
  // as a read-only store; the completed prefix of the ring is released
  // unwritten (never acked) so writers blocked on buffer space always drain.
  // Sticky.
  kPoisoned = 2,
};

const char* LogHealthName(LogHealth h);

class LogManager {
 public:
  // `metrics` may be null (standalone construction in unit tests); when set,
  // flush/skip/rotation telemetry is mirrored into the engine registry.
  explicit LogManager(const EngineConfig& config,
                      metrics::EngineMetrics* metrics = nullptr);
  ~LogManager();
  ERMIA_NO_COPY(LogManager);

  // Creates the first segment and starts the flusher daemon.
  Status Open();

  // Stops the flusher after draining everything completed so far.
  void Close();

  // Tail of the logical LSN space: used as transaction begin timestamps.
  // Every transaction that committed (reserved its block) before this call
  // has a commit offset strictly below the returned value.
  uint64_t CurrentOffset() const {
    return next_offset_.load(std::memory_order_acquire);
  }

  // Claims `size` bytes of LSN space and returns a valid LSN for the block.
  // One fetch_add in the common case; handles segment-full / between-segment
  // races per Fig. 4(b): the straddler closes the segment with a skip record,
  // losers' blocks become dead zones and they retry.
  Lsn ReserveBlock(uint32_t size);

  // Zero-byte reservation: returns the current tail like CurrentOffset() but
  // as a seq_cst RMW on the offset word, so the caller takes a position in
  // the log's modification order without consuming LSN space. SSN's parallel
  // commit uses this to stamp reader-only transactions: the RMW order of all
  // commit-stamp claims (this and ReserveBlock's fetch_add) matches cstamp
  // order, which is what lets a committer infer that any peer it observes as
  // not-yet-committing must end up with a larger cstamp.
  uint64_t OrderedTail() {
    return next_offset_.fetch_add(0, std::memory_order_seq_cst);
  }

  // Contention-free variant for callers that only need a non-stale tail
  // bound with seq_cst ordering: a seq_cst *load* of the offset word, no RMW,
  // so read-only committers do not bounce the shared cache line that every
  // writer's ReserveBlock hammers. The modification-order argument above
  // still holds in both directions, because all the operations involved
  // participate in the single total order S of seq_cst operations:
  //  * Any ReserveBlock fetch_add ordered before this load in S has its
  //    value (or a later one) returned here — the caller's derived stamp
  //    (tail - 1) is >= that writer's cstamp, exactly as with the RMW.
  //  * Any writer whose fetch_add comes after this load in S claims an
  //    offset >= the returned tail, so its cstamp is strictly above the
  //    caller's (tail - 1) stamp.
  //  * A peer's kCommitting state store (seq_cst) that precedes its stamp
  //    claim is ordered in S before that claim; a committer that observes
  //    the peer as not-yet-committing before taking this bound can still
  //    conclude the peer's eventual cstamp exceeds its own.
  // Callers that additionally need to *occupy a position* in the offset
  // word's modification order must keep using OrderedTail() — SSN's
  // reader-only commit does when it carries exempt (read-opt) reads, so its
  // stamp claim synchronizes with the pre-commit stores of every
  // smaller-stamped writer it may need to wait on.
  uint64_t SeqCstTailBound() const {
    return next_offset_.load(std::memory_order_seq_cst);
  }

  // Copies a fully serialized block (header + records) into the central ring
  // and marks its range complete. `size` must equal the reserved size.
  void InstallBlock(Lsn lsn, const void* block, uint32_t size);

  // Converts an unused reservation (aborted transaction) into a skip block.
  void InstallSkip(Lsn lsn, uint32_t size);

  // Group-commit wait: blocks until all offsets below `offset` are durable.
  // Returns LogUnavailable (without acknowledging durability) if the log is
  // poisoned or closed before the target is reached; while merely stalled it
  // keeps waiting, because a successful retry will still make the bytes
  // durable.
  Status WaitForDurable(uint64_t offset);

  uint64_t DurableOffset() const {
    return durable_offset_.load(std::memory_order_acquire);
  }

  // Current health of the durability pipeline (single writer: the flusher).
  LogHealth health() const {
    return static_cast<LogHealth>(health_.load(std::memory_order_acquire));
  }

  // Admission check for new write operations: only a healthy log accepts
  // them. Callers surface Status::LogUnavailable when this is false.
  bool WritesAllowed() const { return health() == LogHealth::kHealthy; }

  // End of the longest prefix of the offset space that has been marked
  // complete — the flusher's next target. CompleteUntil() > DurableOffset()
  // with a non-advancing durable offset is the watchdog's flusher-stall
  // signal.
  uint64_t CompleteUntil() const { return tracker_.complete_until(); }

  // Ring-space watermark: bytes below it have left the ring (written
  // durably, or discarded by a poisoned log). Equals DurableOffset() in
  // healthy operation; only diverges once poisoned.
  uint64_t ReleasedOffset() const {
    return released_offset_.load(std::memory_order_acquire);
  }

  // Ordered list of segments created so far (diagnostics/tests/recovery).
  std::vector<LogSegment> Segments() const;

  const std::string& dir() const { return config_.log_dir; }
  bool in_memory() const { return config_.log_dir.empty(); }

 private:
  // Re-adopts segment files from a previous incarnation (recovery restart).
  bool ResumeExistingLog(uint64_t* tail_out);

  // Finds the segment whose range contains [offset, offset+size), opening a
  // successor segment if needed. Returns nullptr if [offset, offset+size)
  // landed in a dead zone and the caller must re-reserve.
  const LogSegment* PlaceBlock(uint64_t offset, uint32_t size);

  // Opens the next segment starting at `start` unless someone else already
  // opened a segment covering it. Returns the newest segment.
  const LogSegment* OpenSegmentAt(uint64_t start);

  // Writes a skip block covering [offset, offset+size) in `seg` (closing its
  // tail) or absorbing an aborted reservation: a header, then zeros.
  void WriteSkip(const LogSegment* seg, uint64_t offset, uint64_t size);

  void WaitForBufferSpace(uint64_t end_offset);
  void FlusherLoop();
  void FlushOnce();
  // Writes ring bytes [begin, end) to `seg`'s file, splitting at the ring's
  // wrap point. Returns false with errno set on a failed write.
  bool WriteExtent(const LogSegment& seg, uint64_t begin, uint64_t end);

  // Degradation transitions (flusher thread only; see LogHealth).
  void EnterStall(int err);
  void ResumeFromStall(uint64_t target);
  void Poison(int err);
  // Poisoned mode: advance released_offset_ to the frontier without writing,
  // so producers blocked on ring space always drain.
  void ReleaseCompleted();

  EngineConfig config_;
  metrics::EngineMetrics* metrics_;  // nullable

  alignas(kCacheLineSize) std::atomic<uint64_t> next_offset_{kLogStartOffset};
  alignas(kCacheLineSize) std::atomic<uint64_t> durable_offset_{
      kLogStartOffset};
  // Ring-space watermark; see ReleasedOffset().
  std::atomic<uint64_t> released_offset_{kLogStartOffset};
  std::atomic<uint32_t> health_{static_cast<uint32_t>(LogHealth::kHealthy)};
  // Set at the end of Close(): breaks WaitForDurable waiters that would
  // otherwise sleep forever on a log that stalled and then shut down.
  std::atomic<bool> closed_{false};

  LogRingBuffer ring_;
  CompletionTracker tracker_;

  // Segment bookkeeping. Opening is rare, so a mutex is fine here; readers
  // access the (immutable once published) segment objects via shared_ptr-like
  // stable storage in `segments_`.
  mutable std::mutex segment_mu_;
  std::vector<std::unique_ptr<LogSegment>> segments_;  // in creation order
  std::atomic<const LogSegment*> latest_segment_{nullptr};

  std::thread flusher_;
  std::atomic<bool> stop_{false};
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;     // wakes the flusher
  std::condition_variable durable_cv_;   // wakes commit waiters

  // Flusher-private stall backoff (touched only by the flusher thread, and by
  // Close() after joining it).
  uint64_t stall_backoff_ms_ = 0;
  uint64_t stall_retries_ = 0;
  std::chrono::steady_clock::time_point next_retry_at_{};
};

}  // namespace ermia

#endif  // ERMIA_LOG_LOG_MANAGER_H_
