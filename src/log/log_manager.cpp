#include "log/log_manager.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault_injection.h"
#include "log/log_scan.h"
#include "trace/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace ermia {

const char* LogHealthName(LogHealth h) {
  switch (h) {
    case LogHealth::kHealthy:
      return "healthy";
    case LogHealth::kStalled:
      return "stalled";
    case LogHealth::kPoisoned:
      return "poisoned";
  }
  return "unknown";
}

namespace {
// All reservations are multiples of the block-header size so every non-data
// range inside a segment is large enough to hold a skip-block header.
constexpr uint64_t kLogAlign = sizeof(LogBlockHeader);  // 32

uint64_t AlignUp(uint64_t n) { return (n + kLogAlign - 1) & ~(kLogAlign - 1); }
}  // namespace

LogManager::LogManager(const EngineConfig& config,
                       metrics::EngineMetrics* metrics)
    : config_(config),
      metrics_(metrics),
      ring_(config.log_buffer_size),
      tracker_(kLogStartOffset) {
  ERMIA_CHECK((config.log_buffer_size & (config.log_buffer_size - 1)) == 0);
  ERMIA_CHECK(config.log_segment_size % kLogAlign == 0);
}

LogManager::~LogManager() { Close(); }

Status LogManager::Open() {
  uint64_t start = kLogStartOffset;
  bool resumed = false;
  if (!config_.log_dir.empty()) {
    ::mkdir(config_.log_dir.c_str(), 0755);  // best effort; Create* verifies
    resumed = ResumeExistingLog(&start);
  }
  if (!resumed) {
    std::lock_guard<std::mutex> g(segment_mu_);
    ERMIA_CHECK(segments_.empty());
    auto seg = std::make_unique<LogSegment>();
    seg->segnum = 0;
    seg->start_offset = kLogStartOffset;
    seg->end_offset = kLogStartOffset + config_.log_segment_size;
    seg->per_operation = config_.log_per_operation;
    ERMIA_RETURN_NOT_OK(CreateSegmentFile(config_.log_dir, seg.get()));
    latest_segment_.store(seg.get(), std::memory_order_release);
    segments_.push_back(std::move(seg));
  }
  next_offset_.store(start, std::memory_order_release);
  durable_offset_.store(start, std::memory_order_release);
  released_offset_.store(start, std::memory_order_release);
  health_.store(static_cast<uint32_t>(LogHealth::kHealthy),
                std::memory_order_release);
  closed_.store(false, std::memory_order_release);
  stall_backoff_ms_ = 0;
  stall_retries_ = 0;
  tracker_.Reset(start);
  stop_.store(false);
  flusher_ = std::thread([this] { FlusherLoop(); });
  return Status::OK();
}

// Re-adopts segment files left by a previous incarnation: the durable prefix
// up to the first hole is kept, the rest (torn tail, segments never durably
// reached) is truncated away so stale blocks can never be mistaken for new
// ones after the next crash.
bool LogManager::ResumeExistingLog(uint64_t* tail_out) {
  LogScanner scanner(config_.log_dir);
  if (!scanner.Init().ok() || scanner.segments().empty()) return false;
  const uint64_t tail = scanner.FindTail();

  std::lock_guard<std::mutex> g(segment_mu_);
  ERMIA_CHECK(segments_.empty());
  for (const LogSegment& found : scanner.segments()) {
    if (found.start_offset >= tail) {
      ::unlink(found.path.c_str());  // never durably reached
      continue;
    }
    auto seg = std::make_unique<LogSegment>();
    *seg = found;
    seg->fd = ::open(seg->path.c_str(), O_RDWR);
    ERMIA_CHECK(seg->fd >= 0);
    if (seg->end_offset > tail) {
      // Segment containing the tail: chop the torn suffix.
      ERMIA_CHECK(::ftruncate(seg->fd, static_cast<off_t>(
                                           tail - seg->start_offset)) == 0);
    }
    segments_.push_back(std::move(seg));
  }
  if (segments_.empty()) return false;
  latest_segment_.store(segments_.back().get(), std::memory_order_release);
  *tail_out = tail;
  return true;
}

void LogManager::Close() {
  if (!flusher_.joinable()) return;
  stop_.store(true);
  flush_cv_.notify_all();
  flusher_.join();
  FlushOnce();  // drain whatever completed before stop (may fail if degraded)
  // From here no flush will ever advance durability: break any waiter still
  // parked on a stalled log so it returns LogUnavailable instead of hanging.
  {
    std::lock_guard<std::mutex> lk(flush_mu_);
    closed_.store(true, std::memory_order_release);
  }
  durable_cv_.notify_all();
  std::lock_guard<std::mutex> g(segment_mu_);
  for (auto& seg : segments_) {
    if (seg->fd >= 0) {
      ::close(seg->fd);
      seg->fd = -1;
    }
  }
}

Lsn LogManager::ReserveBlock(uint32_t size) {
  const uint64_t asize = AlignUp(size);
  ERMIA_CHECK(asize > 0 && asize <= config_.log_buffer_size / 4);
  ERMIA_CHECK(asize <= config_.log_segment_size / 4);
  for (;;) {
    const uint64_t off = next_offset_.fetch_add(asize, std::memory_order_seq_cst);
    const LogSegment* seg = PlaceBlock(off, static_cast<uint32_t>(asize));
    if (ERMIA_LIKELY(seg != nullptr)) return Lsn::Make(off, seg->segnum);
    // Reservation fell into a dead zone or closed a segment; try again.
  }
}

const LogSegment* LogManager::PlaceBlock(uint64_t offset, uint32_t size) {
  const LogSegment* latest = latest_segment_.load(std::memory_order_acquire);
  if (ERMIA_LIKELY(latest->Contains(offset, size))) return latest;

  // Work items computed under the mutex, applied after release: WriteSkip can
  // block on the flusher, and the flusher takes segment_mu_.
  struct Cover {
    const LogSegment* seg;  // nullptr => dead-zone hole
    uint64_t begin;
    uint64_t end;
  };
  std::vector<Cover> covers;
  {
    std::lock_guard<std::mutex> g(segment_mu_);
    // A containing segment may exist already (we raced with an opener).
    for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
      if ((*it)->Contains(offset, size)) return it->get();
      if ((*it)->end_offset <= offset) break;  // older ones end even earlier
    }
    const LogSegment* last = segments_.back().get();
    if (offset >= last->end_offset) {
      // Beyond every segment: this thread wins the race to open the next one,
      // which starts at its own block (bytes between the old end and `offset`
      // belong to other reservations and become dead zone / skips).
      const LogSegment* seg = OpenSegmentAt(offset);
      ERMIA_CHECK(seg->Contains(offset, size));
      return seg;
    }
    // The block overlaps a segment boundary or a dead zone. If it straddles
    // the *last* segment's tail, open the successor first (back-to-back) so
    // the overflow bytes become a skip block at the head of the new segment
    // rather than an unwritten hole inside it — the scan must find a valid
    // block wherever a segment file has bytes.
    const uint64_t end = offset + size;
    if (offset < last->end_offset && end > last->end_offset) {
      OpenSegmentAt(last->end_offset);
    }
    uint64_t pos = offset;
    while (pos < end) {
      const LogSegment* in = nullptr;
      uint64_t next_start = end;
      for (auto& s : segments_) {
        if (pos >= s->start_offset && pos < s->end_offset) {
          in = s.get();
          break;
        }
        if (s->start_offset > pos) {
          next_start = std::min(next_start, s->start_offset);
        }
      }
      if (in != nullptr) {
        const uint64_t cover_end = std::min(end, in->end_offset);
        covers.push_back({in, pos, cover_end});
        pos = cover_end;
      } else {
        covers.push_back({nullptr, pos, next_start});
        pos = next_start;
      }
    }
  }
  for (const auto& c : covers) {
    if (c.seg != nullptr) {
      WriteSkip(c.seg, c.begin, c.end - c.begin);
    } else {
      tracker_.Mark(c.begin, c.end);
      if (metrics_ != nullptr) {
        metrics_->Inc(metrics::Ctr::kLogDeadZoneBytes, c.end - c.begin);
      }
    }
  }
  flush_cv_.notify_one();
  return nullptr;
}

const LogSegment* LogManager::OpenSegmentAt(uint64_t start) {
  // Caller holds segment_mu_.
  const LogSegment* last = segments_.back().get();
  if (last->end_offset > start) return last;  // someone beat us to it
  auto seg = std::make_unique<LogSegment>();
  seg->segnum = (last->segnum + 1) % kNumLogSegments;
  seg->start_offset = start;
  seg->end_offset = start + config_.log_segment_size;
  seg->per_operation = config_.log_per_operation;
  Status s = CreateSegmentFile(config_.log_dir, seg.get());
  ERMIA_CHECK(s.ok());
  const LogSegment* raw = seg.get();
  segments_.push_back(std::move(seg));
  latest_segment_.store(raw, std::memory_order_release);
  if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kLogSegmentRotations);
  if (ERMIA_UNLIKELY(trace::Active())) {
    trace::Emit(trace::Event::kLogRotation, 0, start, 0);
  }
  return raw;
}

void LogManager::WriteSkip(const LogSegment* seg, uint64_t offset,
                           uint64_t size) {
  ERMIA_DCHECK(size >= sizeof(LogBlockHeader));
  ERMIA_DCHECK(offset >= seg->start_offset &&
               offset + size <= seg->end_offset);
  LogBlockHeader hdr{};
  hdr.magic = kLogBlockMagic;
  hdr.type = LogBlockType::kSkip;
  hdr.offset = offset;
  hdr.total_size = static_cast<uint32_t>(size);
  hdr.num_records = 0;
  hdr.payload_bytes = 0;
  hdr.checksum = 0;
  // The body is zeroed too: the flusher writes every byte of a segment's
  // range straight from the ring.
  WaitForBufferSpace(offset + size);
  ring_.Write(offset, &hdr, sizeof hdr);
  ring_.Zero(offset + sizeof hdr, size - sizeof hdr);
  tracker_.Mark(offset, offset + size);
  if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kLogSkipBlocks);
}

void LogManager::InstallBlock(Lsn lsn, const void* block, uint32_t size) {
  const uint64_t off = lsn.offset();
  const uint64_t asize = AlignUp(size);
  WaitForBufferSpace(off + asize);
  ring_.Write(off, block, size);
  // Zero the alignment padding so scans see deterministic bytes.
  ring_.Zero(off + size, asize - size);
  tracker_.Mark(off, off + asize);
  if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kLogBlocksInstalled);
  // No wakeup here: the flusher polls on a 1ms tick (group commit), so the
  // common commit path stays syscall-free. Waiters (synchronous commits,
  // buffer backpressure) nudge the flusher themselves.
}

void LogManager::InstallSkip(Lsn lsn, uint32_t size) {
  const uint64_t asize = AlignUp(size);
  const LogSegment* seg = nullptr;
  {
    std::lock_guard<std::mutex> g(segment_mu_);
    for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
      if ((*it)->Contains(lsn.offset(), asize)) {
        seg = it->get();
        break;
      }
    }
  }
  ERMIA_CHECK(seg != nullptr);
  WriteSkip(seg, lsn.offset(), asize);
  flush_cv_.notify_one();
}

void LogManager::WaitForBufferSpace(uint64_t end_offset) {
  // Producers wait on the *released* watermark, not the durable one: the two
  // agree except when the log is poisoned, where released keeps advancing
  // over discarded ranges so producers never deadlock on a frozen durable
  // offset.
  if (ERMIA_LIKELY(end_offset <=
                   released_offset_.load(std::memory_order_acquire) +
                       ring_.capacity())) {
    return;
  }
  std::unique_lock<std::mutex> lk(flush_mu_);
  flush_cv_.notify_all();
  durable_cv_.wait(lk, [&] {
    return end_offset <=
           released_offset_.load(std::memory_order_acquire) + ring_.capacity();
  });
}

Status LogManager::WaitForDurable(uint64_t offset, bool stall_fails) {
  auto unavailable = [&] {
    return Status::LogUnavailable(
        std::string("log ") + LogHealthName(health()) +
        ": durability frozen at offset " + std::to_string(DurableOffset()));
  };
  auto given_up = [&] {
    const LogHealth h = health();
    return h == LogHealth::kPoisoned ||
           (stall_fails && h == LogHealth::kStalled);
  };
  if (durable_offset_.load(std::memory_order_acquire) >= offset) {
    return Status::OK();
  }
  if (ERMIA_UNLIKELY(given_up())) return unavailable();
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lk(flush_mu_);
    flush_cv_.notify_all();
    durable_cv_.wait(lk, [&] {
      return durable_offset_.load(std::memory_order_acquire) >= offset ||
             given_up() || closed_.load(std::memory_order_acquire);
    });
  }
  if (metrics_ != nullptr) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    metrics_->Observe(metrics::Hist::kLogCommitWaitUs,
                      static_cast<uint64_t>(us));
  }
  if (durable_offset_.load(std::memory_order_acquire) >= offset) {
    return Status::OK();
  }
  return unavailable();
}

void LogManager::FlusherLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lk(flush_mu_);
      flush_cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
    if (ERMIA_UNLIKELY(health() == LogHealth::kStalled)) {
      // Stalled: pace retries with the backoff EnterStall computed instead
      // of hammering a full disk every tick.
      if (std::chrono::steady_clock::now() < next_retry_at_) continue;
      ++stall_retries_;
      if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kLogStallRetries);
    }
    FlushOnce();
  }
  ThreadRegistry::Deregister();
}

void LogManager::FlushOnce() {
  if (ERMIA_UNLIKELY(health() == LogHealth::kPoisoned)) {
    ReleaseCompleted();
    return;
  }
  // Everything below the frontier is final in the ring and stays there until
  // released_offset_ passes it, so a retry after a failed pass simply writes
  // again from the durable offset.
  const uint64_t target = tracker_.complete_until();
  const uint64_t durable = durable_offset_.load(std::memory_order_acquire);
  if (target <= durable) return;
  const bool traced = trace::Active();
  if (ERMIA_UNLIKELY(traced)) {
    trace::Emit(trace::Event::kLogFlushBegin, 0, target - durable, 0);
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (!in_memory()) {
    // Segments overlapping [durable, target), oldest first. Every byte of a
    // segment's range below the frontier belongs to a block or a skip block;
    // dead zones lie between segments, so clipping to each segment skips them.
    std::vector<const LogSegment*> segs;
    {
      std::lock_guard<std::mutex> g(segment_mu_);
      for (auto it = segments_.rbegin();
           it != segments_.rend() && (*it)->end_offset > durable; ++it) {
        if ((*it)->start_offset < target) segs.push_back(it->get());
      }
    }
    for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
      const LogSegment* seg = *it;
      // The bytes are complete, so committers may already be waiting on
      // them. Refuse to advance durable_offset_ so no commit is acknowledged
      // whose bytes never landed, and degrade: stall on out-of-space, which
      // is transient; poison on anything else.
      if (ERMIA_UNLIKELY(!WriteExtent(*seg,
                                      std::max(durable, seg->start_offset),
                                      std::min(target, seg->end_offset)))) {
        const int err = errno;
        if (err == ENOSPC || err == EDQUOT) {
          EnterStall(err);
        } else {
          Poison(err);
        }
        return;
      }
    }
    // fsync failure is never survivable as a retry (fsync-gate semantics):
    // after a failed fdatasync the page cache state is unknowable, so
    // advancing durable_offset_ — and thereby acking commits — would be a
    // lie, now or on any later attempt. Poison.
    if (config_.synchronous_commit) {
      for (const LogSegment* seg : segs) {
        if (ERMIA_UNLIKELY(fault::Fdatasync(seg->fd) != 0)) {
          Poison(errno);
          return;
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lk(flush_mu_);
    durable_offset_.store(target, std::memory_order_release);
    released_offset_.store(target, std::memory_order_release);
  }
  durable_cv_.notify_all();
  if (ERMIA_UNLIKELY(health() == LogHealth::kStalled)) ResumeFromStall(target);
  if (metrics_ != nullptr) {
    // Batch size counts the whole durability advance (group-commit batch),
    // including skip blocks and alignment, which is the quantity that drives
    // buffer sizing; latency is the wall time of this pass.
    const uint64_t batch = target - durable;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    metrics_->Inc(metrics::Ctr::kLogFlushes);
    metrics_->Inc(metrics::Ctr::kLogFlushedBytes, batch);
    metrics_->Observe(metrics::Hist::kLogFlushBytes, batch);
    metrics_->Observe(metrics::Hist::kLogFlushLatencyUs,
                      static_cast<uint64_t>(us));
  }
  if (ERMIA_UNLIKELY(traced)) {
    trace::Emit(trace::Event::kLogFlushEnd, 0, target - durable, 0);
  }
}

bool LogManager::WriteExtent(const LogSegment& seg, uint64_t begin,
                             uint64_t end) {
  // At most two pwrites: the extent is shorter than the ring, so it wraps
  // at most once.
  while (begin < end) {
    const uint64_t n = std::min(end - begin, ring_.ContiguousFrom(begin));
    if (!fault::PwriteAll(seg.fd, ring_.At(begin), n,
                          static_cast<off_t>(seg.FileOffset(begin)))) {
      return false;
    }
    begin += n;
  }
  return true;
}

void LogManager::EnterStall(int err) {
  if (health() == LogHealth::kHealthy) {
    stall_backoff_ms_ = std::max<uint64_t>(1, config_.log_stall_retry_initial_ms);
    stall_retries_ = 0;
    health_.store(static_cast<uint32_t>(LogHealth::kStalled),
                  std::memory_order_release);
    if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kLogStalls);
    if (ERMIA_UNLIKELY(trace::Active())) {
      trace::Emit(trace::Event::kLogStallBegin, 0, DurableOffset(),
                  static_cast<uint64_t>(err));
    }
    std::fprintf(stderr,
                 "ermia: log stalled (%s) at durable offset %llu; "
                 "rejecting writes, retrying flush\n",
                 std::strerror(err),
                 static_cast<unsigned long long>(DurableOffset()));
    // Wake the WaitForDurable callers that give up on a stall.
    {
      std::lock_guard<std::mutex> lk(flush_mu_);
    }
    durable_cv_.notify_all();
  } else {
    // Retry failed again: grow the backoff toward the cap.
    stall_backoff_ms_ =
        std::min(stall_backoff_ms_ * 2,
                 std::max<uint64_t>(1, config_.log_stall_retry_max_ms));
  }
  next_retry_at_ = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(stall_backoff_ms_);
}

void LogManager::ResumeFromStall(uint64_t target) {
  health_.store(static_cast<uint32_t>(LogHealth::kHealthy),
                std::memory_order_release);
  if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kLogStallResumes);
  if (ERMIA_UNLIKELY(trace::Active())) {
    trace::Emit(trace::Event::kLogStallEnd, 0, target, stall_retries_);
  }
  std::fprintf(stderr,
               "ermia: log stall resolved after %llu retries; durable "
               "offset %llu, admitting writes\n",
               static_cast<unsigned long long>(stall_retries_),
               static_cast<unsigned long long>(target));
  stall_retries_ = 0;
  stall_backoff_ms_ = 0;
}

void LogManager::Poison(int err) {
  health_.store(static_cast<uint32_t>(LogHealth::kPoisoned),
                std::memory_order_release);
  if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kLogPoisonEvents);
  if (ERMIA_UNLIKELY(trace::Active())) {
    trace::Emit(trace::Event::kLogPoisoned, 0, DurableOffset(),
                static_cast<uint64_t>(err));
  }
  std::fprintf(stderr,
               "ermia: log poisoned (%s); durability frozen at offset %llu, "
               "engine is read-only from here on\n",
               std::strerror(err),
               static_cast<unsigned long long>(DurableOffset()));
  ReleaseCompleted();
  // ReleaseCompleted only notifies when it releases bytes; always wake
  // WaitForDurable waiters so they observe the poisoned state and fail.
  {
    std::lock_guard<std::mutex> lk(flush_mu_);
  }
  durable_cv_.notify_all();
}

void LogManager::ReleaseCompleted() {
  // The bytes below the frontier leave the ring unwritten and are never acked.
  const uint64_t target = tracker_.complete_until();
  if (target > released_offset_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lk(flush_mu_);
      released_offset_.store(target, std::memory_order_release);
    }
    durable_cv_.notify_all();
  }
}

std::vector<LogSegment> LogManager::Segments() const {
  std::lock_guard<std::mutex> g(segment_mu_);
  std::vector<LogSegment> out;
  out.reserve(segments_.size());
  for (auto& seg : segments_) out.push_back(*seg);
  return out;
}

}  // namespace ermia
