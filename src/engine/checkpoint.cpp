// Fuzzy checkpointing of the OID arrays (paper §3.7). The checkpoint walks
// every index and dumps (key, oid, clsn, durable log address, size) for the
// newest committed version of each live record — "the disk address of each
// valid OID entry". Record payloads stay in the log (the log is the
// database); recovery fetches them through the dumped addresses. A
// checkpoint-begin block marks where replay must start; the marker file is
// the atomic commit point of the checkpoint.
//
// Commit-point ordering (see docs/INTERNALS.md "Durability contract"):
//   1. chk data written, fdatasync'd
//   2. log directory fsync'd (the data file's dirent is durable)
//   3. cmark marker created
//   4. log directory fsync'd again (the marker's dirent is durable)
// A crash between any two steps can surface the data file without the
// marker (harmless: recovery ignores unmarked checkpoints) but never the
// marker without its data. The data file ends in a checksum footer so a
// torn checkpoint write is detected and recovery falls back to an older
// marker or full-log replay.
#include <fcntl.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "common/spin_latch.h"
#include "engine/database.h"
#include "engine/checkpoint_format.h"
#include "trace/trace.h"

namespace ermia {

namespace {

struct CheckpointEntry {
  Varstr key;
  Oid oid;
  uint64_t clsn;
  uint64_t log_ptr;
  uint32_t size;
  uint8_t tombstone;
};

// Appends to the checkpoint file while folding every byte into the running
// LogChecksum that becomes the footer checksum. Field-sized appends are
// coalesced into large writes (the syscall-per-field pattern dominated
// checkpoint cost for big indexes).
class ChecksummingWriter {
 public:
  explicit ChecksummingWriter(int fd) : fd_(fd) { buf_.reserve(kBufSize); }

  bool Append(const void* data, size_t n) {
    const auto* p = static_cast<const char*>(data);
    crc_ = crc32c::Extend(crc_, p, n);
    buf_.insert(buf_.end(), p, p + n);
    if (buf_.size() >= kBufSize) return Flush();
    return true;
  }

  bool Flush() {
    if (buf_.empty()) return true;
    const bool ok = fault::WriteAll(fd_, buf_.data(), buf_.size());
    buf_.clear();
    return ok;
  }

  uint32_t checksum() const { return crc_; }

 private:
  static constexpr size_t kBufSize = 1 << 16;

  int fd_;
  uint32_t crc_ = 0;
  std::vector<char> buf_;
};

// Newest committed version of the chain, resolving TID-stamped heads
// through the TID manager exactly like the reader paths do. A fuzzy scan
// that merely skipped TID stamps would drop a transaction that committed
// before the checkpoint's begin offset but had not finished post-commit
// stamping when the scan passed — its log block sits below the replay
// start, so the committed (possibly already acknowledged) write would
// vanish from recovery. Found by the crash-recovery harness.
const Version* NewestCommitted(TidManager& tids, const Version* head,
                               uint64_t* clsn_out) {
  const Version* v = head;
  Backoff backoff;
  while (v != nullptr) {
    const uint64_t s = v->clsn.load(std::memory_order_acquire);
    if (!IsTidStamp(s)) {
      *clsn_out = s;
      return v;
    }
    uint64_t cstamp = 0;
    switch (tids.Inquire(TidFromStamp(s), &cstamp)) {
      case TidManager::Outcome::kStale:
        continue;  // owner finished post-commit; the stamp is an LSN now
      case TidManager::Outcome::kCommitted:
        // Committed, stamping pending. InstallCommitBlock (which fixes
        // log_ptr) happens before the context publishes kCommitted.
        *clsn_out = cstamp;
        return v;
      case TidManager::Outcome::kInFlight:
        if (cstamp != 0) {
          // Pre-committing with a stamp that may precede our begin offset:
          // wait it out (pre-commit is short and never blocks on us).
          backoff.Pause();
          continue;
        }
        // Forward processing: any commit stamp it gets later is past the
        // checkpoint's begin offset, so the replay tail covers it.
        v = v->next.load(std::memory_order_acquire);
        continue;
      case TidManager::Outcome::kAborted:
        v = v->next.load(std::memory_order_acquire);
        continue;
    }
  }
  return nullptr;
}

}  // namespace

std::string CheckpointDataName(uint64_t begin) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "chk-%016" PRIx64, begin);
  return buf;
}

std::string CheckpointMarkerName(uint64_t begin) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "cmark-%016" PRIx64, begin);
  return buf;
}

Status Database::TakeCheckpoint(uint64_t* begin_offset_out) {
  if (log_.in_memory()) {
    return Status::NotSupported("checkpoint requires a log directory");
  }
  const uint64_t begin = log_.CurrentOffset();

  // Checkpoint-begin block (scan start marker; informational).
  {
    LogBlockHeader hdr{};
    hdr.magic = kLogBlockMagic;
    hdr.type = LogBlockType::kCheckpoint;
    Lsn lsn = log_.ReserveBlock(sizeof hdr);
    hdr.offset = lsn.offset();
    hdr.total_size = sizeof hdr;
    hdr.checksum = LogChecksum(nullptr, 0);
    log_.InstallBlock(lsn, &hdr, sizeof hdr);
  }
  const bool traced = trace::Active();
  if (ERMIA_UNLIKELY(traced)) {
    trace::Emit(trace::Event::kCkptBegin, 0, begin, 0);
  }

  // Collect under an epoch guard so the GC cannot free versions under us.
  EpochGuard guard(gc_epoch_);
  std::vector<std::vector<CheckpointEntry>> per_index(index_list_.size());
  for (size_t i = 0; i < index_list_.size(); ++i) {
    Index* index = index_list_[i];
    IndirectionArray& array = index->table()->array();
    index->tree().Scan(
        Slice(), Slice(),
        [&](const Slice& key, Oid oid) {
          uint64_t clsn = 0;
          const Version* v = NewestCommitted(tids_, array.Head(oid), &clsn);
          // Tombstones are dumped (see checkpoint_format.h): their index
          // entries may be the only durable key→OID mapping left.
          if (v == nullptr || v->log_ptr == 0) return true;
          CheckpointEntry e;
          e.key = Varstr(key);
          e.oid = oid;
          e.clsn = clsn;
          e.log_ptr = v->log_ptr;
          e.size = v->size;
          e.tombstone = v->tombstone ? 1 : 0;
          per_index[i].push_back(e);
          return true;
        },
        nullptr);
  }

  if (ERMIA_UNLIKELY(traced)) {
    trace::Emit(trace::Event::kCkptCollected, 0, begin, 0);
  }

  // Every address we recorded must be durable before the checkpoint counts.
  // A degraded log cannot promise that: on a poisoned or stalled log this
  // returns LogUnavailable and the checkpoint is refused rather than written
  // with addresses that may never become durable, or left parked behind a
  // full disk on the maintenance thread.
  ERMIA_RETURN_NOT_OK(
      log_.WaitForDurable(log_.CurrentOffset(), /*stall_fails=*/true));

  const std::string data_path =
      config_.log_dir + "/" + CheckpointDataName(begin);
  int fd = fault::CreateFile(data_path.c_str(),
                             O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("cannot create " + data_path);

  ChecksummingWriter w(fd);
  bool ok = true;
  uint32_t header[2] = {kCheckpointMagic,
                        static_cast<uint32_t>(index_list_.size())};
  ok = ok && w.Append(header, sizeof header);
  // Table OID high-water marks.
  uint32_t ntables = static_cast<uint32_t>(table_list_.size());
  ok = ok && w.Append(&ntables, sizeof ntables);
  for (Table* t : table_list_) {
    uint32_t rec[2] = {t->fid(), t->array().HighWaterMark()};
    ok = ok && w.Append(rec, sizeof rec);
  }
  for (size_t i = 0; i < index_list_.size(); ++i) {
    uint32_t fid = index_list_[i]->fid();
    uint64_t count = per_index[i].size();
    ok = ok && w.Append(&fid, sizeof fid);
    ok = ok && w.Append(&count, sizeof count);
    for (const auto& e : per_index[i]) {
      uint16_t klen = static_cast<uint16_t>(e.key.size());
      ok = ok && w.Append(&klen, sizeof klen);
      ok = ok && w.Append(e.key.data(), klen);
      ok = ok && w.Append(&e.oid, sizeof e.oid);
      ok = ok && w.Append(&e.clsn, sizeof e.clsn);
      ok = ok && w.Append(&e.log_ptr, sizeof e.log_ptr);
      ok = ok && w.Append(&e.size, sizeof e.size);
      ok = ok && w.Append(&e.tombstone, sizeof e.tombstone);
    }
  }
  // Footer: magic + checksum over everything above. Written last, so a torn
  // checkpoint write cannot verify.
  if (ok) {
    uint32_t footer[2] = {kCheckpointFooterMagic, w.checksum()};
    ok = w.Flush() && fault::WriteAll(fd, footer, sizeof footer);
  }
  ok = ok && fault::Fdatasync(fd) == 0;
  ::close(fd);
  if (!ok) return Status::IOError("checkpoint write failed");
  // The data file's dirent must be durable before the marker exists in any
  // crash-surviving state.
  ERMIA_RETURN_NOT_OK(fault::SyncDir(config_.log_dir));
  if (ERMIA_UNLIKELY(traced)) {
    trace::Emit(trace::Event::kCkptDataSynced, 0, begin, 0);
  }

  // Checkpoint-end block, then the marker file: the marker's existence is
  // what recovery trusts (crash before this point = previous checkpoint).
  {
    LogBlockHeader hdr{};
    hdr.magic = kLogBlockMagic;
    hdr.type = LogBlockType::kCheckpoint;
    Lsn lsn = log_.ReserveBlock(sizeof hdr);
    hdr.offset = lsn.offset();
    hdr.total_size = sizeof hdr;
    hdr.checksum = LogChecksum(nullptr, 0);
    log_.InstallBlock(lsn, &hdr, sizeof hdr);
  }
  const std::string marker_path =
      config_.log_dir + "/" + CheckpointMarkerName(begin);
  int mfd = fault::CreateFile(marker_path.c_str(),
                              O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (mfd < 0) return Status::IOError("cannot create " + marker_path);
  ::close(mfd);
  // Final commit point: the marker's dirent is durable only after this.
  ERMIA_RETURN_NOT_OK(fault::SyncDir(config_.log_dir));
  if (ERMIA_UNLIKELY(traced)) {
    trace::Emit(trace::Event::kCkptEnd, 0, begin, 0);
  }
  if (begin_offset_out != nullptr) *begin_offset_out = begin;
  return Status::OK();
}

}  // namespace ermia
