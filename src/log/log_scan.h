// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Recovery-side scan of on-disk log segments (paper §3.7). Segment files are
// discovered and ordered purely from their names; the scan walks blocks in
// logical-offset order, jumps over skip blocks and dead zones, and truncates
// at the first hole/corruption — by construction (contiguous group flush) no
// committed-and-durable work lies beyond that point.
#ifndef ERMIA_LOG_LOG_SCAN_H_
#define ERMIA_LOG_LOG_SCAN_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "log/log_record.h"
#include "log/lsn.h"
#include "log/segment.h"

namespace ermia {

struct ScannedRecord {
  LogRecordType type;
  Fid fid;
  Oid oid;
  std::string key;
  std::string payload;
  // Logical offset where the payload bytes live (for checkpoint-pointed
  // reloads that fetch payloads directly).
  uint64_t payload_offset;
};

struct ScannedBlock {
  uint64_t offset;      // block start: the transaction's commit offset
  uint64_t end_offset;  // one past the block (offset + total_size)
  std::vector<ScannedRecord> records;
};

// A transaction or checkpoint block inside a LogChunk. Its header passed the
// coherence checks; its payload checksum is not verified yet, so callers
// check PayloadValid() before trusting the records.
struct ChunkBlock {
  LogBlockHeader hdr;
  const char* payload;  // hdr.payload_bytes record bytes, inside the chunk

  bool PayloadValid() const {
    return LogChecksum(payload, hdr.payload_bytes) == hdr.checksum;
  }
};

// One large read of a segment: the payload-bearing blocks it holds, in offset
// order (skip blocks carry nothing and are left out). Payload pointers are
// valid only while the callback that receives the chunk runs.
struct LogChunk {
  std::vector<ChunkBlock> blocks;
  uint64_t end_offset;  // one past the last block walked, skip blocks included
};

// Borrowed view of one record inside a block's payload.
struct RecordView {
  LogRecordType type;
  Fid fid;
  Oid oid;
  const char* key;
  uint16_t key_size;
  const char* payload;
  uint32_t payload_size;
  uint64_t payload_offset;  // durable log address of the payload bytes
};

// Walks the records of one block. Usage:
//   RecordCursor cur(b.hdr.offset, b.payload, b.hdr.payload_bytes,
//                    b.hdr.num_records);
//   RecordView rec;
//   while (cur.Next(&rec)) { ... }
//   ERMIA_RETURN_NOT_OK(cur.status());
class RecordCursor {
 public:
  RecordCursor(uint64_t block_offset, const char* payload, size_t payload_size,
               uint32_t num_records);

  // Fills *out with the next record; false at the end of the block or on a
  // malformed record (then status() is not OK).
  bool Next(RecordView* out);

  Status status() const { return status_; }

 private:
  uint64_t block_offset_;
  const char* base_;
  const char* p_;
  const char* end_;
  uint32_t remaining_;
  Status status_;
};

class LogScanner {
 public:
  explicit LogScanner(std::string dir);
  ~LogScanner();
  ERMIA_NO_COPY(LogScanner);

  // Enumerates and orders segment files. Fails if the directory is missing.
  Status Init();

  // Invokes `cb` for every transaction/checkpoint block with block offset
  // >= from_offset, in offset order. Returns OK on a clean truncation.
  Status Scan(uint64_t from_offset,
              const std::function<void(const ScannedBlock&)>& cb);

  // Reads the log from `from_offset` in chunks of several MiB and hands each
  // to `cb`, which returns how many of the chunk's leading blocks have a
  // valid payload. The log ends at the first block with an incoherent header
  // or, when `cb` returns fewer than all, at the first invalid payload:
  // by construction (contiguous group flush) nothing durable lies beyond.
  using ChunkFn = std::function<size_t(const LogChunk&)>;
  Status ScanChunks(uint64_t from_offset, const ChunkFn& cb);

  // Random access read of payload bytes at a logical offset.
  Status ReadAt(uint64_t offset, void* dst, uint32_t size) const;

  // One past the last valid block in the durable log (the truncation point a
  // restarted log manager resumes appending from). kLogStartOffset if empty.
  // Walks the same chunks as Scan(), so the adopted tail never lies past a
  // torn block.
  uint64_t FindTail();

  const std::vector<LogSegment>& segments() const { return segments_; }

  // True if any discovered segment was written under log_per_operation (its
  // name carries the "-perop" stamp). Such logs interleave records of
  // transactions that later aborted and must not be replayed; recovery
  // refuses them up front.
  bool any_per_operation() const {
    for (const LogSegment& seg : segments_) {
      if (seg.per_operation) return true;
    }
    return false;
  }

 private:
  Status ScanSegment(const LogSegment& seg, uint64_t from_offset,
                     const ChunkFn& cb, std::vector<char>* buf, bool* stop);

  std::string dir_;
  std::vector<LogSegment> segments_;  // ordered by start_offset, fds open
};

}  // namespace ermia

#endif  // ERMIA_LOG_LOG_SCAN_H_
