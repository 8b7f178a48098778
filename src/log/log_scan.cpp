#include "log/log_scan.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/fault_injection.h"

namespace ermia {

namespace {
constexpr uint64_t kHeaderSize = sizeof(LogBlockHeader);
// Bytes per read: large enough that syscalls and the per-chunk handoff to
// replay workers are noise, small enough to stay cache- and RSS-friendly.
constexpr size_t kChunkBytes = size_t{4} << 20;
}

LogScanner::LogScanner(std::string dir) : dir_(std::move(dir)) {}

LogScanner::~LogScanner() {
  for (auto& seg : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
}

Status LogScanner::Init() {
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return Status::IOError("cannot open log dir " + dir_);
  struct dirent* ent;
  while ((ent = ::readdir(d)) != nullptr) {
    uint32_t segnum;
    uint64_t start, end;
    bool per_operation;
    if (!ParseSegmentFileName(ent->d_name, &segnum, &start, &end,
                              &per_operation)) {
      continue;
    }
    LogSegment seg;
    seg.segnum = segnum;
    seg.start_offset = start;
    seg.end_offset = end;
    seg.per_operation = per_operation;
    seg.path = dir_ + "/" + ent->d_name;
    seg.fd = ::open(seg.path.c_str(), O_RDONLY);
    if (seg.fd < 0) {
      ::closedir(d);
      return Status::IOError("cannot open segment " + seg.path);
    }
    segments_.push_back(seg);
  }
  ::closedir(d);
  std::sort(segments_.begin(), segments_.end(),
            [](const LogSegment& a, const LogSegment& b) {
              return a.start_offset < b.start_offset;
            });
  return Status::OK();
}

RecordCursor::RecordCursor(uint64_t block_offset, const char* payload,
                           size_t payload_size, uint32_t num_records)
    : block_offset_(block_offset),
      base_(payload),
      p_(payload),
      end_(payload + payload_size),
      remaining_(num_records) {}

bool RecordCursor::Next(RecordView* out) {
  if (remaining_ == 0) return false;
  --remaining_;
  if (p_ + sizeof(LogRecordHeader) > end_) {
    status_ = Status::Corruption("record overruns block");
    return false;
  }
  LogRecordHeader rh;
  std::memcpy(&rh, p_, sizeof rh);
  p_ += sizeof rh;
  if (p_ + rh.key_size + rh.payload_size > end_) {
    status_ = Status::Corruption("record payload overruns block");
    return false;
  }
  out->type = rh.type;
  out->fid = rh.fid;
  out->oid = rh.oid;
  out->key = p_;
  out->key_size = rh.key_size;
  p_ += rh.key_size;
  out->payload = p_;
  out->payload_size = rh.payload_size;
  out->payload_offset =
      block_offset_ + kHeaderSize + static_cast<uint64_t>(p_ - base_);
  p_ += rh.payload_size;
  return true;
}

Status LogScanner::ScanChunks(uint64_t from_offset, const ChunkFn& cb) {
  std::vector<char> buf;
  bool stop = false;
  for (const auto& seg : segments_) {
    if (seg.end_offset <= from_offset) continue;
    ERMIA_RETURN_NOT_OK(ScanSegment(seg, from_offset, cb, &buf, &stop));
    if (stop) break;
  }
  return Status::OK();
}

Status LogScanner::Scan(uint64_t from_offset,
                        const std::function<void(const ScannedBlock&)>& cb) {
  Status status;
  ERMIA_RETURN_NOT_OK(ScanChunks(from_offset, [&](const LogChunk& chunk) {
    for (size_t i = 0; i < chunk.blocks.size(); ++i) {
      const ChunkBlock& b = chunk.blocks[i];
      if (!b.PayloadValid()) return i;
      ScannedBlock block;
      block.offset = b.hdr.offset;
      block.end_offset = b.hdr.offset + b.hdr.total_size;
      block.records.reserve(b.hdr.num_records);
      RecordCursor cur(b.hdr.offset, b.payload, b.hdr.payload_bytes,
                       b.hdr.num_records);
      RecordView rv;
      while (cur.Next(&rv)) {
        ScannedRecord rec;
        rec.type = rv.type;
        rec.fid = rv.fid;
        rec.oid = rv.oid;
        rec.key.assign(rv.key, rv.key_size);
        rec.payload.assign(rv.payload, rv.payload_size);
        rec.payload_offset = rv.payload_offset;
        block.records.push_back(std::move(rec));
      }
      if (!cur.status().ok()) {
        status = cur.status();
        return i;
      }
      cb(block);
    }
    return chunk.blocks.size();
  }));
  return status;
}

// Walks one segment a chunk at a time. A chunk ends at its last whole block;
// a block that straddles the read is read again at the start of the next
// chunk (the buffer grows for a block larger than kChunkBytes).
Status LogScanner::ScanSegment(const LogSegment& seg, uint64_t from_offset,
                               const ChunkFn& cb, std::vector<char>* buf,
                               bool* stop) {
  struct stat st;
  if (::fstat(seg.fd, &st) != 0) return Status::IOError("fstat failed");
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  const uint64_t seg_span = seg.end_offset - seg.start_offset;

  uint64_t pos = 0;
  if (from_offset > seg.start_offset) pos = from_offset - seg.start_offset;

  LogChunk chunk;
  uint64_t want = kChunkBytes;
  while (pos + kHeaderSize <= file_size) {
    const uint64_t len = std::min(want, file_size - pos);
    if (buf->size() < len) buf->resize(len);
    bool hard_error = false;
    const uint64_t got = fault::PreadFull(seg.fd, buf->data(), len,
                                          static_cast<off_t>(pos), &hard_error);
    chunk.blocks.clear();
    uint64_t q = 0;           // walk position within the chunk
    bool torn = false;        // incoherent header: the log ends at q
    uint64_t straddle = 0;    // bytes the block at q needs, if cut off
    while (q + kHeaderSize <= got) {
      ChunkBlock b{};
      std::memcpy(&b.hdr, buf->data() + q, kHeaderSize);
      const LogBlockHeader& h = b.hdr;
      const uint64_t at = pos + q;
      if (h.magic != kLogBlockMagic || h.offset != seg.start_offset + at ||
          h.total_size < kHeaderSize || h.total_size > seg_span - at) {
        torn = true;
        break;
      }
      // Skip blocks carry no payload bytes on disk (the region past the
      // header is never written), so they are valid on the header alone.
      if (h.type != LogBlockType::kSkip) {
        const uint64_t need = kHeaderSize + h.payload_bytes;
        if (need > h.total_size || at + need > file_size) {
          torn = true;
          break;
        }
        if (q + need > got) {
          straddle = need;
          break;
        }
        b.payload = buf->data() + q + kHeaderSize;
        chunk.blocks.push_back(b);
      }
      q += h.total_size;
    }
    if (q == 0) {
      // Nothing whole in this read: an incoherent first header, a short
      // read, or a block larger than the buffer (then read it whole).
      if (torn || straddle == 0 || got < len) break;
      want = straddle;
      continue;
    }
    chunk.end_offset = seg.start_offset + pos + q;
    const size_t valid = cb(chunk);
    if (torn || valid < chunk.blocks.size()) break;
    pos += q;
    want = kChunkBytes;
  }
  *stop = pos + kHeaderSize <= file_size;
  return Status::OK();
}

uint64_t LogScanner::FindTail() {
  uint64_t tail =
      segments_.empty() ? kLogStartOffset : segments_.front().start_offset;
  (void)ScanChunks(0, [&](const LogChunk& chunk) {
    size_t valid = 0;
    while (valid < chunk.blocks.size() && chunk.blocks[valid].PayloadValid()) {
      ++valid;
    }
    tail = valid < chunk.blocks.size() ? chunk.blocks[valid].hdr.offset
                                       : chunk.end_offset;
    return valid;
  });
  return tail;
}

Status LogScanner::ReadAt(uint64_t offset, void* dst, uint32_t size) const {
  for (const auto& seg : segments_) {
    if (offset >= seg.start_offset && offset + size <= seg.end_offset) {
      bool hard_error = false;
      if (fault::PreadFull(seg.fd, dst, size,
                           static_cast<off_t>(offset - seg.start_offset),
                           &hard_error) != size) {
        return hard_error ? Status::IOError("payload read failed")
                          : Status::IOError("short payload read");
      }
      return Status::OK();
    }
  }
  return Status::NotFound("offset not in any segment");
}

}  // namespace ermia
