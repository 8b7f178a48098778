// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// On-disk log formats. A transaction's log is one *block*: a block header
// followed by back-to-back records (insert/update/delete). Skip blocks close
// segments and absorb aborted reservations; checkpoint begin/end blocks
// bracket fuzzy OID-array checkpoints (§3.7).
#ifndef ERMIA_LOG_LOG_RECORD_H_
#define ERMIA_LOG_LOG_RECORD_H_

#include <cstddef>
#include <cstdint>

#include "common/crc32c.h"

namespace ermia {

using Fid = uint32_t;  // table (file) id
using Oid = uint32_t;  // logical object id: slot in an indirection array

inline constexpr uint32_t kLogBlockMagic = 0x45524D31;  // "ERM1"

enum class LogBlockType : uint8_t {
  kTxn = 1,         // committed transaction block
  kSkip = 2,        // hole: aborted reservation or segment-closing record
  kCheckpoint = 3,  // checkpoint begin/end marker block
};

// Fixed-size block header. `total_size` includes the header itself and, for
// skip blocks, the entire skipped region (the region's bytes are not written;
// a scanner jumps over them).
struct LogBlockHeader {
  uint32_t magic;
  LogBlockType type;
  uint8_t pad[3];
  uint64_t offset;      // logical LSN offset of this block (self-check)
  uint32_t total_size;  // bytes covered by this block, header included
  uint32_t num_records;
  uint32_t payload_bytes;  // bytes of record data following the header
  uint32_t checksum;       // LogChecksum of the record data
};
static_assert(sizeof(LogBlockHeader) == 32, "block header layout");

enum class LogRecordType : uint8_t {
  kInsert = 1,       // table record creation (payload = record value)
  kUpdate = 2,       // table record overwrite (payload = new value)
  kDelete = 3,       // table record tombstone (no payload)
  kCheckpointBegin = 4,
  kCheckpointEnd = 5,
  kIndexInsert = 6,  // index entry (key bytes logged, no payload)
};

// Per-record header, followed by `key_size` key bytes then `payload_size`
// value bytes. Keys are logged so indexes can be rebuilt during recovery
// without external schema knowledge.
struct LogRecordHeader {
  LogRecordType type;
  uint8_t pad[3];
  Fid fid;
  Oid oid;
  uint16_t key_size;
  uint16_t pad2;
  uint32_t payload_size;
};
static_assert(sizeof(LogRecordHeader) == 20, "record header layout");

// The checksum of log blocks and checkpoint files: CRC32C, which detects torn
// writes and bit flips, and streams (crc32c::Extend) for writers that
// produce their bytes piecewise.
inline uint32_t LogChecksum(const void* data, size_t n) {
  return crc32c::Value(data, n);
}

}  // namespace ermia

#endif  // ERMIA_LOG_LOG_RECORD_H_
