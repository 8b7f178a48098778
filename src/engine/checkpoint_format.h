// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// On-disk checkpoint format constants and file naming, shared by the writer
// (checkpoint.cpp) and the reader (recovery.cpp).
//
// Layout of a chk-<begin> data file:
//   u32 kCheckpointMagic
//   u32 num_indexes
//   u32 ntables, ntables × { u32 fid, u32 oid_high_water_mark }
//   num_indexes × {
//     u32 fid, u64 count,
//     count × { u16 klen, klen key bytes, u32 oid, u64 clsn,
//               u64 log_ptr, u32 size, u8 tombstone }
//   }
//
// Tombstoned records are dumped too (tombstone = 1): their index entries
// carry the only durable key→OID mapping once the original insert falls
// behind the replay start. A post-checkpoint update that reuses the OID
// (tombstone overwrite) logs no fresh index-insert record, so dropping
// tombstones from the checkpoint would strand such records unreachable
// after recovery.
//   u32 kCheckpointFooterMagic, u32 LogChecksum (CRC32C) of all preceding bytes
//
// The footer is written last: a torn or corrupt checkpoint fails
// verification and recovery falls back to the next-older marker (or a full
// log replay). The cmark-<begin> marker file (empty; its existence is the
// checkpoint's commit point) is created only after the data file AND its
// directory entry are durable.
#ifndef ERMIA_ENGINE_CHECKPOINT_FORMAT_H_
#define ERMIA_ENGINE_CHECKPOINT_FORMAT_H_

#include <cstdint>
#include <string>

namespace ermia {

inline constexpr uint32_t kCheckpointMagic = 0x45524D43;        // "ERMC"
inline constexpr uint32_t kCheckpointFooterMagic = 0x45524D46;  // "ERMF"

// Bytes of footer at the end of a checkpoint data file.
inline constexpr uint64_t kCheckpointFooterSize = 8;

std::string CheckpointDataName(uint64_t begin);
std::string CheckpointMarkerName(uint64_t begin);

}  // namespace ermia

#endif  // ERMIA_ENGINE_CHECKPOINT_FORMAT_H_
