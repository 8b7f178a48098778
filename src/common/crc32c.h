// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// CRC32C (Castagnoli), the checksum of log blocks and checkpoint files. On
// x86 with SSE4.2 it runs on the `crc32` instruction (about 8 bytes per
// cycle); elsewhere it falls back to a byte table. The choice is made once at
// run time, so one binary serves both.
//
// Streaming: Extend(Extend(0, a), b) == Value(a ++ b), so a writer can fold
// bytes in as it produces them and a reader can verify the whole span at
// once.
#ifndef ERMIA_COMMON_CRC32C_H_
#define ERMIA_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ermia {
namespace crc32c {

// Returns the CRC32C of the bytes whose CRC32C is `crc`, followed by
// `data[0, n)`. Start a stream with crc = 0.
uint32_t Extend(uint32_t crc, const void* data, size_t n);

inline uint32_t Value(const void* data, size_t n) { return Extend(0, data, n); }

// The two implementations behind Extend(), exposed so tests can check that
// they agree. ExtendSse42 may only be called when HasSse42() is true.
uint32_t ExtendTable(uint32_t crc, const void* data, size_t n);
uint32_t ExtendSse42(uint32_t crc, const void* data, size_t n);
bool HasSse42();

}  // namespace crc32c
}  // namespace ermia

#endif  // ERMIA_COMMON_CRC32C_H_
