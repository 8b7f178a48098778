// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define ERMIA_CRC32C_X86 1
#endif

namespace ermia {
namespace crc32c {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // Castagnoli, bit-reflected

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? kPoly : 0u);
    t[i] = c;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

}  // namespace

uint32_t ExtendTable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return ~c;
}

#ifdef ERMIA_CRC32C_X86

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                         const void* data,
                                                         size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
#if defined(__x86_64__)
  uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<uint32_t>(c64);
#endif
  for (; n >= 4; n -= 4, p += 4) {
    uint32_t word;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u32(c, word);
  }
  for (; n > 0; --n, ++p) c = _mm_crc32_u8(c, *p);
  return ~c;
}

bool HasSse42() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}

#else

uint32_t ExtendSse42(uint32_t crc, const void* data, size_t n) {
  return ExtendTable(crc, data, n);
}

bool HasSse42() { return false; }

#endif

uint32_t Extend(uint32_t crc, const void* data, size_t n) {
  static const auto impl = HasSse42() ? &ExtendSse42 : &ExtendTable;
  return impl(crc, data, n);
}

}  // namespace crc32c
}  // namespace ermia
