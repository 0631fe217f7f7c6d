#include "common/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace godiva {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected IEEE 802.3

// Slicing-by-16 tables: kTables[0] is the classic byte-at-a-time table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so sixteen
// lookups (one per input byte) advance the CRC by a whole 16-byte slice.
using Tables = std::array<std::array<uint32_t, 256>, 16>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

// Little-endian load assembled from bytes: alignment- and host-order-free,
// and compiled to a single load on little-endian targets.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// The four table lookups for one 32-bit word of a slice, where `slot` more
// words of the slice follow it.
inline uint32_t SliceWord(uint32_t word, int slot) {
  const int k = 4 * slot;
  return kTables[k + 3][word & 0xff] ^ kTables[k + 2][(word >> 8) & 0xff] ^
         kTables[k + 1][(word >> 16) & 0xff] ^ kTables[k][word >> 24];
}

// Advances `crc`, held inverted, over `size` bytes: 16-byte slices, then a
// byte-at-a-time tail.
uint32_t SliceBy16(const uint8_t* bytes, int64_t size, uint32_t crc) {
  for (; size >= 16; size -= 16, bytes += 16) {
    crc = SliceWord(LoadLe32(bytes) ^ crc, 3) ^
          SliceWord(LoadLe32(bytes + 4), 2) ^
          SliceWord(LoadLe32(bytes + 8), 1) ^
          SliceWord(LoadLe32(bytes + 12), 0);
  }
  for (int64_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ bytes[i]) & 0xff];
  }
  return crc;
}

#if defined(__x86_64__)

// Carry-less-multiply folding for the reflected IEEE polynomial P(x), after
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009). Each k is
// reflect32(x^n mod P(x)) << 1: n = 512 ± 32 for k1/k2, which fold a
// 128-bit lane 512 bits forward; n = 128 ± 32 for k3/k4, which fold it 128
// bits forward; n = 64 for k5, which folds 64 bits into 32. The Barrett
// reduction uses P' = reflect33(P(x)) and mu = reflect33(x^64 / P(x)).
#define GODIVA_CLMUL __attribute__((target("pclmul,sse4.1")))

GODIVA_CLMUL inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Multiplies each 64-bit half of `acc` by its half of `k` (low by low,
// high by high) and adds `next`: `acc` moves forward by the distance `k`
// encodes and absorbs the block that starts there.
GODIVA_CLMUL inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

// Advances `crc`, held inverted, over `size` bytes. Requires size >= 64 and
// size % 16 == 0; returns the state SliceBy16 would have returned.
GODIVA_CLMUL uint32_t FoldClmul(const uint8_t* bytes, int64_t size,
                                uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four lanes, 64 bytes per step; the state enters the first lane.
  __m128i x0 = _mm_xor_si128(Load128(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(bytes + 16);
  __m128i x2 = Load128(bytes + 32);
  __m128i x3 = Load128(bytes + 48);
  for (bytes += 64, size -= 64; size >= 64; bytes += 64, size -= 64) {
    x0 = Fold(x0, k1k2, Load128(bytes));
    x1 = Fold(x1, k1k2, Load128(bytes + 16));
    x2 = Fold(x2, k1k2, Load128(bytes + 32));
    x3 = Fold(x3, k1k2, Load128(bytes + 48));
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; size >= 16; bytes += 16, size -= 16) {
    x0 = Fold(x0, k3k4, Load128(bytes));
  }

  // 128 bits to 64 (low half times k4), then 64 to 32 (times k5).
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

  // Barrett reduction: the quotient is floor(x0 * mu), and x0 minus the
  // quotient times P' leaves the remainder in bits 32..63.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#undef GODIVA_CLMUL

bool HasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32(const void* data, int64_t size, uint32_t seed) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
#if defined(__x86_64__)
  static const bool has_clmul = HasClmul();
  if (size >= 64 && has_clmul) {
    const int64_t folded = size & ~int64_t{15};
    crc = FoldClmul(bytes, folded, crc);
    bytes += folded;
    size -= folded;
  }
#endif
  return ~SliceBy16(bytes, size, crc);
}

namespace detail {

uint32_t PortableCrc32(const void* data, int64_t size, uint32_t seed) {
  return ~SliceBy16(static_cast<const uint8_t*>(data), size, ~seed);
}

}  // namespace detail
}  // namespace godiva
