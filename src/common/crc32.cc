#include "common/crc32.h"

#include <algorithm>
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

// Folds the four lanes x0..x3 (x0 over the earliest bytes) into one, then
// each remaining whole 16-byte block of the `size` bytes at `bytes`, and
// reduces the result to the CRC state, held inverted. Always inlined, so
// the 512-bit fold runs it in its own encoding: a call from there into
// legacy-SSE code with the upper halves of the vector registers dirty
// costs more than a 4 KiB fold.
GODIVA_CLMUL inline __attribute__((always_inline)) uint32_t FinishClmul(
    __m128i x0, __m128i x1, __m128i x2, __m128i x3, const uint8_t* bytes,
    int64_t size) {
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

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

// Advances `crc`, held inverted, over `size` bytes. Requires size >= 64 and
// size % 16 == 0; returns the state SliceBy16 would have returned.
GODIVA_CLMUL uint32_t FoldClmul(const uint8_t* bytes, int64_t size,
                                uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);

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
  return FinishClmul(x0, x1, x2, x3, bytes, size);
}

// The same folds four 128-bit lanes at a time with VPCLMULQDQ. Only
// intrinsics that take no undefined operand are used: GCC 12 reports the
// _mm*_undefined inside broadcasts, extracts and casts as uninitialized.
#define GODIVA_VPCLMUL \
  __attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.1")))

GODIVA_VPCLMUL inline __m512i Load512(const uint8_t* p) {
  return _mm512_loadu_si512(p);
}

// Fold on each of the four 128-bit lanes of `acc`, with `k` in every lane.
GODIVA_VPCLMUL inline __m512i Fold512(__m512i acc, __m512i k, __m512i next) {
  return _mm512_xor_si512(
      _mm512_xor_si512(_mm512_clmulepi64_epi128(acc, k, 0x00),
                       _mm512_clmulepi64_epi128(acc, k, 0x11)),
      next);
}

// Advances `crc`, held inverted, over `size` bytes. Requires size >= 256
// and size % 16 == 0; returns the state SliceBy16 would have returned.
GODIVA_VPCLMUL uint32_t FoldVpclmul(const uint8_t* bytes, int64_t size,
                                    uint32_t crc) {
  // n = 2048 ± 32: folds each lane 256 bytes forward; n = 512 ± 32 (k1/k2
  // above): 64 bytes forward.
  const __m512i k16 = _mm512_set_epi64(0x1322d1430, 0x11542778a, 0x1322d1430,
                                       0x11542778a, 0x1322d1430, 0x11542778a,
                                       0x1322d1430, 0x11542778a);
  const __m512i k4 = _mm512_set_epi64(0x1c6e41596, 0x154442bd4, 0x1c6e41596,
                                      0x154442bd4, 0x1c6e41596, 0x154442bd4,
                                      0x1c6e41596, 0x154442bd4);

  // Sixteen lanes, 256 bytes per step; the state enters the first lane.
  __m512i x0 = _mm512_xor_si512(
      Load512(bytes),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(crc))));
  __m512i x1 = Load512(bytes + 64);
  __m512i x2 = Load512(bytes + 128);
  __m512i x3 = Load512(bytes + 192);
  for (bytes += 256, size -= 256; size >= 256; bytes += 256, size -= 256) {
    x0 = Fold512(x0, k16, Load512(bytes));
    x1 = Fold512(x1, k16, Load512(bytes + 64));
    x2 = Fold512(x2, k16, Load512(bytes + 128));
    x3 = Fold512(x3, k16, Load512(bytes + 192));
  }

  // Sixteen lanes into four, then the remaining 64-byte blocks.
  x0 = Fold512(x0, k4, x1);
  x0 = Fold512(x0, k4, x2);
  x0 = Fold512(x0, k4, x3);
  for (; size >= 64; bytes += 64, size -= 64) {
    x0 = Fold512(x0, k4, Load512(bytes));
  }

  alignas(64) uint8_t lanes[64];
  _mm512_store_si512(lanes, x0);
  return FinishClmul(Load128(lanes), Load128(lanes + 16), Load128(lanes + 32),
                     Load128(lanes + 48), bytes, size);
}

#undef GODIVA_VPCLMUL
#undef GODIVA_CLMUL

bool HasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

bool HasVpclmul() {
  __builtin_cpu_init();
  return HasClmul() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("vpclmulqdq");
}

#endif  // defined(__x86_64__)

// Crc32 with folds no wider than `max_bits`: whole 16-byte blocks of a
// buffer of at least 256 bytes (512-bit fold) or 64 bytes (128-bit fold)
// fold with carry-less multiplies, the rest through the portable loop.
uint32_t Checksum(const void* data, int64_t size, uint32_t seed,
                  int max_bits) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
#if defined(__x86_64__)
  const int bits = std::min(max_bits, detail::Crc32FoldBits());
  const int64_t folded = size & ~int64_t{15};
  if (bits >= 512 && size >= 256) {
    crc = FoldVpclmul(bytes, folded, crc);
  } else if (bits >= 128 && size >= 64) {
    crc = FoldClmul(bytes, folded, crc);
  } else {
    return ~SliceBy16(bytes, size, crc);
  }
  return ~SliceBy16(bytes + folded, size - folded, crc);
#else
  (void)max_bits;
  return ~SliceBy16(bytes, size, crc);
#endif
}

}  // namespace

uint32_t Crc32(const void* data, int64_t size, uint32_t seed) {
  return Checksum(data, size, seed, 512);
}

namespace detail {

uint32_t Clmul128Crc32(const void* data, int64_t size, uint32_t seed) {
  return Checksum(data, size, seed, 128);
}

uint32_t PortableCrc32(const void* data, int64_t size, uint32_t seed) {
  return Checksum(data, size, seed, 0);
}

int Crc32FoldBits() {
#if defined(__x86_64__)
  static const int bits = HasVpclmul() ? 512 : HasClmul() ? 128 : 0;
  return bits;
#else
  return 0;
#endif
}

}  // namespace detail
}  // namespace godiva
