// CRC-32 (IEEE 802.3 polynomial, reflected) for dataset integrity
// checking. On an x86-64 CPU with VPCLMULQDQ and AVX-512F, Crc32 folds 256
// bytes per step with 512-bit carry-less multiplies over every whole
// 16-byte block of a buffer of at least 256 bytes; with PCLMULQDQ and
// SSE4.1 it folds 64 bytes per step with 128-bit ones over a buffer of at
// least 64 bytes. The CPU is checked once per process. Everything else
// (shorter buffers, the last size % 16 bytes, other CPUs and other
// targets) goes through a portable slicing-by-16 loop. Every path is
// bit-identical to the classic byte-at-a-time table CRC, so existing gsdf
// checksums stay valid.
#ifndef GODIVA_COMMON_CRC32_H_
#define GODIVA_COMMON_CRC32_H_

#include <cstdint>

namespace godiva {

// CRC of `size` bytes at `data`, seeded with `seed` (pass the previous
// result to checksum data in chunks; 0 for a fresh computation).
uint32_t Crc32(const void* data, int64_t size, uint32_t seed = 0);

namespace detail {

// Crc32 with the 128-bit fold as its widest (the portable loop alone on a
// CPU without PCLMULQDQ): lets tests and benchmarks reach that fold on a
// host that has VPCLMULQDQ.
uint32_t Clmul128Crc32(const void* data, int64_t size, uint32_t seed = 0);

// Crc32 computed by the portable loop alone, whatever the CPU: lets tests
// and benchmarks reach the fallback on a host that has PCLMULQDQ.
uint32_t PortableCrc32(const void* data, int64_t size, uint32_t seed = 0);

// The widest fold Crc32 runs on this CPU, checked once per process: 512,
// 128, or 0 for the portable loop alone.
int Crc32FoldBits();

}  // namespace detail
}  // namespace godiva

#endif  // GODIVA_COMMON_CRC32_H_
