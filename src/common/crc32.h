// CRC-32 (IEEE 802.3 polynomial, reflected) for dataset integrity
// checking. On an x86-64 CPU with PCLMULQDQ and SSE4.1, Crc32 folds 64
// bytes per step with carry-less multiplies over every whole 16-byte block
// of a buffer of at least 64 bytes; the CPU is checked once per process.
// Everything else (shorter buffers, the last size % 16 bytes, other CPUs
// and other targets) goes through a portable slicing-by-16 loop. Both
// paths are bit-identical to the classic byte-at-a-time table CRC, so
// existing gsdf checksums stay valid.
#ifndef GODIVA_COMMON_CRC32_H_
#define GODIVA_COMMON_CRC32_H_

#include <cstdint>

namespace godiva {

// CRC of `size` bytes at `data`, seeded with `seed` (pass the previous
// result to checksum data in chunks; 0 for a fresh computation).
uint32_t Crc32(const void* data, int64_t size, uint32_t seed = 0);

namespace detail {

// Crc32 computed by the portable loop alone, whatever the CPU: lets tests
// and benchmarks reach the fallback on a host that has PCLMULQDQ.
uint32_t PortableCrc32(const void* data, int64_t size, uint32_t seed = 0);

}  // namespace detail
}  // namespace godiva

#endif  // GODIVA_COMMON_CRC32_H_
