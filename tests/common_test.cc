// Unit tests for src/common: Status/Result, strings, clock, random, sync.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/sync.h"
#include "common/types.h"

namespace godiva {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("no such unit");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such unit");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such unit");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFoundError("x"), NotFoundError("x"));
  EXPECT_FALSE(NotFoundError("x") == NotFoundError("y"));
  EXPECT_FALSE(NotFoundError("x") == InvalidArgumentError("x"));
  EXPECT_EQ(Status::Ok(), Status());
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("m").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExistsError("m").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("m").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhaustedError("m").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(DeadlineExceededError("m").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(AbortedError("m").code(), StatusCode::kAborted);
  EXPECT_EQ(DataLossError("m").code(), StatusCode::kDataLoss);
  EXPECT_EQ(UnimplementedError("m").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(IoError("m").code(), StatusCode::kIoError);
  EXPECT_EQ(InternalError("m").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
  Result<std::unique_ptr<int>> moved(std::make_unique<int>(8));
  std::unique_ptr<int> w = *std::move(moved);  // moves, does not copy
  EXPECT_EQ(*w, 8);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return InvalidArgumentError("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  GODIVA_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  Status s = UseAssignOrReturn(-1, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DataTypeTest, SizesAndNames) {
  EXPECT_EQ(SizeOf(DataType::kByte), 1);
  EXPECT_EQ(SizeOf(DataType::kString), 1);
  EXPECT_EQ(SizeOf(DataType::kInt32), 4);
  EXPECT_EQ(SizeOf(DataType::kInt64), 8);
  EXPECT_EQ(SizeOf(DataType::kFloat32), 4);
  EXPECT_EQ(SizeOf(DataType::kFloat64), 8);
  EXPECT_EQ(DataTypeName(DataType::kFloat64), "FLOAT64");
  EXPECT_TRUE(IsValidDataType(0));
  EXPECT_TRUE(IsValidDataType(5));
  EXPECT_FALSE(IsValidDataType(6));
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

// What a default-formatted std::ostream prints for `value`: StrCat's
// reference.
template <typename T>
std::string Streamed(const T& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

struct OnlyStreamable {
  int id;
};

std::ostream& operator<<(std::ostream& os, const OnlyStreamable& value) {
  return os << "streamable#" << value.id;
}

TEST(StringsTest, StrCatPrintsWhatOstreamPrints) {
  const double inf = std::numeric_limits<double>::infinity();
  const char* c_string = "c-string";
  const std::string string = "string";
  const std::string_view view = "view";
  const OnlyStreamable streamable{7};
  EXPECT_EQ(StrCat(0), Streamed(0));
  EXPECT_EQ(StrCat(-42), Streamed(-42));
  EXPECT_EQ(StrCat(42u), Streamed(42u));
  EXPECT_EQ(StrCat(INT64_MIN), Streamed(INT64_MIN));
  EXPECT_EQ(StrCat(INT64_MAX), Streamed(INT64_MAX));
  EXPECT_EQ(StrCat(UINT64_MAX), Streamed(UINT64_MAX));
  EXPECT_EQ(StrCat(size_t{123456789}), Streamed(size_t{123456789}));
  EXPECT_EQ(StrCat('x'), Streamed('x'));
  EXPECT_EQ(StrCat(int8_t{65}), Streamed(int8_t{65}));
  EXPECT_EQ(StrCat(uint8_t{66}), Streamed(uint8_t{66}));
  EXPECT_EQ(StrCat(true), Streamed(true));
  EXPECT_EQ(StrCat(false), Streamed(false));
  for (double v : {0.0, -0.0, 0.1, 1e-5, 123456789.0, 1e21, 2.5, -1.0 / 3.0,
                   std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_EQ(StrCat(v), Streamed(v)) << Streamed(v);
  }
  for (float v : {0.0f, 0.1f, 3.14159274f, 1e-7f, 16777216.0f}) {
    EXPECT_EQ(StrCat(v), Streamed(v)) << Streamed(v);
  }
  EXPECT_EQ(StrCat(c_string), Streamed(c_string));
  EXPECT_EQ(StrCat(string), Streamed(string));
  EXPECT_EQ(StrCat(view), Streamed(view));
  EXPECT_EQ(StrCat(streamable), Streamed(streamable));
  std::ostringstream mixed;
  mixed << "unit " << string << ": " << -3 << ' ' << 0.25 << ' ' << true
        << ' ' << view << ' ' << streamable << ' ' << size_t{9} << c_string;
  EXPECT_EQ(StrCat("unit ", string, ": ", -3, ' ', 0.25, ' ', true, ' ', view,
                   ' ', streamable, ' ', size_t{9}, c_string),
            mixed.str());
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(384LL * 1024 * 1024), "384.0 MiB");
}

TEST(StringsTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(0.0000005), "0.5 us");
  EXPECT_EQ(FormatSeconds(0.0123), "12.30 ms");
  EXPECT_EQ(FormatSeconds(4.5), "4.500 s");
}

TEST(StringsTest, Affixes) {
  EXPECT_TRUE(StartsWith("snapshot_0001", "snapshot"));
  EXPECT_FALSE(StartsWith("snap", "snapshot"));
  EXPECT_TRUE(EndsWith("file.gsdf", ".gsdf"));
  EXPECT_FALSE(EndsWith("file.gsd", ".gsdf"));
}

TEST(Crc32Test, KnownVectors) {
  // The catalogue value for "123456789" under CRC-32/IEEE is 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, ChunkedEqualsWhole) {
  const char* text = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32(text, 44);
  uint32_t part = Crc32(text, 17);
  part = Crc32(text + 17, 27, part);
  EXPECT_EQ(part, whole);
}

TEST(Crc32Test, SensitiveToSingleBit) {
  uint8_t a[32] = {0};
  uint8_t b[32] = {0};
  b[13] = 0x01;
  EXPECT_NE(Crc32(a, 32), Crc32(b, 32));
}

// CRC-32/IEEE one bit at a time, straight from the reflected polynomial:
// no tables, so it shares nothing with the implementation under test.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBitwiseReference) {
  // Crc32 folds whole 16-byte blocks with 512-bit carry-less multiplies
  // once a buffer reaches 256 bytes (on a CPU with VPCLMULQDQ), else with
  // 128-bit ones once it reaches 64 bytes (on a CPU with PCLMULQDQ), and
  // leaves the rest to the portable loop, which consumes 16-byte slices
  // and then a byte-wise tail. Every length up to 1 KiB at every start
  // offset modulo 16 crosses both entry points and each block/tail split
  // at each load alignment; 256·k ± 1 lengths straddle each extra 256-byte
  // step; the large buffers run long fold and slice loops. Each entry
  // point runs the whole sweep, so the narrower folds stay covered on a
  // host where Crc32 never reaches them for long buffers.
  using CrcFn = uint32_t (*)(const void*, int64_t, uint32_t);
  constexpr size_t kLarge = (size_t{1} << 20) + 4099;
  std::vector<uint8_t> buffer(16 + kLarge + 64);
  Random rng(0xC4C32);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.NextUint64());
  std::vector<size_t> long_lengths = {size_t{1} << 16, (size_t{1} << 16) + 9,
                                      size_t{1} << 20, kLarge};
  for (size_t k = 1; k <= 12; ++k) {
    long_lengths.push_back(256 * k - 1);
    long_lengths.push_back(256 * k + 1);
  }
  constexpr size_t kLongOffsets[] = {0, 3};
  std::vector<uint32_t> long_expected;  // per length, per offset
  for (size_t length : long_lengths) {
    for (size_t offset : kLongOffsets) {
      long_expected.push_back(
          BitwiseCrc32(buffer.data() + offset, length, 0));
    }
  }
  for (const auto& [name, crc32] :
       {std::pair<const char*, CrcFn>{"Crc32", &Crc32},
        std::pair<const char*, CrcFn>{"Clmul128Crc32",
                                      &detail::Clmul128Crc32},
        std::pair<const char*, CrcFn>{"PortableCrc32",
                                      &detail::PortableCrc32}}) {
    SCOPED_TRACE(name);
    for (size_t offset = 0; offset < 16; ++offset) {
      const uint8_t* data = buffer.data() + offset;
      for (size_t length = 0; length <= 1024; ++length) {
        ASSERT_EQ(crc32(data, static_cast<int64_t>(length), 0),
                  BitwiseCrc32(data, length, 0))
            << "offset " << offset << ", length " << length;
      }
    }
    const uint32_t* expected = long_expected.data();
    for (size_t length : long_lengths) {
      for (size_t offset : kLongOffsets) {
        EXPECT_EQ(crc32(buffer.data() + offset, static_cast<int64_t>(length),
                        0),
                  *expected++)
            << "offset " << offset << ", length " << length;
      }
    }

    // Seed chaining: a buffer split at any point and checksummed in two
    // calls, the second seeded with the first's result, equals one call —
    // from a zero seed and from arbitrary ones.
    const uint8_t* data = buffer.data() + 5;
    constexpr size_t kChained = 1024 + 37;
    for (uint32_t seed : {0u, 0xFFFFFFFFu, 0x1234ABCDu}) {
      const uint32_t whole = BitwiseCrc32(data, kChained, seed);
      ASSERT_EQ(crc32(data, kChained, seed), whole) << "seed " << seed;
      for (size_t split = 0; split <= kChained; ++split) {
        uint32_t first = crc32(data, static_cast<int64_t>(split), seed);
        ASSERT_EQ(crc32(data + split, static_cast<int64_t>(kChained - split),
                        first),
                  whole)
            << "seed " << seed << ", split " << split;
      }
    }
  }
  // The sweep above reached only the folds this CPU has: say so rather
  // than pass as if it had checked them all.
  if (detail::Crc32FoldBits() < 512) {
    GTEST_SKIP() << "Crc32 folds at most " << detail::Crc32FoldBits()
                 << " bits on this CPU: the 512-bit fold was not reached";
  }
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(1234), b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BoundedStaysInBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(ClockTest, StopwatchAdvances) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(sw.ElapsedSeconds(), 0.004);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 0.004);
}

TEST(ClockTest, TimeAccumulatorSumsAcrossThreads) {
  TimeAccumulator acc;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&acc] { acc.Add(std::chrono::milliseconds(10)); });
  }
  for (auto& th : threads) th.join();
  EXPECT_NEAR(acc.TotalSeconds(), 0.040, 1e-9);
  acc.Reset();
  EXPECT_EQ(acc.TotalSeconds(), 0.0);
}

TEST(ClockTest, ConversionRoundTrip) {
  Duration d = FromSeconds(1.25);
  EXPECT_NEAR(ToSeconds(d), 1.25, 1e-9);
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Semaphore sem(2);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        SemaphoreGuard guard(&sem);
        int now = ++inside;
        int expected = max_inside.load();
        while (now > expected &&
               !max_inside.compare_exchange_weak(expected, now)) {
        }
        --inside;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(max_inside.load(), 2);
  EXPECT_GE(max_inside.load(), 1);
}

TEST(SemaphoreTest, TryAcquire) {
  Semaphore sem(1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
  sem.Release();
}

TEST(SemaphoreTest, OccupancyAccessors) {
  Semaphore sem(3);
  EXPECT_EQ(sem.slots(), 3);
  EXPECT_EQ(sem.available(), 3);
  EXPECT_EQ(sem.in_use(), 0);
  sem.Acquire();
  sem.Acquire();
  EXPECT_EQ(sem.available(), 1);
  EXPECT_EQ(sem.in_use(), 2);
  sem.Release();
  sem.Release();
  EXPECT_EQ(sem.available(), 3);
  EXPECT_EQ(sem.in_use(), 0);
}

TEST(SemaphoreTest, ReleaseNWakesMultipleWaiters) {
  Semaphore sem(3);
  sem.Acquire();
  sem.Acquire();
  sem.Acquire();
  std::atomic<int> acquired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      sem.Acquire();
      ++acquired;
    });
  }
  // All three are blocked on an empty semaphore; one batched release must
  // wake all of them.
  sem.ReleaseN(3);
  for (auto& th : threads) th.join();
  EXPECT_EQ(acquired.load(), 3);
  EXPECT_EQ(sem.available(), 0);
  EXPECT_EQ(sem.in_use(), 3);
  sem.ReleaseN(3);
  EXPECT_EQ(sem.available(), 3);
}

TEST(SemaphoreTest, TryAcquireContention) {
  Semaphore sem(2);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (!sem.TryAcquire()) continue;
        ++successes;
        int now = ++inside;
        int expected = max_inside.load();
        while (now > expected &&
               !max_inside.compare_exchange_weak(expected, now)) {
        }
        --inside;
        sem.Release();
      }
    });
  }
  for (auto& th : threads) th.join();
  // TryAcquire must respect the slot bound under contention and never
  // leak a slot on the failure path.
  EXPECT_LE(max_inside.load(), 2);
  EXPECT_GE(successes.load(), 1);
  EXPECT_EQ(sem.available(), 2);
  EXPECT_EQ(sem.in_use(), 0);
}

}  // namespace
}  // namespace godiva
