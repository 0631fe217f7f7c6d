// Tests for the Env VFS: SimEnv contents/delay-model/stats and PosixEnv
// round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "sim/env.h"
#include "sim/event_scheduler.h"
#include "sim/sim_env.h"
#include "sim/virtual_time.h"

namespace godiva {
namespace {

std::string WriteAndClose(Env* env, const std::string& path,
                          const std::string& contents) {
  auto file = env->NewWritableFile(path);
  EXPECT_TRUE(file.ok()) << file.status();
  EXPECT_TRUE(
      (*file)->Append(contents.data(), static_cast<int64_t>(contents.size()))
          .ok());
  EXPECT_TRUE((*file)->Close().ok());
  return path;
}

std::string ReadAll(Env* env, const std::string& path) {
  auto file = env->NewRandomAccessFile(path);
  EXPECT_TRUE(file.ok()) << file.status();
  std::string out(static_cast<size_t>((*file)->Size()), '\0');
  EXPECT_TRUE(
      (*file)->Read(0, (*file)->Size(), out.data()).ok());
  return out;
}

SimEnv MakeInstantSimEnv() { return SimEnv(SimEnv::Options{}); }

TEST(SimEnvTest, WriteReadRoundTrip) {
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "dir/a.bin", "hello godiva");
  EXPECT_EQ(ReadAll(&env, "dir/a.bin"), "hello godiva");
}

TEST(SimEnvTest, PartialReads) {
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "f", "0123456789");
  auto file = env.NewRandomAccessFile("f");
  ASSERT_TRUE(file.ok());
  char buf[4];
  ASSERT_TRUE((*file)->Read(3, 4, buf).ok());
  EXPECT_EQ(std::string(buf, 4), "3456");
}

TEST(SimEnvTest, ReadPastEndFails) {
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "f", "abc");
  auto file = env.NewRandomAccessFile("f");
  ASSERT_TRUE(file.ok());
  char buf[8];
  Status s = (*file)->Read(1, 5, buf);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(SimEnvTest, MissingFileIsNotFound) {
  SimEnv env = MakeInstantSimEnv();
  EXPECT_EQ(env.NewRandomAccessFile("nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(env.GetFileSize("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(env.DeleteFile("nope").code(), StatusCode::kNotFound);
  EXPECT_FALSE(env.FileExists("nope"));
}

TEST(SimEnvTest, CreateTruncatesExisting) {
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "f", "long old contents");
  WriteAndClose(&env, "f", "new");
  EXPECT_EQ(ReadAll(&env, "f"), "new");
}

TEST(SimEnvTest, ListFilesByPrefixSorted) {
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "snap_002", "b");
  WriteAndClose(&env, "snap_001", "a");
  WriteAndClose(&env, "other", "c");
  auto files = env.ListFiles("snap_");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  EXPECT_EQ((*files)[0], "snap_001");
  EXPECT_EQ((*files)[1], "snap_002");
}

TEST(SimEnvTest, DeleteRemovesFile) {
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "f", "x");
  EXPECT_TRUE(env.DeleteFile("f").ok());
  EXPECT_FALSE(env.FileExists("f"));
}

TEST(SimEnvTest, StatsCountReadsSeeksAndBytes) {
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "f", std::string(1000, 'x'));
  auto file = env.NewRandomAccessFile("f");
  ASSERT_TRUE(file.ok());
  std::vector<char> buf(1000);
  // Sequential reads: first seeks, second is contiguous.
  ASSERT_TRUE((*file)->Read(0, 100, buf.data()).ok());
  ASSERT_TRUE((*file)->Read(100, 100, buf.data()).ok());
  // Back-seek.
  ASSERT_TRUE((*file)->Read(0, 100, buf.data()).ok());
  DiskStats stats = env.stats();
  EXPECT_EQ(stats.reads, 3);
  EXPECT_EQ(stats.seeks, 2);
  EXPECT_EQ(stats.bytes_read, 300);
}

TEST(SimEnvTest, SeparateFilesAlwaysSeek) {
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "a", std::string(100, 'a'));
  WriteAndClose(&env, "b", std::string(100, 'b'));
  auto fa = env.NewRandomAccessFile("a");
  auto fb = env.NewRandomAccessFile("b");
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  char buf[10];
  ASSERT_TRUE((*fa)->Read(0, 10, buf).ok());
  ASSERT_TRUE((*fb)->Read(0, 10, buf).ok());
  ASSERT_TRUE((*fa)->Read(10, 10, buf).ok());
  EXPECT_EQ(env.stats().seeks, 3);
}

TEST(SimEnvTest, ModeledTimeMatchesDiskModel) {
  for (bool de : {true, false}) {
    SCOPED_TRACE(de ? "discrete-event" : "scaled-sleep");
    std::optional<DiscreteEventScope> scope;
    if (de) scope.emplace();
    TimeScale scale(0.001);  // 1 modeled second = 1ms wall (scaled mode)
    SimEnv::Options options;
    options.disk.seek_time = std::chrono::milliseconds(500);  // huge, modeled
    options.disk.bytes_per_second = 1024.0 * 1024;
    options.time_scale = &scale;
    SimEnv env(options);
    WriteAndClose(&env, "f", std::string(1024 * 1024, 'x'));
    auto file = env.NewRandomAccessFile("f");
    ASSERT_TRUE(file.ok());
    std::vector<char> buf(1024 * 1024);
    Stopwatch sw;
    // seek (0.5 s modeled) + 1 MiB at 1 MiB/s (1 s modeled) = 1.5 s
    // modeled = 1.5 ms wall at scale 0.001, or exactly 1.5 virtual seconds
    // in discrete-event mode (the access is paid unbatched on the clock).
    ASSERT_TRUE((*file)->Read(0, 1024 * 1024, buf.data()).ok());
    double measured = sw.ElapsedSeconds();
    if (de) {
      EXPECT_NEAR(measured, 1.5, 1e-9);
    } else {
      EXPECT_GE(measured, 0.0014);
    }
    EXPECT_EQ(env.stats().modeled_read_seconds, 1.5);
  }
}

// The active scope alone is the mode: an env built from default Options
// under a DiscreteEventScope pays every access exactly on the virtual
// clock. Scaled-mode batching would defer these sub-millisecond (wall)
// costs, so read 0 would advance the clock by nothing.
TEST(SimEnvTest, ScopeAloneMakesEveryAccessExact) {
  DiscreteEventScope scope;
  TimeScale scale(0.02);
  DiskModel disk;
  disk.seek_time = std::chrono::milliseconds(9);
  disk.bytes_per_second = 35.0 * 1024 * 1024;
  SimEnv env(SimEnv::Options{.disk = disk, .time_scale = &scale});
  constexpr int kChunks = 16;
  constexpr int64_t kChunkBytes = 4096;
  WriteAndClose(&env, "f", std::string(kChunks * kChunkBytes, 'x'));
  auto file = env.NewRandomAccessFile("f");
  ASSERT_TRUE(file.ok());
  const Duration transfer = FromSeconds(kChunkBytes / disk.bytes_per_second);
  std::vector<char> buf(kChunkBytes);
  for (int i = 0; i < kChunks; ++i) {
    SCOPED_TRACE(i);
    const TimePoint start = Now();
    ASSERT_TRUE((*file)->Read(i * kChunkBytes, kChunkBytes, buf.data()).ok());
    // Sequential reads: only read 0 pays the seek (9,111,607 ns in all).
    const Duration expected = i == 0 ? disk.seek_time + transfer : transfer;
    EXPECT_EQ((Now() - start).count(), expected.count());
  }
}

TEST(SimEnvTest, TotalFileBytes) {
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "a", std::string(100, 'a'));
  WriteAndClose(&env, "b", std::string(50, 'b'));
  EXPECT_EQ(env.TotalFileBytes(), 150);
}

// ---- the block store --------------------------------------------------

constexpr int64_t kBlock = SimEnv::kBlockBytes;

// Deterministic bytes whose pattern does not repeat at block boundaries.
std::string Pattern(int64_t n, uint32_t seed) {
  std::string out(static_cast<size_t>(n), '\0');
  uint32_t x = seed * 2654435761u + 1;
  for (char& c : out) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  return out;
}

// Appends `contents` in pieces of 1, 7, 4093, 65536 and 1 MiB + 3 bytes,
// cycling, so pieces start and end at uneven offsets within blocks.
void AppendUnevenly(WritableFile* file, const std::string& contents) {
  constexpr int64_t kPieces[] = {1, 7, 4093, 65536, (1 << 20) + 3};
  int64_t at = 0;
  for (int i = 0; at < static_cast<int64_t>(contents.size()); ++i) {
    int64_t n = std::min<int64_t>(kPieces[i % 5],
                                  static_cast<int64_t>(contents.size()) - at);
    ASSERT_TRUE(file->Append(contents.data() + at, n).ok());
    at += n;
  }
}

std::string ReadRange(RandomAccessFile* file, int64_t offset, int64_t n) {
  std::string out(static_cast<size_t>(n), '\0');
  EXPECT_TRUE(file->Read(offset, n, out.data()).ok()) << offset << "+" << n;
  return out;
}

TEST(SimEnvBlockTest, UnevenAppendsReadBackAcrossBlockBoundaries) {
  const int64_t before = SimEnv::MappedBlocks();
  {
    SimEnv env = MakeInstantSimEnv();
    const int64_t sizes[] = {1, kBlock - 1, kBlock, kBlock + 1, 5 << 20};
    for (int64_t size : sizes) {
      SCOPED_TRACE(size);
      const std::string path = "f" + std::to_string(size);
      const std::string contents = Pattern(size, static_cast<uint32_t>(size));
      auto file = env.NewWritableFile(path);
      ASSERT_TRUE(file.ok());
      AppendUnevenly(file->get(), contents);
      ASSERT_TRUE((*file)->Close().ok());

      auto reader = env.NewRandomAccessFile(path);
      ASSERT_TRUE(reader.ok());
      ASSERT_EQ((*reader)->Size(), size);
      EXPECT_TRUE(ReadRange(reader->get(), 0, size) == contents);
      // Short reads straddling every block multiple and the uneven piece
      // boundaries of the first 2 MiB.
      std::vector<int64_t> cuts;
      for (int64_t b = kBlock; b < size; b += kBlock) cuts.push_back(b);
      for (int64_t at : {1, 8, 4101, 69637, 69637 + (1 << 20) + 3}) {
        if (at < size) cuts.push_back(at);
      }
      for (int64_t cut : cuts) {
        int64_t from = std::max<int64_t>(0, cut - 5);
        int64_t n = std::min<int64_t>(size, cut + 5) - from;
        EXPECT_EQ(ReadRange(reader->get(), from, n),
                  contents.substr(static_cast<size_t>(from),
                                  static_cast<size_t>(n)))
            << "around " << cut;
      }
    }
    EXPECT_EQ(env.TotalFileBytes(), 1 + (kBlock - 1) + kBlock + (kBlock + 1) +
                                        (5 << 20));
  }
  EXPECT_EQ(SimEnv::MappedBlocks(), before);
}

TEST(SimEnvBlockTest, NextFileContinuesTheBlockAClosedWriterLeftPartFull) {
  const int64_t before = SimEnv::MappedBlocks();
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "a", Pattern(1000, 1));
  EXPECT_EQ(SimEnv::MappedBlocks() - before, 1);
  WriteAndClose(&env, "b", Pattern(3000, 2));
  WriteAndClose(&env, "c", std::string());
  WriteAndClose(&env, "d", Pattern(kBlock - 4000, 3));
  // a, b and d fill exactly one block; the next byte needs a second one.
  EXPECT_EQ(SimEnv::MappedBlocks() - before, 1);
  WriteAndClose(&env, "e", Pattern(1, 4));
  EXPECT_EQ(SimEnv::MappedBlocks() - before, 2);

  EXPECT_EQ(ReadAll(&env, "a"), Pattern(1000, 1));
  EXPECT_EQ(ReadAll(&env, "b"), Pattern(3000, 2));
  EXPECT_EQ(ReadAll(&env, "c"), "");
  EXPECT_EQ(*env.GetFileSize("c"), 0);
  EXPECT_TRUE(ReadAll(&env, "d") == Pattern(kBlock - 4000, 3));
  EXPECT_EQ(ReadAll(&env, "e"), Pattern(1, 4));
}

TEST(SimEnvBlockTest, WritersAppendingAlternatelyKeepTheirOwnBytes) {
  const int64_t before = SimEnv::MappedBlocks();
  {
    SimEnv env = MakeInstantSimEnv();
    const std::string a = Pattern(3 * kBlock + 17, 5);
    const std::string b = Pattern(kBlock + 4099, 6);
    auto wa = env.NewWritableFile("a");
    auto wb = env.NewWritableFile("b");
    ASSERT_TRUE(wa.ok());
    ASSERT_TRUE(wb.ok());
    // A writer's block belongs to it until it closes, so the two streams
    // never share a block.
    size_t ia = 0;
    size_t ib = 0;
    for (int step = 0; ia < a.size() || ib < b.size(); ++step) {
      size_t n = static_cast<size_t>(1 + (step * 7919) % 300000);
      size_t na = std::min(n, a.size() - ia);
      size_t nb = std::min(n / 2 + 1, b.size() - ib);
      ASSERT_TRUE((*wa)->Append(a.data() + ia, static_cast<int64_t>(na)).ok());
      ASSERT_TRUE((*wb)->Append(b.data() + ib, static_cast<int64_t>(nb)).ok());
      ia += na;
      ib += nb;
    }
    // Readable before Close, as the bytes land.
    EXPECT_TRUE(ReadAll(&env, "a") == a);
    ASSERT_TRUE((*wa)->Close().ok());
    ASSERT_TRUE((*wb)->Close().ok());
    EXPECT_TRUE(ReadAll(&env, "a") == a);
    EXPECT_TRUE(ReadAll(&env, "b") == b);
    EXPECT_EQ(SimEnv::MappedBlocks() - before, 4 + 2);
  }
  EXPECT_EQ(SimEnv::MappedBlocks(), before);
}

TEST(SimEnvBlockTest, OpenReaderKeepsBytesThroughDeleteRenameAndTruncate) {
  const int64_t before = SimEnv::MappedBlocks();
  std::unique_ptr<RandomAccessFile> deleted;
  std::unique_ptr<RandomAccessFile> renamed_over;
  std::unique_ptr<RandomAccessFile> truncated;
  std::unique_ptr<SimEnv> clone;
  const std::string old_x = Pattern(kBlock + 300, 7);
  const std::string old_y = Pattern(5000, 8);
  const std::string old_z = Pattern(2 * kBlock, 9);
  {
    SimEnv env = MakeInstantSimEnv();
    WriteAndClose(&env, "x", old_x);
    WriteAndClose(&env, "y", old_y);
    WriteAndClose(&env, "z", old_z);
    WriteAndClose(&env, "empty", std::string());
    auto x = env.NewRandomAccessFile("x");
    auto y = env.NewRandomAccessFile("y");
    auto z = env.NewRandomAccessFile("z");
    ASSERT_TRUE(x.ok() && y.ok() && z.ok());
    deleted = std::move(*x);
    renamed_over = std::move(*y);
    truncated = std::move(*z);
    clone = env.Clone(SimEnv::Options{});

    ASSERT_TRUE(env.DeleteFile("x").ok());
    WriteAndClose(&env, "tmp", Pattern(700, 10));
    ASSERT_TRUE(env.RenameFile("tmp", "y").ok());
    WriteAndClose(&env, "z", Pattern(10, 11));  // truncating create

    EXPECT_EQ(ReadAll(&env, "y"), Pattern(700, 10));
    EXPECT_EQ(ReadAll(&env, "z"), Pattern(10, 11));
    EXPECT_FALSE(env.FileExists("x"));
    EXPECT_TRUE(ReadRange(deleted.get(), 0, deleted->Size()) == old_x);
    EXPECT_EQ(ReadRange(renamed_over.get(), 0, renamed_over->Size()),
              old_y);
    EXPECT_TRUE(ReadRange(truncated.get(), 0, truncated->Size()) == old_z);
  }
  // The env is gone. Its open readers still own the old bytes (reading
  // through them needs the env's disk model, so they are only closed), and
  // the clone still serves them.
  EXPECT_TRUE(ReadAll(clone.get(), "x") == old_x);
  EXPECT_EQ(ReadAll(clone.get(), "y"), old_y);
  EXPECT_EQ(ReadAll(clone.get(), "empty"), "");
  EXPECT_GT(SimEnv::MappedBlocks(), before);

  // A writer may outlive its env too, and the clone writes blocks of its own.
  std::unique_ptr<WritableFile> writer;
  {
    SimEnv env = MakeInstantSimEnv();
    auto w = env.NewWritableFile("w");
    ASSERT_TRUE(w.ok());
    writer = std::move(*w);
  }
  ASSERT_TRUE(writer->Append(old_y.data(), 5000).ok());
  ASSERT_TRUE(writer->Close().ok());
  WriteAndClose(clone.get(), "fresh", Pattern(kBlock + 1, 12));
  EXPECT_TRUE(ReadAll(clone.get(), "fresh") == Pattern(kBlock + 1, 12));

  deleted.reset();
  renamed_over.reset();
  truncated.reset();
  writer.reset();
  clone.reset();
  EXPECT_EQ(SimEnv::MappedBlocks(), before);
}

TEST(SimEnvBlockTest, AnEnvAfterAnotherSeesOnlyItsOwnBytes) {
  // An env's first block may be the one the previous env let go, still
  // holding that env's bytes.
  for (int round = 0; round < 3; ++round) {
    SimEnv env = MakeInstantSimEnv();
    const std::string contents = Pattern(5000 - 2000 * round, round);
    WriteAndClose(&env, "f", contents);
    WriteAndClose(&env, "empty", std::string());
    EXPECT_EQ(ReadAll(&env, "f"), contents);
    EXPECT_EQ(ReadAll(&env, "empty"), "");
    EXPECT_EQ(env.TotalFileBytes(), 5000 - 2000 * round);
  }
}

TEST(SimEnvBlockTest, ReadsNearInt64MaxAreOutOfRange) {
  SimEnv env = MakeInstantSimEnv();
  WriteAndClose(&env, "f", Pattern(64, 13));
  auto file = env.NewRandomAccessFile("f");
  ASSERT_TRUE(file.ok());
  char buf[16];
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // offset + size overflows int64_t in each of these.
  EXPECT_EQ((*file)->Read(kMax - 4, 8, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*file)->Read(8, kMax - 4, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*file)->Read(kMax, kMax, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*file)->Read(65, 0, buf).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE((*file)->Read(64, 0, buf).ok());
  EXPECT_EQ(env.stats().reads, 1);
}

TEST(PosixEnvTest, WriteReadRoundTrip) {
  Env* env = GetPosixEnv();
  std::string path = "/tmp/godiva_posix_env_test.bin";
  WriteAndClose(env, path, "posix payload");
  EXPECT_TRUE(env->FileExists(path));
  auto size = env->GetFileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 13);
  EXPECT_EQ(ReadAll(env, path), "posix payload");
  EXPECT_TRUE(env->DeleteFile(path).ok());
  EXPECT_FALSE(env->FileExists(path));
}

TEST(PosixEnvTest, ListFiles) {
  Env* env = GetPosixEnv();
  WriteAndClose(env, "/tmp/godiva_list_a.bin", "a");
  WriteAndClose(env, "/tmp/godiva_list_b.bin", "b");
  auto files = env->ListFiles("/tmp/godiva_list_");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 2u);
  EXPECT_TRUE(env->DeleteFile("/tmp/godiva_list_a.bin").ok());
  EXPECT_TRUE(env->DeleteFile("/tmp/godiva_list_b.bin").ok());
}

TEST(PosixEnvTest, ReadsNearInt64MaxAreOutOfRange) {
  Env* env = GetPosixEnv();
  std::string path = "/tmp/godiva_posix_env_range_test.bin";
  WriteAndClose(env, path, "0123456789");
  auto file = env->NewRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  char buf[16];
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ((*file)->Read(kMax - 4, 8, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*file)->Read(2, kMax - 1, buf).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE((*file)->Read(2, 8, buf).ok());
  EXPECT_TRUE(env->DeleteFile(path).ok());
}

TEST(PosixEnvTest, MissingFileErrors) {
  Env* env = GetPosixEnv();
  EXPECT_FALSE(env->NewRandomAccessFile("/tmp/godiva_absent_xyz").ok());
  EXPECT_FALSE(env->FileExists("/tmp/godiva_absent_xyz"));
}

}  // namespace
}  // namespace godiva
