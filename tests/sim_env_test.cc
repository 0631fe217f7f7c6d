// Tests for the Env VFS: SimEnv contents/delay-model/stats and PosixEnv
// round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
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

TEST(PosixEnvTest, MissingFileErrors) {
  Env* env = GetPosixEnv();
  EXPECT_FALSE(env->NewRandomAccessFile("/tmp/godiva_absent_xyz").ok());
  EXPECT_FALSE(env->FileExists("/tmp/godiva_absent_xyz"));
}

}  // namespace
}  // namespace godiva
