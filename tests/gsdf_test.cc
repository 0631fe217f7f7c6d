// Tests for the gsdf scientific data format: round trips, attributes,
// ranged reads, and corruption handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "gsdf/format.h"
#include "gsdf/reader.h"
#include "gsdf/writer.h"
#include "sim/sim_env.h"

namespace godiva::gsdf {
namespace {

SimEnv MakeEnv() { return SimEnv(SimEnv::Options{}); }

std::vector<double> Doubles(int n, double start = 0.0) {
  std::vector<double> out(n);
  for (int i = 0; i < n; ++i) out[i] = start + i * 0.5;
  return out;
}

TEST(GsdfTest, RoundTripSingleDataset) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok()) << writer.status();
  std::vector<double> data = Doubles(100);
  ASSERT_TRUE((*writer)
                  ->AddDataset("pressure", DataType::kFloat64, data.data(),
                               100 * 8)
                  .ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ((*reader)->datasets().size(), 1u);
  const DatasetInfo& info = (*reader)->datasets()[0];
  EXPECT_EQ(info.name, "pressure");
  EXPECT_EQ(info.type, DataType::kFloat64);
  EXPECT_EQ(info.nbytes, 800);
  EXPECT_EQ(info.num_elements(), 100);

  std::vector<double> read_back(100);
  ASSERT_TRUE((*reader)->Read("pressure", read_back.data(), 800).ok());
  EXPECT_EQ(read_back, data);
}

TEST(GsdfTest, MultipleDatasetsPreserveOrderAndContents) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  std::vector<int32_t> ids = {1, 2, 3};
  std::vector<double> xs = Doubles(5, 10.0);
  std::string name = "block_0001";
  ASSERT_TRUE(
      (*writer)->AddDataset("ids", DataType::kInt32, ids.data(), 12).ok());
  ASSERT_TRUE(
      (*writer)->AddDataset("xs", DataType::kFloat64, xs.data(), 40).ok());
  ASSERT_TRUE((*writer)
                  ->AddDataset("name", DataType::kString, name.data(),
                               static_cast<int64_t>(name.size()))
                  .ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->datasets().size(), 3u);
  EXPECT_EQ((*reader)->datasets()[0].name, "ids");
  EXPECT_EQ((*reader)->datasets()[1].name, "xs");
  EXPECT_EQ((*reader)->datasets()[2].name, "name");

  std::string got_name(name.size(), '\0');
  ASSERT_TRUE((*reader)
                  ->Read("name", got_name.data(),
                         static_cast<int64_t>(got_name.size()))
                  .ok());
  EXPECT_EQ(got_name, name);
}

TEST(GsdfTest, DatasetAndFileAttributes) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  std::vector<double> xs = Doubles(4);
  ASSERT_TRUE((*writer)
                  ->AddDataset("xs", DataType::kFloat64, xs.data(), 32,
                               {{"units", "meters"}, {"centering", "node"}})
                  .ok());
  (*writer)->SetFileAttribute("time", "0.000025");
  (*writer)->SetFileAttribute("time", "0.000050");  // overwrite
  (*writer)->SetFileAttribute("snapshot", "2");
  ASSERT_TRUE((*writer)->Finish().ok());

  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  auto info = (*reader)->Find("xs");
  ASSERT_TRUE(info.ok());
  const std::string* units = (*info)->FindAttribute("units");
  ASSERT_NE(units, nullptr);
  EXPECT_EQ(*units, "meters");
  EXPECT_EQ((*info)->FindAttribute("absent"), nullptr);

  ASSERT_EQ((*reader)->file_attributes().size(), 2u);
  EXPECT_EQ((*reader)->file_attributes()[0].first, "time");
  EXPECT_EQ((*reader)->file_attributes()[0].second, "0.000050");
}

TEST(GsdfTest, EmptyDatasetAllowed) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->AddDataset("empty", DataType::kFloat64, nullptr, 0).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->datasets()[0].nbytes, 0);
}

TEST(GsdfTest, FileWithNoDatasets) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE((*reader)->datasets().empty());
}

TEST(GsdfTest, WriterRejectsBadInput) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  double d = 1.0;
  EXPECT_EQ((*writer)->AddDataset("", DataType::kFloat64, &d, 8).code(),
            StatusCode::kInvalidArgument);
  // Size not a multiple of the element size.
  EXPECT_EQ((*writer)->AddDataset("x", DataType::kFloat64, &d, 7).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*writer)->AddDataset("x", DataType::kFloat64, &d, 8).ok());
  EXPECT_EQ((*writer)->AddDataset("x", DataType::kFloat64, &d, 8).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_EQ((*writer)->Finish().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*writer)->AddDataset("y", DataType::kFloat64, &d, 8).code(),
            StatusCode::kFailedPrecondition);
}

TEST(GsdfTest, ReaderRejectsUnknownDataset) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  char buf[8];
  EXPECT_EQ((*reader)->Read("ghost", buf, 8).code(), StatusCode::kNotFound);
  EXPECT_EQ((*reader)->Find("ghost").status().code(), StatusCode::kNotFound);
}

TEST(GsdfTest, ReadIntoTooSmallBufferFails) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  std::vector<double> xs = Doubles(10);
  ASSERT_TRUE(
      (*writer)->AddDataset("xs", DataType::kFloat64, xs.data(), 80).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  char small[8];
  EXPECT_EQ((*reader)->Read("xs", small, 8).code(),
            StatusCode::kInvalidArgument);
}

TEST(GsdfTest, CorruptMagicRejected) {
  SimEnv env = MakeEnv();
  std::string garbage = "NOTAGSDFFILE plus enough bytes to pass size checks";
  auto file = env.NewWritableFile("bad");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)
                  ->Append(garbage.data(),
                           static_cast<int64_t>(garbage.size()))
                  .ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(Reader::Open(&env, "bad").status().code(), StatusCode::kDataLoss);
}

TEST(GsdfTest, TruncatedFileRejected) {
  SimEnv env = MakeEnv();
  auto file = env.NewWritableFile("tiny");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("GSDF", 4).ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(Reader::Open(&env, "tiny").status().code(),
            StatusCode::kDataLoss);
}

TEST(GsdfTest, CorruptFooterRejected) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  double d = 1.0;
  ASSERT_TRUE((*writer)->AddDataset("x", DataType::kFloat64, &d, 8).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  // Append trailing garbage: the footer no longer sits at EOF.
  {
    auto size = env.GetFileSize("f.gsdf");
    ASSERT_TRUE(size.ok());
    auto orig = env.NewRandomAccessFile("f.gsdf");
    ASSERT_TRUE(orig.ok());
    std::vector<char> all(static_cast<size_t>(*size));
    ASSERT_TRUE((*orig)->Read(0, *size, all.data()).ok());
    auto rewrite = env.NewWritableFile("f.gsdf");
    ASSERT_TRUE(rewrite.ok());
    ASSERT_TRUE((*rewrite)->Append(all.data(), *size).ok());
    ASSERT_TRUE((*rewrite)->Append("junkjunk", 8).ok());
    ASSERT_TRUE((*rewrite)->Close().ok());
  }
  EXPECT_EQ(Reader::Open(&env, "f.gsdf").status().code(),
            StatusCode::kDataLoss);
}

TEST(GsdfWriterLifecycleTest, AbandonedWriterDeletesPartialFile) {
  // Regression: dropping a writer without Finish() used to leak the
  // partial file. Now the destructor removes it.
  SimEnv env = MakeEnv();
  {
    auto writer = Writer::Create(&env, "f.gsdf");
    ASSERT_TRUE(writer.ok());
    std::vector<double> data = Doubles(10);
    ASSERT_TRUE(
        (*writer)->AddDataset("d", DataType::kFloat64, data.data(), 80).ok());
    // No Finish(): the writer goes out of scope mid-write.
  }
  EXPECT_FALSE(env.FileExists("f.gsdf"));
  EXPECT_FALSE(env.FileExists(Writer::TempPath("f.gsdf")));
}

TEST(GsdfWriterLifecycleTest, AtomicWriteHidesTheFileUntilFinish) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  std::vector<double> data = Doubles(10);
  ASSERT_TRUE(
      (*writer)->AddDataset("d", DataType::kFloat64, data.data(), 80).ok());
  // Mid-write: only the temp file exists.
  EXPECT_FALSE(env.FileExists("f.gsdf"));
  EXPECT_TRUE(env.FileExists(Writer::TempPath("f.gsdf")));
  ASSERT_TRUE((*writer)->Finish().ok());
  // Committed: the rename consumed the temp file.
  EXPECT_TRUE(env.FileExists("f.gsdf"));
  EXPECT_FALSE(env.FileExists(Writer::TempPath("f.gsdf")));
}

TEST(GsdfWriterLifecycleTest, NonAtomicModeWritesThePathDirectly) {
  SimEnv env = MakeEnv();
  Writer::Options options;
  options.atomic = false;
  auto writer = Writer::Create(&env, "f.gsdf", options);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(env.FileExists("f.gsdf"));
  EXPECT_FALSE(env.FileExists(Writer::TempPath("f.gsdf")));
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok()) << reader.status();
}

TEST(GsdfVersionTest, V1FilesStillOpen) {
  SimEnv env = MakeEnv();
  Writer::Options options;
  options.version = kVersionV1;
  auto writer = Writer::Create(&env, "v1.gsdf", options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  std::vector<double> data = Doubles(50);
  ASSERT_TRUE(
      (*writer)->AddDataset("d", DataType::kFloat64, data.data(), 400).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  auto reader = Reader::Open(&env, "v1.gsdf");
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->version(), kVersionV1);
  std::vector<double> read_back(50);
  ASSERT_TRUE((*reader)->Read("d", read_back.data(), 400).ok());
  EXPECT_EQ(read_back, data);
}

TEST(GsdfVersionTest, CurrentFilesAreV2) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->version(), kVersion);
}

TEST(GsdfVersionTest, UnsupportedVersionRejected) {
  SimEnv env = MakeEnv();
  Writer::Options options;
  options.version = 3;
  auto writer = Writer::Create(&env, "f.gsdf", options);
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(env.FileExists(Writer::TempPath("f.gsdf")));
}

TEST(GsdfVersionTest, TailCrcDetectsDirectoryCorruption) {
  // Flip one byte inside the directory region of a v2 file: the payloads
  // and footer fields still parse, but the tail CRC catches it.
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  std::vector<double> data = Doubles(20);
  ASSERT_TRUE(
      (*writer)->AddDataset("d", DataType::kFloat64, data.data(), 160).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  auto size = env.GetFileSize("f.gsdf");
  ASSERT_TRUE(size.ok());
  std::vector<uint8_t> image(static_cast<size_t>(*size));
  {
    auto file = env.NewRandomAccessFile("f.gsdf");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Read(0, *size, image.data()).ok());
  }
  int64_t dir_offset = static_cast<int64_t>(
      DecodeU64(image.data() + *size - kFooterSize));
  ASSERT_GT(dir_offset, 0);
  ASSERT_LT(dir_offset, *size);
  image[static_cast<size_t>(dir_offset) + 2] ^= 0x10;  // inside the name len
  {
    auto file = env.NewWritableFile("f.gsdf");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        (*file)->Append(image.data(), static_cast<int64_t>(image.size()))
            .ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reader.status().ToString().find("CRC"), std::string::npos)
      << reader.status();
}

// Rewrites the directory's `nbytes` of the one dataset, named "d", of the
// v1 file `path` from `from` to `to`. A v1 file has no tail CRC, so the
// patched entry reaches the reader's per-entry checks.
void PatchV1DatasetSize(SimEnv* env, const std::string& path, uint64_t from,
                        uint64_t to) {
  auto size = env->GetFileSize(path);
  ASSERT_TRUE(size.ok());
  std::vector<uint8_t> image(static_cast<size_t>(*size));
  {
    auto file = env->NewRandomAccessFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Read(0, *size, image.data()).ok());
  }
  const size_t dir_offset = static_cast<size_t>(
      DecodeU64(image.data() + *size - kFooterSizeV1));
  // Entry: name length (4), "d" (1), type (1), offset (8), then nbytes.
  const size_t nbytes_at = dir_offset + 4 + 1 + 1 + 8;
  ASSERT_EQ(DecodeU64(image.data() + nbytes_at), from);
  std::string patched;
  EncodeU64(to, &patched);
  std::memcpy(image.data() + nbytes_at, patched.data(), 8);
  auto file = env->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(
      (*file)->Append(image.data(), static_cast<int64_t>(image.size())).ok());
  ASSERT_TRUE((*file)->Close().ok());
}

TEST(GsdfVersionTest, DatasetWhoseEndOverflowsIsDataLoss) {
  // A v1 file (no tail CRC) whose one 32-byte dataset claims
  // nbytes = 0x7FFFFFFFFFFFFFF8: offset + nbytes overflows int64_t, so the
  // payload bound must be checked without forming that sum.
  SimEnv env = MakeEnv();
  Writer::Options options;
  options.version = kVersionV1;
  auto writer = Writer::Create(&env, "f.gsdf", options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  std::vector<double> data = Doubles(4);
  ASSERT_TRUE(
      (*writer)->AddDataset("d", DataType::kFloat64, data.data(), 32).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  ASSERT_NO_FATAL_FAILURE(
      PatchV1DatasetSize(&env, "f.gsdf", 32, 0x7FFFFFFFFFFFFFF8u));

  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reader.status().ToString().find("payload out of range"),
            std::string::npos)
      << reader.status();
}

TEST(GsdfVersionTest, DatasetOfPartialElementsIsDataLoss) {
  // The writer refuses a size that is not a whole number of elements, so
  // a v1 entry claiming 7 bytes of int32 can only come from corruption: a
  // reader that served it would hand a loader one and three quarters of
  // an element.
  SimEnv env = MakeEnv();
  Writer::Options options;
  options.version = kVersionV1;
  auto writer = Writer::Create(&env, "f.gsdf", options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  const int32_t ints[2] = {7, 8};
  ASSERT_TRUE((*writer)->AddDataset("d", DataType::kInt32, ints, 8).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  ASSERT_NO_FATAL_FAILURE(PatchV1DatasetSize(&env, "f.gsdf", 8, 7));

  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reader.status().ToString().find(
                "dataset d size 7 is not a multiple of element size 4"),
            std::string::npos)
      << reader.status();
}

TEST(GsdfChecksumTest, VerifyPassesOnIntactData) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  std::vector<double> xs = Doubles(50);
  ASSERT_TRUE(
      (*writer)->AddDataset("xs", DataType::kFloat64, xs.data(), 400).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE((*reader)->VerifyChecksum("xs").ok());
  EXPECT_TRUE((*reader)->VerifyAllChecksums().ok());
}

TEST(GsdfChecksumTest, DetectsSilentPayloadCorruption) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  std::vector<double> xs = Doubles(50);
  ASSERT_TRUE(
      (*writer)->AddDataset("xs", DataType::kFloat64, xs.data(), 400).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  // Flip one payload byte: the file still parses and Read() succeeds (the
  // format cannot see the damage), but the checksum catches it.
  {
    auto size = env.GetFileSize("f.gsdf");
    ASSERT_TRUE(size.ok());
    auto orig = env.NewRandomAccessFile("f.gsdf");
    ASSERT_TRUE(orig.ok());
    std::vector<char> all(static_cast<size_t>(*size));
    ASSERT_TRUE((*orig)->Read(0, *size, all.data()).ok());
    // First dataset payload starts right after the 16-byte header.
    all[kHeaderSize + 20] ^= 0x40;
    auto rewrite = env.NewWritableFile("f.gsdf");
    ASSERT_TRUE(rewrite.ok());
    ASSERT_TRUE((*rewrite)->Append(all.data(), *size).ok());
    ASSERT_TRUE((*rewrite)->Close().ok());
  }
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  std::vector<double> read_back(50);
  EXPECT_TRUE((*reader)->Read("xs", read_back.data(), 400).ok());
  Status verify = (*reader)->VerifyChecksum("xs");
  EXPECT_EQ(verify.code(), StatusCode::kDataLoss);
  EXPECT_EQ((*reader)->VerifyAllChecksums().code(), StatusCode::kDataLoss);
}

TEST(GsdfChecksumTest, FilesWithoutChecksumsReportPrecondition) {
  SimEnv env = MakeEnv();
  Writer::Options options;
  options.checksums = false;
  auto writer = Writer::Create(&env, "f.gsdf", options);
  ASSERT_TRUE(writer.ok());
  double d = 1.0;
  ASSERT_TRUE((*writer)->AddDataset("x", DataType::kFloat64, &d, 8).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->VerifyChecksum("x").code(),
            StatusCode::kFailedPrecondition);
  // VerifyAll skips unchecksummed datasets.
  EXPECT_TRUE((*reader)->VerifyAllChecksums().ok());
}

// Property-style sweep: round trip across data types and sizes.
class GsdfRoundTripTest
    : public ::testing::TestWithParam<std::tuple<DataType, int>> {};

TEST_P(GsdfRoundTripTest, PreservesBytes) {
  auto [type, elements] = GetParam();
  SimEnv env = MakeEnv();
  int64_t nbytes = elements * SizeOf(type);
  std::vector<uint8_t> payload(static_cast<size_t>(nbytes));
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>((i * 131) & 0xff);
  }
  auto writer = Writer::Create(&env, "f.gsdf");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->AddDataset("d", type, payload.data(), nbytes).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  auto info = (*reader)->Find("d");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->type, type);
  EXPECT_EQ((*info)->num_elements(), elements);
  std::vector<uint8_t> got(static_cast<size_t>(nbytes));
  ASSERT_TRUE((*reader)->Read("d", got.data(), nbytes).ok());
  EXPECT_EQ(got, payload);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypesAndSizes, GsdfRoundTripTest,
    ::testing::Combine(::testing::Values(DataType::kByte, DataType::kString,
                                         DataType::kInt32, DataType::kInt64,
                                         DataType::kFloat32,
                                         DataType::kFloat64),
                       ::testing::Values(1, 7, 64, 1000)));

// ---- ReadBatch: coalesced multi-dataset transfers ----

// A file with `n` consecutive float64 datasets d0..d{n-1}, each holding
// `elements` doubles starting at a dataset-specific base value.
void WriteBatchFile(SimEnv* env, const std::string& path, int n,
                    int elements) {
  auto writer = Writer::Create(env, path);
  ASSERT_TRUE(writer.ok());
  for (int d = 0; d < n; ++d) {
    std::vector<double> data = Doubles(elements, d * 1000.0);
    ASSERT_TRUE((*writer)
                    ->AddDataset("d" + std::to_string(d), DataType::kFloat64,
                                 data.data(), elements * 8)
                    .ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());
}

TEST(GsdfBatchTest, AdjacentDatasetsCoalesceIntoOneTransfer) {
  SimEnv env = MakeEnv();
  const int kDatasets = 4, kElements = 50;
  WriteBatchFile(&env, "f.gsdf", kDatasets, kElements);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());

  std::vector<std::vector<double>> out(kDatasets,
                                       std::vector<double>(kElements));
  std::vector<BatchRequest> batch;
  for (int d = 0; d < kDatasets; ++d) {
    batch.push_back({"d" + std::to_string(d), out[d].data(), kElements * 8});
  }
  env.ResetStats();
  auto stats = (*reader)->ReadBatch(batch);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // gsdf lays payloads back to back (directory at the tail), so the four
  // datasets are one contiguous span: one merged transfer, one disk read.
  EXPECT_EQ(stats->transfers, 1);
  EXPECT_EQ(stats->coalesced, kDatasets - 1);
  EXPECT_EQ(stats->gap_bytes, 0);
  EXPECT_EQ(env.stats().reads, 1);
  for (int d = 0; d < kDatasets; ++d) {
    EXPECT_EQ(out[d], Doubles(kElements, d * 1000.0)) << "dataset " << d;
  }
}

TEST(GsdfBatchTest, SkippedDatasetGapHonoursMaxGap) {
  SimEnv env = MakeEnv();
  const int kDatasets = 3, kElements = 20;  // 160-byte payloads
  WriteBatchFile(&env, "f.gsdf", kDatasets, kElements);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  std::vector<double> first(kElements), third(kElements);
  // Request d0 and d2 only: d1's 160 payload bytes sit between them.
  std::vector<BatchRequest> batch = {
      {"d0", first.data(), kElements * 8},
      {"d2", third.data(), kElements * 8}};

  // Default 64 KiB gap tolerance: one transfer reading d1's bytes too.
  auto merged = (*reader)->ReadBatch(batch);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->transfers, 1);
  EXPECT_EQ(merged->coalesced, 1);
  EXPECT_EQ(merged->gap_bytes, kElements * 8);
  EXPECT_EQ(first, Doubles(kElements, 0.0));
  EXPECT_EQ(third, Doubles(kElements, 2000.0));

  // A gap tolerance of exactly d1's size still merges...
  BatchOptions exact;
  exact.max_gap = kElements * 8;
  auto edge = (*reader)->ReadBatch(batch, exact);
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge->transfers, 1);
  EXPECT_EQ(edge->gap_bytes, kElements * 8);

  // ...and one byte less forbids it: two transfers.
  BatchOptions tight;
  tight.max_gap = kElements * 8 - 1;
  auto split = (*reader)->ReadBatch(batch, tight);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->transfers, 2);
  EXPECT_EQ(split->coalesced, 0);
  EXPECT_EQ(split->gap_bytes, 0);
  EXPECT_EQ(first, Doubles(kElements, 0.0));
  EXPECT_EQ(third, Doubles(kElements, 2000.0));
}

TEST(GsdfBatchTest, MaxTransferSplitsRuns) {
  SimEnv env = MakeEnv();
  const int kDatasets = 4, kElements = 100;  // 800 bytes payload each
  WriteBatchFile(&env, "f.gsdf", kDatasets, kElements);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  std::vector<std::vector<double>> out(kDatasets,
                                       std::vector<double>(kElements));
  std::vector<BatchRequest> batch;
  for (int d = 0; d < kDatasets; ++d) {
    batch.push_back({"d" + std::to_string(d), out[d].data(), kElements * 8});
  }
  BatchOptions options;
  options.max_transfer = 2000;  // fits ~2 datasets + headers, not 4
  auto stats = (*reader)->ReadBatch(batch, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->transfers, 1);
  EXPECT_LT(stats->transfers, kDatasets);
  for (int d = 0; d < kDatasets; ++d) {
    EXPECT_EQ(out[d], Doubles(kElements, d * 1000.0));
  }

  // The cap is inclusive: a span of exactly two payloads still merges
  // them, so the four back-to-back datasets take two transfers...
  BatchOptions pairs;
  pairs.max_transfer = 2 * kElements * 8;
  env.ResetStats();
  auto paired = (*reader)->ReadBatch(batch, pairs);
  ASSERT_TRUE(paired.ok());
  EXPECT_EQ(paired->transfers, 2);
  EXPECT_EQ(env.stats().bytes_read, kDatasets * kElements * 8);
  // ...and one byte less reads every dataset alone.
  pairs.max_transfer -= 1;
  auto alone = (*reader)->ReadBatch(batch, pairs);
  ASSERT_TRUE(alone.ok());
  EXPECT_EQ(alone->transfers, kDatasets);
}

TEST(GsdfBatchTest, RequestOrderDoesNotMatter) {
  SimEnv env = MakeEnv();
  const int kDatasets = 4, kElements = 30;
  WriteBatchFile(&env, "f.gsdf", kDatasets, kElements);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  std::vector<std::vector<double>> out(kDatasets,
                                       std::vector<double>(kElements));
  // Reverse order: ReadBatch sorts by file offset internally.
  std::vector<BatchRequest> batch;
  for (int d = kDatasets - 1; d >= 0; --d) {
    batch.push_back({"d" + std::to_string(d), out[d].data(), kElements * 8});
  }
  auto stats = (*reader)->ReadBatch(batch);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->transfers, 1);
  for (int d = 0; d < kDatasets; ++d) {
    EXPECT_EQ(out[d], Doubles(kElements, d * 1000.0));
  }
}

TEST(GsdfBatchTest, EmptyBatchIsANoOp) {
  SimEnv env = MakeEnv();
  WriteBatchFile(&env, "f.gsdf", 1, 10);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  auto stats = (*reader)->ReadBatch({});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->transfers, 0);
  EXPECT_EQ(stats->coalesced, 0);
}

TEST(GsdfBatchTest, DuplicateRequestsShareOneTransfer) {
  SimEnv env = MakeEnv();
  const int kElements = 25;
  WriteBatchFile(&env, "f.gsdf", 1, kElements);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  std::vector<double> first(kElements), second(kElements);
  std::vector<BatchRequest> batch = {{"d0", first.data(), kElements * 8},
                                     {"d0", second.data(), kElements * 8}};
  env.ResetStats();
  auto stats = (*reader)->ReadBatch(batch);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Both requests ride one transfer of the dataset's own span: its bytes
  // come off the device once, and the overlap is not counted as a gap.
  EXPECT_EQ(stats->transfers, 1);
  EXPECT_EQ(stats->coalesced, 1);
  EXPECT_EQ(stats->gap_bytes, 0);
  EXPECT_EQ(env.stats().reads, 1);
  EXPECT_EQ(env.stats().bytes_read, kElements * 8);
  EXPECT_EQ(first, Doubles(kElements));
  EXPECT_EQ(second, Doubles(kElements));
}

TEST(GsdfBatchTest, UnknownDatasetFailsBeforeAnyTransfer) {
  SimEnv env = MakeEnv();
  WriteBatchFile(&env, "f.gsdf", 2, 10);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  std::vector<double> a(10), b(10);
  std::vector<BatchRequest> batch = {{"d0", a.data(), 80},
                                     {"absent", b.data(), 80}};
  env.ResetStats();
  auto stats = (*reader)->ReadBatch(batch);
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(env.stats().reads, 0);  // validated up front, nothing issued
}

TEST(GsdfBatchTest, WrongBufferSizeRejected) {
  SimEnv env = MakeEnv();
  WriteBatchFile(&env, "f.gsdf", 1, 10);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  std::vector<double> out(10);
  std::vector<BatchRequest> batch = {{"d0", out.data(), 72}};  // nbytes is 80
  auto stats = (*reader)->ReadBatch(batch);
  EXPECT_FALSE(stats.ok());
}

TEST(GsdfBatchTest, VerifyCatchesCorruptionInMergedRun) {
  SimEnv env = MakeEnv();
  const int kDatasets = 3, kElements = 50;
  WriteBatchFile(&env, "f.gsdf", kDatasets, kElements);
  // Flip one byte inside the middle dataset's payload.
  {
    auto size = env.GetFileSize("f.gsdf");
    ASSERT_TRUE(size.ok());
    auto orig = env.NewRandomAccessFile("f.gsdf");
    ASSERT_TRUE(orig.ok());
    std::vector<char> all(static_cast<size_t>(*size));
    ASSERT_TRUE((*orig)->Read(0, *size, all.data()).ok());
    all[static_cast<size_t>(*size) / 2] ^= 0x01;
    auto rewrite = env.NewWritableFile("f.gsdf");
    ASSERT_TRUE(rewrite.ok());
    ASSERT_TRUE((*rewrite)->Append(all.data(), *size).ok());
    ASSERT_TRUE((*rewrite)->Close().ok());
  }
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  std::vector<std::vector<double>> out(kDatasets,
                                       std::vector<double>(kElements));
  std::vector<BatchRequest> batch;
  for (int d = 0; d < kDatasets; ++d) {
    batch.push_back({"d" + std::to_string(d), out[d].data(), kElements * 8});
  }
  BatchOptions verify_options;
  verify_options.verify = true;
  Status scratch = (*reader)->ReadBatch(batch, verify_options).status();
  EXPECT_EQ(scratch.code(), StatusCode::kDataLoss);
  // Without verification the same batch reads the damaged bytes silently.
  EXPECT_TRUE((*reader)->ReadBatch(batch).ok());

  // Buffers back to back in one allocation land the run in place; the
  // mismatch in its middle fails it with the same message.
  std::vector<double> contiguous(kDatasets * kElements);
  for (int d = 0; d < kDatasets; ++d) {
    batch[d].out = contiguous.data() + d * kElements;
  }
  Status in_place = (*reader)->ReadBatch(batch, verify_options).status();
  EXPECT_EQ(in_place.code(), StatusCode::kDataLoss);
  EXPECT_EQ(in_place.message(), scratch.message());
}

// Runs that cannot land in place go through scratch even when their
// buffers sit back to back: a dataset requested twice, and datasets with
// an unrequested one between them (max_gap > 0). Landing either in place
// would read the neighbour or the gap into the buffers, and past their end.
TEST(GsdfBatchTest, DuplicatesAndGapsLandThroughScratch) {
  SimEnv env = MakeEnv();
  const int kDatasets = 3, kElements = 30;
  WriteBatchFile(&env, "f.gsdf", kDatasets, kElements);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  const int64_t kBytes = kElements * 8;
  BatchOptions options;
  options.verify = true;
  options.max_gap = kBytes;

  std::vector<double> twice(3 * kElements);
  std::vector<BatchRequest> duplicate = {
      {"d1", twice.data(), kBytes},
      {"d1", twice.data() + kElements, kBytes},
      {"d2", twice.data() + 2 * kElements, kBytes}};
  auto stats = (*reader)->ReadBatch(duplicate, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->transfers, 1);
  EXPECT_EQ(stats->coalesced, 2);
  const std::vector<double> d1 = Doubles(kElements, 1000.0);
  const std::vector<double> d2 = Doubles(kElements, 2000.0);
  std::vector<double> expected = d1;
  expected.insert(expected.end(), d1.begin(), d1.end());
  expected.insert(expected.end(), d2.begin(), d2.end());
  EXPECT_EQ(twice, expected);

  std::vector<double> around(2 * kElements);
  std::vector<BatchRequest> gap = {{"d0", around.data(), kBytes},
                                   {"d2", around.data() + kElements, kBytes}};
  stats = (*reader)->ReadBatch(gap, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->transfers, 1);
  EXPECT_EQ(stats->coalesced, 1);
  EXPECT_EQ(stats->gap_bytes, kBytes);
  expected = Doubles(kElements, 0.0);
  expected.insert(expected.end(), d2.begin(), d2.end());
  EXPECT_EQ(around, expected);
}

TEST(GsdfBatchTest, ZeroGapToleranceStillMergesAdjacentDatasets) {
  SimEnv env = MakeEnv();
  const int kDatasets = 3, kElements = 25;
  WriteBatchFile(&env, "f.gsdf", kDatasets, kElements);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  std::vector<std::vector<double>> out(kDatasets,
                                       std::vector<double>(kElements));
  std::vector<BatchRequest> batch;
  for (int d = 0; d < kDatasets; ++d) {
    batch.push_back({"d" + std::to_string(d), out[d].data(), kElements * 8});
  }
  // max_gap = 0 forbids reading ANY discarded bytes, but back-to-back
  // payloads have a zero-byte gap, so the merge is still legal.
  BatchOptions no_gap;
  no_gap.max_gap = 0;
  auto stats = (*reader)->ReadBatch(batch, no_gap);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->transfers, 1);
  EXPECT_EQ(stats->coalesced, kDatasets - 1);
  EXPECT_EQ(stats->gap_bytes, 0);
  for (int d = 0; d < kDatasets; ++d) {
    EXPECT_EQ(out[d], Doubles(kElements, d * 1000.0)) << "dataset " << d;
  }
}

TEST(GsdfBatchTest, DatasetLargerThanMaxTransferStillReads) {
  SimEnv env = MakeEnv();
  const int kDatasets = 3, kElements = 100;  // 800-byte payloads
  WriteBatchFile(&env, "f.gsdf", kDatasets, kElements);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  std::vector<std::vector<double>> out(kDatasets,
                                       std::vector<double>(kElements));
  std::vector<BatchRequest> batch;
  for (int d = 0; d < kDatasets; ++d) {
    batch.push_back({"d" + std::to_string(d), out[d].data(), kElements * 8});
  }
  // max_transfer smaller than a single payload: the cap bounds *merging*,
  // not a dataset's own read, so each dataset gets its own oversized
  // transfer rather than failing or truncating.
  BatchOptions tiny;
  tiny.max_transfer = 100;
  auto stats = (*reader)->ReadBatch(batch, tiny);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->transfers, kDatasets);
  EXPECT_EQ(stats->coalesced, 0);
  for (int d = 0; d < kDatasets; ++d) {
    EXPECT_EQ(out[d], Doubles(kElements, d * 1000.0)) << "dataset " << d;
  }
}

TEST(GsdfBatchTest, CorruptGapDatasetDoesNotPoisonVerifiedNeighbours) {
  SimEnv env = MakeEnv();
  const int kDatasets = 3, kElements = 40;
  WriteBatchFile(&env, "f.gsdf", kDatasets, kElements);
  // Locate d1's payload, then flip a byte in the middle of it.
  int64_t corrupt_at = 0;
  {
    auto probe = Reader::Open(&env, "f.gsdf");
    ASSERT_TRUE(probe.ok());
    auto info = (*probe)->Find("d1");
    ASSERT_TRUE(info.ok());
    corrupt_at = (*info)->offset + (*info)->nbytes / 2;
  }
  {
    auto size = env.GetFileSize("f.gsdf");
    ASSERT_TRUE(size.ok());
    auto orig = env.NewRandomAccessFile("f.gsdf");
    ASSERT_TRUE(orig.ok());
    std::vector<char> all(static_cast<size_t>(*size));
    ASSERT_TRUE((*orig)->Read(0, *size, all.data()).ok());
    all[static_cast<size_t>(corrupt_at)] ^= 0x01;
    auto rewrite = env.NewWritableFile("f.gsdf");
    ASSERT_TRUE(rewrite.ok());
    ASSERT_TRUE((*rewrite)->Append(all.data(), *size).ok());
    ASSERT_TRUE((*rewrite)->Close().ok());
  }
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  BatchOptions verify_options;
  verify_options.verify = true;

  // Control: requesting the damaged dataset itself is detected.
  std::vector<double> mid(kElements);
  std::vector<BatchRequest> bad = {{"d1", mid.data(), kElements * 8}};
  EXPECT_EQ((*reader)->ReadBatch(bad, verify_options).status().code(),
            StatusCode::kDataLoss);

  // d0 and d2 coalesce into one transfer whose gap spans the corrupt d1.
  // Verification covers only the *requested* datasets, so the damaged gap
  // bytes ride along harmlessly and the neighbours still verify clean.
  std::vector<double> first(kElements), third(kElements);
  std::vector<BatchRequest> batch = {
      {"d0", first.data(), kElements * 8},
      {"d2", third.data(), kElements * 8}};
  auto stats = (*reader)->ReadBatch(batch, verify_options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->transfers, 1);
  EXPECT_EQ(stats->coalesced, 1);
  EXPECT_EQ(stats->gap_bytes, kElements * 8);
  EXPECT_EQ(first, Doubles(kElements, 0.0));
  EXPECT_EQ(third, Doubles(kElements, 2000.0));
}

TEST(GsdfBatchTest, MatchesIndividualReads) {
  SimEnv env = MakeEnv();
  const int kDatasets = 5, kElements = 17;
  WriteBatchFile(&env, "f.gsdf", kDatasets, kElements);
  auto reader = Reader::Open(&env, "f.gsdf");
  ASSERT_TRUE(reader.ok());
  for (int d = 0; d < kDatasets; ++d) {
    std::vector<double> individual(kElements), batched(kElements);
    std::string name = "d" + std::to_string(d);
    ASSERT_TRUE(
        (*reader)->Read(name, individual.data(), kElements * 8).ok());
    std::vector<BatchRequest> batch = {{name, batched.data(), kElements * 8}};
    ASSERT_TRUE((*reader)->ReadBatch(batch).ok());
    EXPECT_EQ(batched, individual);
  }
}

// ---- ReadBatch property: transfers follow the run-split rule ----

// The run split ReadBatch performs, written out independently of it:
// extents (offset, nbytes) in offset order; a run takes the next extent
// while it starts at most max_gap past the run's end and the merged span
// stays within max_transfer. (ReadBatch also lets a zero-byte run take its
// neighbour; every extent here is at least one element.)
struct ReferenceSplit {
  int64_t transfers = 0;
  int64_t span_bytes = 0;  // what the device reads: every run's span
};

ReferenceSplit SplitIntoRuns(std::vector<std::pair<int64_t, int64_t>> extents,
                             const BatchLimits& limits) {
  std::sort(extents.begin(), extents.end());
  ReferenceSplit split;
  int64_t run_start = 0;
  int64_t run_end = 0;
  for (size_t i = 0; i < extents.size(); ++i) {
    const auto [offset, nbytes] = extents[i];
    const int64_t merged_end = std::max(run_end, offset + nbytes);
    if (i > 0 && offset - run_end <= limits.max_gap &&
        merged_end - run_start <= limits.max_transfer) {
      run_end = merged_end;  // rides along the open run
      continue;
    }
    if (i > 0) split.span_bytes += run_end - run_start;  // closes it
    ++split.transfers;  // and opens the next
    run_start = offset;
    run_end = offset + nbytes;
  }
  if (!extents.empty()) split.span_bytes += run_end - run_start;
  return split;
}

// One trial: a file of 1–30 float64 datasets of 1–512 elements, a random
// subset of them (always d0) requested in shuffled order under random
// limits; ReadBatch must issue exactly the reference split's transfers and
// bytes and land every payload. Each request set is read twice: into
// separately allocated buffers, which land through scratch, and into one
// allocation per run of file-adjacent requested datasets, which land in
// place; both must land the same bytes and issue the same reads and seeks.
void RunReadBatchTrial(std::mt19937* rng) {
  SimEnv env = MakeEnv();
  auto writer = Writer::Create(&env, "p.gsdf");
  ASSERT_TRUE(writer.ok()) << writer.status();
  const int num_datasets = 1 + static_cast<int>((*rng)() % 30);
  std::vector<int> elements;
  for (int d = 0; d < num_datasets; ++d) {
    elements.push_back(1 + static_cast<int>((*rng)() % 512));
    std::vector<double> data = Doubles(elements.back(), d * 1000.0);
    ASSERT_TRUE((*writer)
                    ->AddDataset("d" + std::to_string(d), DataType::kFloat64,
                                 data.data(), elements.back() * 8)
                    .ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());

  BatchOptions options;
  const int64_t gaps[] = {0, 64, 1024, 64 * 1024};
  const int64_t transfers[] = {4096, 64 * 1024, 4 * 1024 * 1024};
  options.max_gap = gaps[(*rng)() % 4];
  options.max_transfer = transfers[(*rng)() % 3];

  std::vector<int> subset;  // ascending, so in file order
  for (int d = 0; d < num_datasets; ++d) {
    if (d == 0 || (*rng)() % 2 == 0) subset.push_back(d);
  }
  std::vector<size_t> order(subset.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), *rng);

  std::vector<BatchStats> batch_stats;
  std::vector<DiskStats> disk_stats;
  for (bool grouped : {false, true}) {
    SCOPED_TRACE(grouped ? "one allocation per group" : "separate buffers");
    auto reader = Reader::Open(&env, "p.gsdf");
    ASSERT_TRUE(reader.ok()) << reader.status();
    // Each request's buffer: its own vector, or a slice of its group's.
    std::vector<std::vector<double>> storage;
    std::vector<double*> out(subset.size());
    for (size_t i = 0; i < subset.size(); ++i) {
      const size_t n = static_cast<size_t>(elements[subset[i]]);
      if (!grouped) {
        storage.emplace_back(n);
        out[i] = storage.back().data();
        continue;
      }
      size_t end = i + 1;
      while (end < subset.size() && subset[end] == subset[end - 1] + 1) ++end;
      size_t group_elements = 0;
      for (size_t j = i; j < end; ++j) {
        group_elements += static_cast<size_t>(elements[subset[j]]);
      }
      storage.emplace_back(group_elements);
      double* next = storage.back().data();
      for (size_t j = i; j < end; ++j) {
        out[j] = next;
        next += elements[subset[j]];
      }
      i = end - 1;
    }
    std::vector<BatchRequest> requests;
    std::vector<std::pair<int64_t, int64_t>> extents;
    int64_t payload_bytes = 0;
    for (size_t i : order) {
      const std::string name = "d" + std::to_string(subset[i]);
      const int64_t nbytes = elements[static_cast<size_t>(subset[i])] * 8;
      requests.push_back({name, out[i], nbytes});
      auto info = (*reader)->Find(name);
      ASSERT_TRUE(info.ok()) << info.status();
      extents.emplace_back((*info)->offset, (*info)->nbytes);
      payload_bytes += nbytes;
    }
    const ReferenceSplit expected = SplitIntoRuns(extents, options);

    env.ResetStats();
    auto stats = (*reader)->ReadBatch(requests, options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->transfers, expected.transfers);
    EXPECT_EQ(env.stats().reads, expected.transfers);
    EXPECT_EQ(env.stats().bytes_read, expected.span_bytes);
    EXPECT_EQ(stats->coalesced,
              static_cast<int64_t>(subset.size()) - expected.transfers);
    EXPECT_EQ(stats->gap_bytes, expected.span_bytes - payload_bytes);
    for (size_t i = 0; i < subset.size(); ++i) {
      const int n = elements[static_cast<size_t>(subset[i])];
      EXPECT_EQ(std::vector<double>(out[i], out[i] + n),
                Doubles(n, subset[i] * 1000.0))
          << "dataset d" << subset[i];
    }
    batch_stats.push_back(*stats);
    disk_stats.push_back(env.stats());
  }
  ASSERT_EQ(batch_stats.size(), 2u);
  EXPECT_EQ(batch_stats[1].transfers, batch_stats[0].transfers);
  EXPECT_EQ(batch_stats[1].coalesced, batch_stats[0].coalesced);
  EXPECT_EQ(batch_stats[1].gap_bytes, batch_stats[0].gap_bytes);
  EXPECT_EQ(disk_stats[1].reads, disk_stats[0].reads);
  EXPECT_EQ(disk_stats[1].seeks, disk_stats[0].seeks);
  EXPECT_EQ(disk_stats[1].bytes_read, disk_stats[0].bytes_read);
}

// The env has no time scale, so reads charge no delay and the test runs
// the same under either simulation mode; one instance covers both.
TEST(GsdfBatchPropertyTest, TransfersFollowTheRunSplitRule) {
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(trial);
    RunReadBatchTrial(&rng);
  }
}

}  // namespace
}  // namespace godiva::gsdf
