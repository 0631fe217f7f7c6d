// Crash-consistency matrix for the gsdf atomic write protocol: a simulated
// power loss at EVERY byte of the write stream (plus create/sync/rename
// crash points) must leave the world in one of two states —
//   1. nothing at the final path (the temp-and-rename protocol held), and
//   2. if the torn temp image is copied to the final path (modeling a
//      legacy writer without the protocol), Reader::Open either serves a
//      fully valid file or fails cleanly, and Reader::OpenSalvage recovers
//      only checksum-valid datasets whose payloads match the reference
//      byte for byte.
// Never a crash, hang, or wrong payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "gsdf/reader.h"
#include "gsdf/writer.h"
#include "sim/fault_env.h"
#include "sim/sim_env.h"

namespace godiva::gsdf {
namespace {

constexpr char kFinal[] = "data.gsdf";

// Three small checksummed datasets with deterministic payloads.
struct ReferenceData {
  std::vector<double> alpha;
  std::vector<int32_t> beta;
  std::vector<uint8_t> gamma;
};

ReferenceData MakeReference() {
  ReferenceData ref;
  ref.alpha.resize(40);
  for (size_t i = 0; i < ref.alpha.size(); ++i) ref.alpha[i] = 0.25 * i;
  ref.beta.resize(30);
  for (size_t i = 0; i < ref.beta.size(); ++i) {
    ref.beta[i] = static_cast<int32_t>(7 * i);
  }
  ref.gamma.resize(25);
  for (size_t i = 0; i < ref.gamma.size(); ++i) {
    ref.gamma[i] = static_cast<uint8_t>(i * 11);
  }
  return ref;
}

Status WriteTestFile(Env* env, const std::string& path,
                     const ReferenceData& ref) {
  GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<Writer> writer,
                          Writer::Create(env, path));
  GODIVA_RETURN_IF_ERROR(writer->AddDataset(
      "alpha", DataType::kFloat64, ref.alpha.data(),
      static_cast<int64_t>(ref.alpha.size()) * 8, {{"units", "m"}}));
  GODIVA_RETURN_IF_ERROR(writer->AddDataset(
      "beta", DataType::kInt32, ref.beta.data(),
      static_cast<int64_t>(ref.beta.size()) * 4));
  GODIVA_RETURN_IF_ERROR(writer->AddDataset(
      "gamma", DataType::kByte, ref.gamma.data(),
      static_cast<int64_t>(ref.gamma.size())));
  writer->SetFileAttribute("snapshot", "3");
  return writer->Finish();
}

// Reads a whole file image out of `env`, or empty if it does not exist.
std::vector<uint8_t> FileImage(Env* env, const std::string& path) {
  if (!env->FileExists(path)) return {};
  auto size = env->GetFileSize(path);
  EXPECT_TRUE(size.ok()) << size.status();
  std::vector<uint8_t> bytes(static_cast<size_t>(*size));
  auto file = env->NewRandomAccessFile(path);
  EXPECT_TRUE(file.ok()) << file.status();
  if (!bytes.empty()) {
    EXPECT_TRUE((*file)->Read(0, *size, bytes.data()).ok());
  }
  return bytes;
}

void WriteImage(Env* env, const std::string& path,
                const std::vector<uint8_t>& bytes) {
  auto file = env->NewWritableFile(path);
  ASSERT_TRUE(file.ok()) << file.status();
  if (!bytes.empty()) {
    ASSERT_TRUE(
        (*file)->Append(bytes.data(), static_cast<int64_t>(bytes.size()))
            .ok());
  }
  ASSERT_TRUE((*file)->Close().ok());
}

// Checks one dataset served by `reader` against the reference. Any dataset
// a reader serves must be one of the three with its exact payload.
void CheckServedDataset(const Reader& reader, const DatasetInfo& info,
                        const ReferenceData& ref) {
  const void* want = nullptr;
  int64_t want_bytes = 0;
  if (info.name == "alpha") {
    want = ref.alpha.data();
    want_bytes = static_cast<int64_t>(ref.alpha.size()) * 8;
  } else if (info.name == "beta") {
    want = ref.beta.data();
    want_bytes = static_cast<int64_t>(ref.beta.size()) * 4;
  } else if (info.name == "gamma") {
    want = ref.gamma.data();
    want_bytes = static_cast<int64_t>(ref.gamma.size());
  }
  ASSERT_NE(want, nullptr) << "unknown dataset served: " << info.name;
  ASSERT_EQ(info.nbytes, want_bytes) << info.name;
  std::vector<uint8_t> got(static_cast<size_t>(info.nbytes));
  ASSERT_TRUE(reader.Read(info.name, got.data(), info.nbytes).ok());
  EXPECT_EQ(std::memcmp(got.data(), want, static_cast<size_t>(want_bytes)),
            0)
      << "payload mismatch in " << info.name;
}

// Verifies the two crash-consistency properties for whatever `fault` left
// behind after a failed write, and returns how many datasets salvage
// recovered from the torn image (0 when there is no image or no magic).
int CheckAftermath(SimEnv* base, const ReferenceData& ref) {
  const std::string temp = Writer::TempPath(kFinal);
  // Property 1: the atomic protocol never exposes a partial file at the
  // final path.
  EXPECT_FALSE(base->FileExists(kFinal))
      << "torn write visible at the final path";

  std::vector<uint8_t> torn = FileImage(base, temp);
  if (torn.empty()) return 0;

  // Property 2: model a legacy writer that wrote the final path directly —
  // drop the torn image there and reopen.
  SimEnv replay{SimEnv::Options{}};
  WriteImage(&replay, kFinal, torn);

  auto opened = Reader::Open(&replay, kFinal);
  if (opened.ok()) {
    // Open only accepts a structurally complete file; everything it serves
    // must verify and match the reference.
    EXPECT_TRUE((*opened)->VerifyAllChecksums().ok());
    for (const DatasetInfo& info : (*opened)->datasets()) {
      CheckServedDataset(**opened, info, ref);
    }
  }

  auto salvaged = Reader::OpenSalvage(&replay, kFinal);
  if (!salvaged.ok()) return 0;  // clean rejection: no magic landed
  for (const DatasetInfo& info : (*salvaged)->datasets()) {
    CheckServedDataset(**salvaged, info, ref);
    EXPECT_TRUE(
        (*salvaged)->VerifyChecksum(info.name).ok());
  }
  return static_cast<int>((*salvaged)->datasets().size());
}

TEST(GsdfCrashTest, PowerLossAtEveryByteOfTheWriteStream) {
  ReferenceData ref = MakeReference();

  // Reference image from a clean write.
  SimEnv clean{SimEnv::Options{}};
  ASSERT_TRUE(WriteTestFile(&clean, kFinal, ref).ok());
  std::vector<uint8_t> reference_image = FileImage(&clean, kFinal);
  ASSERT_FALSE(reference_image.empty());
  const int64_t size = static_cast<int64_t>(reference_image.size());

  int previous_recovered = 0;
  for (int64_t crash_at = 0; crash_at <= size; ++crash_at) {
    SimEnv base{SimEnv::Options{}};
    FaultInjectionEnv fault(&base);
    FaultRule rule;
    rule.op = FaultOp::kWrite;
    rule.kind = FaultKind::kCrashPoint;
    rule.crash_at_bytes = crash_at;
    fault.AddRule(rule);

    Status status = WriteTestFile(&fault, kFinal, ref);
    if (crash_at >= size) {
      // The stream never reaches the crash byte: the write must succeed
      // and the file must be byte-identical to the reference.
      ASSERT_TRUE(status.ok()) << crash_at << ": " << status;
      EXPECT_EQ(FileImage(&base, kFinal), reference_image);
      continue;
    }
    ASSERT_FALSE(status.ok()) << "crash at byte " << crash_at
                              << " did not surface";

    // The torn temp image is exactly the reference prefix: appends are
    // deterministic and the crash truncates at the rule's byte.
    std::vector<uint8_t> torn =
        FileImage(&base, Writer::TempPath(kFinal));
    EXPECT_EQ(static_cast<int64_t>(torn.size()), crash_at);
    EXPECT_TRUE(std::equal(torn.begin(), torn.end(),
                           reference_image.begin()));

    int recovered = CheckAftermath(&base, ref);
    // Directory entries land sequentially, so salvage recovery is
    // monotonic in the crash position.
    EXPECT_GE(recovered, previous_recovered)
        << "salvage lost datasets moving crash point to " << crash_at;
    previous_recovered = recovered;
  }
  // With the whole directory intact (only the footer torn), everything
  // comes back.
  EXPECT_EQ(previous_recovered, 3);
}

TEST(GsdfCrashTest, PowerLossWhereTheWriteStreamCrossesABlock) {
  // SimEnv stores file bytes in blocks of SimEnv::kBlockBytes, so one
  // payload append that is larger than a block lands in two. Power loss
  // one byte before, at and one byte after the block boundary must still
  // leave exactly the reference prefix, with nothing at the final path.
  constexpr int64_t kBlock = SimEnv::kBlockBytes;
  std::vector<uint8_t> payload(static_cast<size_t>(kBlock + 4096));
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>((i * 131 + i / 4099) & 0xff);
  }
  auto write = [&payload](Env* env) -> Status {
    GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<Writer> writer,
                            Writer::Create(env, kFinal));
    GODIVA_RETURN_IF_ERROR(
        writer->AddDataset("big", DataType::kByte, payload.data(),
                           static_cast<int64_t>(payload.size())));
    return writer->Finish();
  };

  SimEnv clean{SimEnv::Options{}};
  ASSERT_TRUE(write(&clean).ok());
  std::vector<uint8_t> reference_image = FileImage(&clean, kFinal);
  ASSERT_GT(static_cast<int64_t>(reference_image.size()), kBlock + 1);
  auto reader = Reader::Open(&clean, kFinal);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE((*reader)->VerifyAllChecksums().ok());

  for (int64_t crash_at : {kBlock - 1, kBlock, kBlock + 1}) {
    SCOPED_TRACE(crash_at);
    SimEnv base{SimEnv::Options{}};
    FaultInjectionEnv fault(&base);
    FaultRule rule;
    rule.op = FaultOp::kWrite;
    rule.kind = FaultKind::kCrashPoint;
    rule.crash_at_bytes = crash_at;
    fault.AddRule(rule);
    ASSERT_FALSE(write(&fault).ok());

    EXPECT_FALSE(base.FileExists(kFinal));
    std::vector<uint8_t> torn = FileImage(&base, Writer::TempPath(kFinal));
    ASSERT_EQ(static_cast<int64_t>(torn.size()), crash_at);
    EXPECT_TRUE(std::equal(torn.begin(), torn.end(),
                           reference_image.begin()));
  }
}

TEST(GsdfCrashTest, CrashOnCreateLeavesNothing) {
  ReferenceData ref = MakeReference();
  SimEnv base{SimEnv::Options{}};
  FaultInjectionEnv fault(&base);
  FaultRule rule;
  rule.op = FaultOp::kCreate;
  rule.kind = FaultKind::kCrashPoint;
  fault.AddRule(rule);

  EXPECT_FALSE(WriteTestFile(&fault, kFinal, ref).ok());
  EXPECT_FALSE(base.FileExists(kFinal));
  EXPECT_FALSE(base.FileExists(Writer::TempPath(kFinal)));
}

TEST(GsdfCrashTest, CrashOnSyncKeepsFinalPathClean) {
  ReferenceData ref = MakeReference();
  SimEnv base{SimEnv::Options{}};
  FaultInjectionEnv fault(&base);
  FaultRule rule;
  rule.op = FaultOp::kSync;
  rule.kind = FaultKind::kCrashPoint;
  fault.AddRule(rule);

  EXPECT_FALSE(WriteTestFile(&fault, kFinal, ref).ok());
  EXPECT_FALSE(base.FileExists(kFinal));
  // The full image reached the temp file before the sync died; a salvage
  // (or even a plain open) of that image recovers everything.
  int recovered = CheckAftermath(&base, ref);
  EXPECT_EQ(recovered, 3);
}

TEST(GsdfCrashTest, CrashOnRenameKeepsFinalPathClean) {
  ReferenceData ref = MakeReference();
  SimEnv base{SimEnv::Options{}};
  FaultInjectionEnv fault(&base);
  FaultRule rule;
  rule.op = FaultOp::kRename;
  rule.kind = FaultKind::kCrashPoint;
  fault.AddRule(rule);

  EXPECT_FALSE(WriteTestFile(&fault, kFinal, ref).ok());
  EXPECT_FALSE(base.FileExists(kFinal));
  // The temp file holds a complete, synced image: a plain Open serves it.
  std::vector<uint8_t> torn = FileImage(&base, Writer::TempPath(kFinal));
  SimEnv replay{SimEnv::Options{}};
  WriteImage(&replay, kFinal, torn);
  auto reader = Reader::Open(&replay, kFinal);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->datasets().size(), 3u);
  EXPECT_TRUE((*reader)->VerifyAllChecksums().ok());
}

TEST(GsdfCrashTest, FailedSyncLeavesNoStrayTempFile) {
  // A sync that fails with a plain error (no power loss) must not leak the
  // temp file: Finish() abandons and deletes it before reporting.
  ReferenceData ref = MakeReference();
  SimEnv base{SimEnv::Options{}};
  FaultInjectionEnv fault(&base);
  FaultRule rule;
  rule.op = FaultOp::kSync;
  rule.kind = FaultKind::kError;
  fault.AddRule(rule);

  EXPECT_FALSE(WriteTestFile(&fault, kFinal, ref).ok());
  EXPECT_FALSE(base.FileExists(kFinal));
  EXPECT_FALSE(base.FileExists(Writer::TempPath(kFinal)));
}

TEST(GsdfCrashTest, FailedAppendThenDestructorLeavesNoStrayTempFile) {
  // An AddDataset that fails mid-stream leaves an unfinished writer; its
  // destructor must abandon and delete the temp file.
  ReferenceData ref = MakeReference();
  SimEnv base{SimEnv::Options{}};
  FaultInjectionEnv fault(&base);
  FaultRule rule;
  rule.op = FaultOp::kWrite;
  rule.kind = FaultKind::kError;
  rule.skip_first = 1;  // let the header through, fail the first dataset
  fault.AddRule(rule);

  {
    auto writer = Writer::Create(&fault, kFinal);
    ASSERT_TRUE(writer.ok()) << writer.status();
    EXPECT_FALSE((*writer)
                     ->AddDataset("alpha", DataType::kFloat64,
                                  ref.alpha.data(),
                                  static_cast<int64_t>(ref.alpha.size()) * 8)
                     .ok());
    EXPECT_TRUE(base.FileExists(Writer::TempPath(kFinal)));
  }  // ~Writer abandons the unfinished file.
  EXPECT_FALSE(base.FileExists(kFinal));
  EXPECT_FALSE(base.FileExists(Writer::TempPath(kFinal)));
}

TEST(GsdfCrashTest, FinalPathInvisibleUntilCommit) {
  // A concurrent reader polls Reader::Open at the final path between every
  // writer step: nothing is visible until Finish() commits the rename, and
  // the first successful open serves the complete, verified file.
  ReferenceData ref = MakeReference();
  SimEnv base{SimEnv::Options{}};
  auto poll = [&base] {
    EXPECT_FALSE(base.FileExists(kFinal));
    EXPECT_FALSE(Reader::Open(&base, kFinal).ok());
  };

  poll();
  auto writer = Writer::Create(&base, kFinal);
  ASSERT_TRUE(writer.ok()) << writer.status();
  poll();
  ASSERT_TRUE((*writer)
                  ->AddDataset("alpha", DataType::kFloat64, ref.alpha.data(),
                               static_cast<int64_t>(ref.alpha.size()) * 8)
                  .ok());
  poll();
  ASSERT_TRUE((*writer)
                  ->AddDataset("beta", DataType::kInt32, ref.beta.data(),
                               static_cast<int64_t>(ref.beta.size()) * 4)
                  .ok());
  (*writer)->SetFileAttribute("snapshot", "3");
  poll();
  ASSERT_TRUE((*writer)->Finish().ok());

  auto reader = Reader::Open(&base, kFinal);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->datasets().size(), 2u);
  EXPECT_TRUE((*reader)->VerifyAllChecksums().ok());
  EXPECT_FALSE(base.FileExists(Writer::TempPath(kFinal)));
}

TEST(GsdfCrashTest, RebootAllowsRewrite) {
  // After ClearCrashedPaths ("reboot"), the same path writes cleanly and
  // the stale temp file from the crashed attempt is replaced.
  ReferenceData ref = MakeReference();
  SimEnv base{SimEnv::Options{}};
  FaultInjectionEnv fault(&base);
  FaultRule rule;
  rule.op = FaultOp::kWrite;
  rule.kind = FaultKind::kCrashPoint;
  rule.crash_at_bytes = 100;
  fault.AddRule(rule);

  ASSERT_FALSE(WriteTestFile(&fault, kFinal, ref).ok());
  ASSERT_TRUE(fault.PathCrashed(Writer::TempPath(kFinal)));

  fault.ClearCrashedPaths();
  fault.ClearRules();
  ASSERT_TRUE(WriteTestFile(&fault, kFinal, ref).ok());
  auto reader = Reader::Open(&base, kFinal);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE((*reader)->VerifyAllChecksums().ok());
  // The committed rename consumed the temp file.
  EXPECT_FALSE(base.FileExists(Writer::TempPath(kFinal)));
}

}  // namespace
}  // namespace godiva::gsdf
