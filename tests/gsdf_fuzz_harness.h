// Fuzzing entry point for the gsdf reader, shared by the in-tree property
// tests (tests/gsdf_fuzz_test.cc drives it with deterministic corpora) and
// the optional libFuzzer target (tests/gsdf_fuzzer_main.cc; configure with
// -DGODIVA_LIBFUZZER=ON under Clang). Deliberately gtest-free so the
// libFuzzer build stays dependency-minimal.
#ifndef GODIVA_TESTS_GSDF_FUZZ_HARNESS_H_
#define GODIVA_TESTS_GSDF_FUZZ_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "gsdf/reader.h"
#include "gsdf/writer.h"
#include "sim/sim_env.h"

namespace godiva::gsdf {

namespace fuzz_internal {
inline void CheckOk(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "gsdf fuzz harness setup failed: %s\n", what);
    std::abort();
  }
}

// Every dataset a reader accepts must end inside the file image, so reading
// it needs no more memory than the image itself, and hold a whole number
// of elements of its type, as the writer guarantees, so a loader sizing
// its buffer in elements reads no partial one.
inline void CheckAcceptedDataset(const DatasetInfo& info, size_t size) {
  const int64_t image = static_cast<int64_t>(size);
  CheckOk(info.offset >= 0 && info.nbytes >= 0 && info.offset <= image &&
              info.nbytes <= image - info.offset,
          "accepted dataset ends outside the file");
  CheckOk(info.nbytes % SizeOf(info.type) == 0,
          "accepted dataset is not a whole number of elements");
}
}  // namespace fuzz_internal

// A representative well-formed file image (several datasets with
// attributes) to seed mutations from.
inline std::vector<uint8_t> MakeSeedInput() {
  SimEnv env{SimEnv::Options{}};
  auto writer = Writer::Create(&env, "f");
  fuzz_internal::CheckOk(writer.ok(), "Writer::Create");
  std::vector<double> doubles(300);
  for (size_t i = 0; i < doubles.size(); ++i) doubles[i] = i * 0.5;
  std::vector<int32_t> ints(100);
  for (size_t i = 0; i < ints.size(); ++i) ints[i] = static_cast<int>(i);
  std::string text = "metadata payload";
  fuzz_internal::CheckOk(
      (*writer)
          ->AddDataset("coords", DataType::kFloat64, doubles.data(), 300 * 8,
                       {{"units", "m"}, {"axis", "x"}})
          .ok(),
      "AddDataset coords");
  fuzz_internal::CheckOk(
      (*writer)->AddDataset("conn", DataType::kInt32, ints.data(), 400).ok(),
      "AddDataset conn");
  fuzz_internal::CheckOk(
      (*writer)
          ->AddDataset("name", DataType::kString, text.data(),
                       static_cast<int64_t>(text.size()))
          .ok(),
      "AddDataset name");
  (*writer)->SetFileAttribute("snapshot", "7");
  fuzz_internal::CheckOk((*writer)->Finish().ok(), "Finish");

  auto size = env.GetFileSize("f");
  fuzz_internal::CheckOk(size.ok(), "GetFileSize");
  std::vector<uint8_t> bytes(static_cast<size_t>(*size));
  auto file = env.NewRandomAccessFile("f");
  fuzz_internal::CheckOk(file.ok(), "NewRandomAccessFile");
  fuzz_internal::CheckOk((*file)->Read(0, *size, bytes.data()).ok(),
                         "Read seed image");
  return bytes;
}

// One fuzz iteration: treats (data, size) as a gsdf file image and
// attempts a full open + read of every dataset. Any input must yield a
// clean Status error or consistent data — never a crash, hang, or
// out-of-bounds access (run under ASan to enforce the latter).
inline void FuzzOneInput(const uint8_t* data, size_t size) {
  SimEnv env{SimEnv::Options{}};
  auto file = env.NewWritableFile("f");
  fuzz_internal::CheckOk(file.ok(), "NewWritableFile");
  if (size > 0) {
    fuzz_internal::CheckOk(
        (*file)->Append(data, static_cast<int64_t>(size)).ok(),
        "Append input");
  }
  fuzz_internal::CheckOk((*file)->Close().ok(), "Close");

  auto reader = Reader::Open(&env, "f");
  if (reader.ok()) {
    for (const DatasetInfo& info : (*reader)->datasets()) {
      fuzz_internal::CheckAcceptedDataset(info, size);
      std::vector<uint8_t> buffer(static_cast<size_t>(info.nbytes));
      Status s = (*reader)->Read(info.name, buffer.data(), info.nbytes);
      (void)s;  // either OK or a clean error
    }
  }

  // Salvage pass: the recovery scanner must also survive arbitrary input.
  // When the structural open failed and a real salvage scan ran, every
  // dataset it surfaces carries a verified checksum, so reading it back
  // must succeed and re-verify. (A structurally clean file with a corrupt
  // payload opens normally — no salvage — and may serve CRC mismatches.)
  auto salvage = Reader::OpenSalvage(&env, "f");
  if (!salvage.ok()) return;  // clean rejection (no magic / unreadable)
  for (const DatasetInfo& info : (*salvage)->datasets()) {
    fuzz_internal::CheckAcceptedDataset(info, size);
    std::vector<uint8_t> buffer(static_cast<size_t>(info.nbytes));
    Status s =
        (*salvage)->ReadVerified(info.name, buffer.data(), info.nbytes);
    if ((*salvage)->salvaged()) {
      fuzz_internal::CheckOk(s.ok(), "salvaged dataset failed re-verify");
    }
  }
}

}  // namespace godiva::gsdf

#endif  // GODIVA_TESTS_GSDF_FUZZ_HARNESS_H_
