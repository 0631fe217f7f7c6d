// Corruption-robustness property tests for the gsdf reader: random bit
// flips, truncations, and garbage prefixes over a valid file must yield
// clean Status errors (or consistent data) — never crashes, hangs, or
// out-of-bounds reads. Run under ASan in CI-style verification.
//
// The corruption loop itself lives in gsdf_fuzz_harness.h (FuzzOneInput),
// shared with the optional libFuzzer target; these tests supply the
// deterministic corpora.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "gsdf_fuzz_harness.h"
#include "sim/sim_env.h"

namespace godiva::gsdf {
namespace {

void FuzzBytes(const std::vector<uint8_t>& bytes) {
  FuzzOneInput(bytes.data(), bytes.size());
}

std::vector<uint8_t> ReadCorpusFile(const std::filesystem::path& path) {
  std::vector<uint8_t> bytes(
      static_cast<size_t>(std::filesystem::file_size(path)));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  if (!bytes.empty()) {
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size())
        << path;
  }
  std::fclose(f);
  return bytes;
}

TEST(GsdfFuzzTest, SingleBitFlipsNeverCrash) {
  std::vector<uint8_t> valid = MakeSeedInput();
  Random rng(42);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> corrupted = valid;
    size_t position = static_cast<size_t>(
        rng.NextBounded(static_cast<uint64_t>(corrupted.size())));
    corrupted[position] ^=
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    FuzzBytes(corrupted);
  }
}

TEST(GsdfFuzzTest, MultiByteGarbageNeverCrashes) {
  std::vector<uint8_t> valid = MakeSeedInput();
  Random rng(1337);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupted = valid;
    int burst = 1 + static_cast<int>(rng.NextBounded(16));
    for (int i = 0; i < burst; ++i) {
      size_t position = static_cast<size_t>(
          rng.NextBounded(static_cast<uint64_t>(corrupted.size())));
      corrupted[position] = static_cast<uint8_t>(rng.NextUint64());
    }
    FuzzBytes(corrupted);
  }
}

TEST(GsdfFuzzTest, EveryTruncationLengthNeverCrashes) {
  std::vector<uint8_t> valid = MakeSeedInput();
  for (size_t length = 0; length < valid.size(); ++length) {
    std::vector<uint8_t> truncated(valid.begin(),
                                   valid.begin() + static_cast<long>(length));
    FuzzBytes(truncated);
  }
}

TEST(GsdfFuzzTest, RandomPrefixAndSuffixNeverCrash) {
  std::vector<uint8_t> valid = MakeSeedInput();
  Random rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> mutated = valid;
    // Random bytes prepended or appended shift/displace the footer.
    int extra = 1 + static_cast<int>(rng.NextBounded(64));
    std::vector<uint8_t> junk(static_cast<size_t>(extra));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.NextUint64());
    if (rng.NextBool()) {
      mutated.insert(mutated.begin(), junk.begin(), junk.end());
    } else {
      mutated.insert(mutated.end(), junk.begin(), junk.end());
    }
    FuzzBytes(mutated);
  }
}

TEST(GsdfFuzzTest, CheckedInCorpusReplays) {
  // The checked-in corpus (tests/corpus) pins known-nasty shapes —
  // truncations at every structural boundary, a payload CRC flip, a
  // dataset whose end overflows and one that holds a partial element — so
  // regressions reproduce without the random trials above. Also the seed
  // corpus for the libFuzzer target.
  std::filesystem::path dir(GODIVA_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename() == "README.md") continue;
    FuzzBytes(ReadCorpusFile(entry.path()));
    ++replayed;
  }
  // seed + 6 truncations + 1 corruption + 1 overflowing directory entry
  // + 1 partial-element directory entry
  EXPECT_GE(replayed, 10);
}

TEST(GsdfFuzzTest, CorpusChecksumsMatchTheWritingCrc) {
  // The corpus was written by the byte-at-a-time table CRC-32 that the
  // slicing-by-16 loop replaced. Every other gsdf test writes and reads
  // with the same Crc32, so only these stored bytes pin it to the old
  // one: the seed image must pass the v2 tail CRC and every payload CRC,
  // the one-byte payload flip must still be caught, and today's writer
  // must reproduce the seed image byte for byte.
  const std::filesystem::path dir(GODIVA_CORPUS_DIR);
  SimEnv env{SimEnv::Options{}};
  for (const char* name : {"seed_valid", "corrupt_payload_byte"}) {
    std::vector<uint8_t> bytes = ReadCorpusFile(dir / name);
    ASSERT_FALSE(bytes.empty()) << name;
    auto file = env.NewWritableFile(name);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        (*file)->Append(bytes.data(), static_cast<int64_t>(bytes.size()))
            .ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  auto valid = Reader::Open(&env, "seed_valid");
  ASSERT_TRUE(valid.ok()) << valid.status();
  EXPECT_EQ((*valid)->version(), kVersion);  // Open checked the tail CRC
  EXPECT_FALSE((*valid)->salvaged());
  EXPECT_TRUE((*valid)->VerifyAllChecksums().ok());
  EXPECT_EQ(ReadCorpusFile(dir / "seed_valid"), MakeSeedInput());

  auto corrupt = Reader::Open(&env, "corrupt_payload_byte");
  ASSERT_TRUE(corrupt.ok()) << corrupt.status();
  EXPECT_EQ((*corrupt)->VerifyAllChecksums().code(), StatusCode::kDataLoss);
}

TEST(GsdfFuzzTest, SalvageRecoversFromTruncatedCorpusImages) {
  // The footer-shaved truncation leaves every payload and directory entry
  // intact: salvage must recover all three datasets. The header-only
  // truncation has nothing to recover but must still open.
  std::vector<uint8_t> valid = MakeSeedInput();
  SimEnv env{SimEnv::Options{}};
  auto write = [&](const std::string& name, const std::vector<uint8_t>& b) {
    auto file = env.NewWritableFile(name);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        (*file)->Append(b.data(), static_cast<int64_t>(b.size())).ok());
    ASSERT_TRUE((*file)->Close().ok());
  };
  std::vector<uint8_t> shaved(valid.begin(), valid.end() - 9);
  write("shaved", shaved);
  auto salvaged = Reader::OpenSalvage(&env, "shaved");
  ASSERT_TRUE(salvaged.ok()) << salvaged.status();
  EXPECT_TRUE((*salvaged)->salvaged());
  EXPECT_EQ((*salvaged)->datasets().size(), 3u);
  std::vector<double> coords(300);
  ASSERT_TRUE((*salvaged)->ReadVerified("coords", coords.data(), 2400).ok());
  EXPECT_EQ(coords[10], 5.0);

  std::vector<uint8_t> header_only(valid.begin(), valid.begin() + 16);
  write("header_only", header_only);
  auto empty = Reader::OpenSalvage(&env, "header_only");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE((*empty)->datasets().empty());
}

TEST(GsdfFuzzTest, UncorruptedFileStillReadsAfterHarness) {
  // Sanity: the harness's seed image round-trips cleanly.
  std::vector<uint8_t> valid = MakeSeedInput();
  SimEnv env{SimEnv::Options{}};
  auto file = env.NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(
      (*file)->Append(valid.data(), static_cast<int64_t>(valid.size())).ok());
  ASSERT_TRUE((*file)->Close().ok());
  auto reader = Reader::Open(&env, "f");
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->datasets().size(), 3u);
  std::vector<double> coords(300);
  ASSERT_TRUE((*reader)->Read("coords", coords.data(), 2400).ok());
  EXPECT_EQ(coords[10], 5.0);
}

}  // namespace
}  // namespace godiva::gsdf
