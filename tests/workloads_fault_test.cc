// Graceful-degradation tests for the Voyager workload: a FaultInjectionEnv
// interposed on the snapshot read path exercises unit retry (transient
// faults leave no trace but retry counters), per-snapshot skipping under
// permanent faults, and checksum verification during a sweep.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mesh/dataset_spec.h"
#include "sim/fault_env.h"
#include "sim/platform.h"
#include "workloads/experiment.h"
#include "workloads/platform_runtime.h"
#include "workloads/report.h"
#include "workloads/test_spec.h"
#include "workloads/voyager.h"

namespace godiva::workloads {
namespace {

using std::chrono::milliseconds;

class VoyagerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ExperimentOptions options;
    options.spec = mesh::DatasetSpec::Tiny();
    options.spec.checksums = true;  // enable verified snapshot reads
    options.time_scale = 0.0004;
    options.process.real_work_stride = 1;
    auto experiment = Experiment::Create(options);
    ASSERT_TRUE(experiment.ok()) << experiment.status();
    experiment_ = std::move(*experiment);
    fault_ = std::make_unique<FaultInjectionEnv>(experiment_->env());
  }

  RunConfig BaseConfig(Variant variant) {
    RunConfig config;
    config.dataset = &experiment_->dataset();
    config.test = VizTestSpec::Simple();
    config.variant = variant;
    config.process.real_work_stride = 1;
    config.retry.initial_backoff = milliseconds(1);
    config.retry.max_backoff = milliseconds(2);
    return config;
  }

  // Runs one cell with the fault env interposed on the read path.
  Result<CellResult> RunFaulty(const RunConfig& config) {
    PlatformRuntime runtime(PlatformProfile::Engle(),
                            experiment_->options().time_scale,
                            experiment_->env());
    runtime.SetIoEnv(fault_.get());
    return RunVoyager(&runtime, config);
  }

  // Reference run without faults.
  Result<CellResult> RunClean(RunConfig config) {
    PlatformRuntime runtime(PlatformProfile::Engle(),
                            experiment_->options().time_scale,
                            experiment_->env());
    return RunVoyager(&runtime, config);
  }

  std::unique_ptr<Experiment> experiment_;
  std::unique_ptr<FaultInjectionEnv> fault_;
};

TEST_F(VoyagerFaultTest, TransientFaultsOnEveryFileStillCompleteTheSweep) {
  RunConfig config = BaseConfig(Variant::kGodivaMultiThread);
  auto clean = RunClean(config);
  ASSERT_TRUE(clean.ok()) << clean.status();

  // The first two opens of every dataset file fail UNAVAILABLE. A unit
  // retry restarts the whole multi-file snapshot read and each attempt can
  // absorb at most one new per-file fault, so a snapshot of F files needs
  // up to 2F + 1 attempts.
  FaultRule rule;
  rule.path_glob = "*.gsdf";
  rule.op = FaultOp::kOpen;
  rule.max_faults = 2;
  fault_->AddRule(rule);
  int files = experiment_->options().spec.files_per_snapshot;
  config.retry.max_attempts = 2 * files + 1;

  auto cell = RunFaulty(config);
  ASSERT_TRUE(cell.ok()) << cell.status();
  // Zero failed frames: every snapshot rendered, same geometry as clean.
  EXPECT_TRUE(cell->skipped.empty());
  EXPECT_EQ(cell->triangles, clean->triangles);
  EXPECT_EQ(cell->tets_visited, clean->tets_visited);
  // ... but only thanks to the retry pipeline.
  EXPECT_GT(cell->gbo.read_retries, 0);
  EXPECT_EQ(cell->gbo.units_failed_permanent, 0);
  EXPECT_GT(fault_->stats().errors_injected, 0);
}

TEST_F(VoyagerFaultTest, PermanentFaultSkipsExactlyThatSnapshot) {
  RunConfig config = BaseConfig(Variant::kGodivaMultiThread);
  auto clean = RunClean(config);
  ASSERT_TRUE(clean.ok()) << clean.status();

  // Every open of snapshot 2's files fails, forever.
  FaultRule rule;
  rule.path_glob = "*snap_0002_*";
  rule.op = FaultOp::kOpen;
  fault_->AddRule(rule);
  config.retry.max_attempts = 2;
  config.skip_failed_snapshots = true;

  auto cell = RunFaulty(config);
  ASSERT_TRUE(cell.ok()) << cell.status();
  // The sweep completed and the run report lists exactly snapshot 2.
  ASSERT_EQ(cell->skipped.size(), 1u);
  EXPECT_EQ(cell->skipped[0].snapshot, 2);
  EXPECT_EQ(cell->skipped[0].error.code(), StatusCode::kUnavailable);
  EXPECT_EQ(cell->gbo.units_failed_permanent, 1);
  // The remaining frames rendered (fewer triangles than clean, but > 0).
  EXPECT_GT(cell->triangles, 0);
  EXPECT_LT(cell->triangles, clean->triangles);
  PrintSkipped(*cell, experiment_->options().spec.num_snapshots);  // smoke
}

TEST_F(VoyagerFaultTest, WithoutSkipFlagAPermanentFaultAbortsTheRun) {
  FaultRule rule;
  rule.path_glob = "*snap_0001_*";
  rule.op = FaultOp::kOpen;
  fault_->AddRule(rule);
  RunConfig config = BaseConfig(Variant::kGodivaSingleThread);
  config.retry.max_attempts = 2;

  auto cell = RunFaulty(config);
  ASSERT_FALSE(cell.ok());
  EXPECT_EQ(cell.status().code(), StatusCode::kUnavailable);
}

TEST_F(VoyagerFaultTest, OriginalVariantSkipsFailedSnapshotsToo) {
  FaultRule rule;
  rule.path_glob = "*snap_0001_*";
  rule.op = FaultOp::kOpen;
  fault_->AddRule(rule);
  RunConfig config = BaseConfig(Variant::kOriginal);
  config.skip_failed_snapshots = true;

  auto cell = RunFaulty(config);
  ASSERT_TRUE(cell.ok()) << cell.status();
  ASSERT_EQ(cell->skipped.size(), 1u);
  EXPECT_EQ(cell->skipped[0].snapshot, 1);
  EXPECT_GT(cell->triangles, 0);
}

TEST_F(VoyagerFaultTest, ChecksumVerificationTurnsCorruptionIntoASkip) {
  // Corrupt every payload read of snapshot 3's files. Without checksums
  // this would render garbage; with verify_checksums the sweep degrades to
  // skipping the snapshot with DATA_LOSS.
  FaultRule rule;
  rule.path_glob = "*snap_0003_*";
  rule.op = FaultOp::kRead;
  rule.kind = FaultKind::kCorrupt;
  rule.skip_first = 3;  // keep the first open's header/footer/directory
  fault_->AddRule(rule);

  RunConfig config = BaseConfig(Variant::kGodivaMultiThread);
  config.retry.max_attempts = 2;
  config.verify_checksums = true;
  config.skip_failed_snapshots = true;

  auto cell = RunFaulty(config);
  ASSERT_TRUE(cell.ok()) << cell.status();
  ASSERT_EQ(cell->skipped.size(), 1u);
  EXPECT_EQ(cell->skipped[0].snapshot, 3);
  EXPECT_EQ(cell->skipped[0].error.code(), StatusCode::kDataLoss);
  EXPECT_GT(cell->triangles, 0);
  EXPECT_GE(fault_->stats().reads_corrupted, 1);
}

TEST_F(VoyagerFaultTest, SalvageServesTornSnapshotFile) {
  RunConfig config = BaseConfig(Variant::kGodivaMultiThread);
  auto clean = RunClean(config);
  ASSERT_TRUE(clean.ok()) << clean.status();

  // Tear the footer off one of snapshot 1's files, the way a power loss
  // under a non-atomic writer would. The directory and all payload CRCs
  // stay intact, so salvage recovers every dataset.
  Env* env = experiment_->env();
  const std::string path = experiment_->dataset().SnapshotFiles(1)[0];
  auto size = env->GetFileSize(path);
  ASSERT_TRUE(size.ok()) << size.status();
  std::vector<uint8_t> image(static_cast<size_t>(*size));
  {
    auto file = env->NewRandomAccessFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Read(0, *size, image.data()).ok());
  }
  {
    auto file = env->NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(image.data(), *size - 9).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  // Without salvage the snapshot is lost (DATA_LOSS, skipped)...
  config.retry.max_attempts = 2;
  config.skip_failed_snapshots = true;
  auto degraded = RunClean(config);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_EQ(degraded->skipped.size(), 1u);
  EXPECT_EQ(degraded->skipped[0].snapshot, 1);
  EXPECT_EQ(degraded->skipped[0].error.code(), StatusCode::kDataLoss);

  // ... with salvage the sweep renders every frame, identically.
  config.salvage = true;
  auto salvaged = RunClean(config);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status();
  EXPECT_TRUE(salvaged->skipped.empty());
  EXPECT_EQ(salvaged->triangles, clean->triangles);
  EXPECT_EQ(salvaged->tets_visited, clean->tets_visited);
  EXPECT_GE(salvaged->torn_writes, 1);
  EXPECT_GT(salvaged->salvaged_datasets, 0);
  // The degraded-run report mentions the recovery.
  std::string report = FormatResilience(*salvaged);
  EXPECT_NE(report.find("salvaged"), std::string::npos) << report;
}

TEST_F(VoyagerFaultTest, QuarantinedFilesSurfaceInTheCellResult) {
  // Snapshot 2's files fail permanently; with a threshold of 1 the first
  // exhausted retry quarantines both declared files of that unit.
  FaultRule rule;
  rule.path_glob = "*snap_0002_*";
  rule.op = FaultOp::kOpen;
  fault_->AddRule(rule);
  RunConfig config = BaseConfig(Variant::kGodivaMultiThread);
  config.retry.max_attempts = 2;
  config.skip_failed_snapshots = true;
  config.quarantine_threshold = 1;

  auto cell = RunFaulty(config);
  ASSERT_TRUE(cell.ok()) << cell.status();
  ASSERT_EQ(cell->skipped.size(), 1u);
  EXPECT_EQ(cell->skipped[0].snapshot, 2);
  ASSERT_EQ(cell->quarantined_files.size(), 2u);
  for (const std::string& path : cell->quarantined_files) {
    EXPECT_NE(path.find("snap_0002"), std::string::npos) << path;
  }
  EXPECT_EQ(cell->gbo.files_quarantined, 2);
  std::string report = FormatResilience(*cell);
  EXPECT_NE(report.find("2 files quarantined"), std::string::npos) << report;
  EXPECT_NE(report.find("quarantined: "), std::string::npos) << report;
  PrintResilience(*cell);  // smoke
}

TEST(ReportResilienceTest, FormatsCountersAndStaysSilentWhenClean) {
  CellResult result;
  result.test = "simple";
  result.variant = "TG";
  EXPECT_EQ(FormatResilience(result), "");  // clean runs print nothing

  result.gbo.files_quarantined = 1;
  result.gbo.reads_short_circuited = 3;
  result.salvaged_datasets = 5;
  result.torn_writes = 1;
  result.quarantined_files = {"/data/snap_0003_f00.gsdf"};
  std::string text = FormatResilience(result);
  EXPECT_NE(text.find("simple(TG)"), std::string::npos) << text;
  EXPECT_NE(text.find("1 files quarantined"), std::string::npos) << text;
  EXPECT_NE(text.find("3 reads short-circuited"), std::string::npos) << text;
  EXPECT_NE(text.find("5 datasets salvaged"), std::string::npos) << text;
  EXPECT_NE(text.find("1 torn writes"), std::string::npos) << text;
  EXPECT_NE(text.find("quarantined: /data/snap_0003_f00.gsdf"),
            std::string::npos)
      << text;
}

TEST_F(VoyagerFaultTest, VerifiedCleanSweepMatchesUnverifiedResults) {
  // Checksum verification on a healthy dataset changes nothing but CPU.
  RunConfig config = BaseConfig(Variant::kGodivaSingleThread);
  auto plain = RunClean(config);
  ASSERT_TRUE(plain.ok()) << plain.status();
  config.verify_checksums = true;
  auto verified = RunClean(config);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_EQ(verified->triangles, plain->triangles);
  EXPECT_EQ(verified->gbo.read_retries, 0);
  EXPECT_TRUE(verified->skipped.empty());
}

}  // namespace
}  // namespace godiva::workloads
