// Graceful-degradation tests for the Voyager workload and the snapshot
// query path: a FaultInjectionEnv interposed on the read path exercises
// unit retry (transient faults leave no trace but retry counters),
// per-snapshot skipping under permanent faults, checksum verification
// during a sweep, and a query unit's load through the reader its plan
// opened.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/gbo.h"
#include "core/options.h"
#include "core/query.h"
#include "mesh/dataset_spec.h"
#include "mesh/snapshot_writer.h"
#include "sim/fault_env.h"
#include "sim/platform.h"
#include "workloads/block_schema.h"
#include "workloads/experiment.h"
#include "workloads/platform_runtime.h"
#include "workloads/report.h"
#include "workloads/snapshot_io.h"
#include "workloads/snapshot_query.h"
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

// A snapshot query whose reads go through a FaultInjectionEnv. Rules are
// added after BuildSnapshotQuery, so the plan-time opens (the readers each
// unit's first load reads through) see none of them.
class QueryFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ExperimentOptions options;
    options.spec = mesh::DatasetSpec::Tiny();
    options.spec.checksums = true;
    auto experiment = Experiment::Create(options);
    ASSERT_TRUE(experiment.ok()) << experiment.status();
    experiment_ = std::move(*experiment);
    fault_ = std::make_unique<FaultInjectionEnv>(experiment_->env());
    runtime_ = std::make_unique<PlatformRuntime>(
        PlatformProfile::Engle(), 1e-6, experiment_->env());
    runtime_->SetIoEnv(fault_.get());
    GboOptions db_options;
    db_options.io_threads = 2;
    db_options.retry.initial_backoff = milliseconds(1);
    db_options.retry.max_backoff = milliseconds(2);
    db_ = std::make_unique<Gbo>(db_options);
    ASSERT_TRUE(DefineBlockSchema(db_.get()).ok());
  }

  // {density} over snapshots [1, 3), verified: 4 units, one per file.
  SnapshotQueryOptions Window() const {
    SnapshotQueryOptions options;
    options.fields = {"density"};
    options.verify_checksums = true;
    options.snapshot_begin = 1;
    options.snapshot_end = 3;
    return options;
  }

  // Every read of `path` fails with `code`, from the next one on, for
  // `max_faults` reads.
  void FailReads(const std::string& path, StatusCode code, int max_faults) {
    FaultRule rule;
    rule.path_glob = path;
    rule.op = FaultOp::kRead;
    rule.error_code = code;
    rule.max_faults = max_faults;
    fault_->AddRule(rule);
  }

  // The unit's density buffers equal what a direct, fault-free read of
  // its blocks returns, byte for byte.
  void ExpectDirectBytes(int snapshot, int file) {
    fault_->SetEnabled(false);
    auto plain = ReadPassDirect(runtime_.get(), experiment_->dataset(),
                                snapshot, {"density"},
                                /*include_conn=*/false);
    fault_->SetEnabled(true);
    ASSERT_TRUE(plain.ok()) << plain.status();
    const std::vector<int32_t> blocks =
        mesh::BlocksInFile(experiment_->options().spec, file);
    for (const PlainBlock& block : *plain) {
      if (std::find(blocks.begin(), blocks.end(), block.block_id) ==
          blocks.end()) {
        continue;
      }
      const std::vector<double>& expected = block.fields.at("density");
      const std::vector<std::string> key = BlockKey(block.block_id, snapshot);
      auto buffer = db_->GetFieldBuffer(kBlockRecordType, "density", key);
      ASSERT_TRUE(buffer.ok()) << buffer.status();
      auto size = db_->GetFieldBufferSize(kBlockRecordType, "density", key);
      ASSERT_TRUE(size.ok()) << size.status();
      ASSERT_EQ(*size, static_cast<int64_t>(expected.size() * 8));
      EXPECT_EQ(std::memcmp(*buffer, expected.data(),
                            static_cast<size_t>(*size)),
                0)
          << block.block_id;
    }
  }

  // Deletes the window's units; the database must then be empty.
  void TearDownWindow() {
    const mesh::DatasetSpec& spec = experiment_->options().spec;
    for (int snapshot = 1; snapshot < 3; ++snapshot) {
      for (int f = 0; f < spec.files_per_snapshot; ++f) {
        ASSERT_TRUE(db_->DeleteUnit(SnapshotFileUnitName(snapshot, f)).ok());
      }
    }
    EXPECT_TRUE(db_->CheckInvariants().ok());
    EXPECT_EQ(db_->memory_usage(), 0);
  }

  std::unique_ptr<Experiment> experiment_;
  std::unique_ptr<FaultInjectionEnv> fault_;
  std::unique_ptr<PlatformRuntime> runtime_;
  std::unique_ptr<Gbo> db_;
};

// The first payload read through one unit's handed reader fails once: the
// retry pipeline re-runs the read function, which opens the file again,
// and the unit settles with the right bytes.
TEST_F(QueryFaultTest, TransientReadFaultIsRetried) {
  auto query =
      BuildSnapshotQuery(runtime_.get(), &experiment_->dataset(), Window());
  ASSERT_TRUE(query.ok()) << query.status();
  FailReads(experiment_->dataset().SnapshotFiles(1)[0],
            StatusCode::kUnavailable, /*max_faults=*/1);
  QueryPlanner planner(db_.get());
  {
    auto ticket = planner.Submit(*std::move(query));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    ASSERT_TRUE((*ticket)->WaitAll().ok());
    EXPECT_EQ(fault_->stats().errors_injected, 1);
    EXPECT_EQ(db_->stats().read_retries, 1);
    ExpectDirectBytes(1, 0);
    ASSERT_TRUE((*ticket)->FinishAll().ok());
  }
  TearDownWindow();
}

// Every read of one file fails for good: exactly that unit fails, with the
// injected code, and the window's other units settle.
TEST_F(QueryFaultTest, PermanentReadFaultFailsOnlyThatUnit) {
  auto query =
      BuildSnapshotQuery(runtime_.get(), &experiment_->dataset(), Window());
  ASSERT_TRUE(query.ok()) << query.status();
  FailReads(experiment_->dataset().SnapshotFiles(2)[1],
            StatusCode::kUnavailable, std::numeric_limits<int>::max());
  QueryPlanner planner(db_.get());
  {
    auto ticket = planner.Submit(*std::move(query));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    EXPECT_EQ((*ticket)->WaitAll().code(), StatusCode::kUnavailable);
    const mesh::DatasetSpec& spec = experiment_->options().spec;
    for (int snapshot = 1; snapshot < 3; ++snapshot) {
      for (int f = 0; f < spec.files_per_snapshot; ++f) {
        const std::string unit = SnapshotFileUnitName(snapshot, f);
        Status status = (*ticket)->UnitStatus(unit);
        if (snapshot == 2 && f == 1) {
          EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
        } else {
          EXPECT_TRUE(status.ok()) << unit << ": " << status;
        }
      }
    }
    EXPECT_EQ(db_->stats().units_failed_permanent, 1);
    ExpectDirectBytes(2, 0);
    ASSERT_TRUE((*ticket)->FinishAll().ok());
  }
  TearDownWindow();
}

// An open that fails while the plan sizes a unit fails the whole build
// with that open's status; nothing is loaded.
TEST_F(QueryFaultTest, OpenFaultAtPlanTimeFailsTheBuild) {
  const std::string path = experiment_->dataset().SnapshotFiles(2)[0];
  FaultRule rule;
  rule.path_glob = path;
  rule.op = FaultOp::kOpen;
  rule.error_code = StatusCode::kIoError;
  fault_->AddRule(rule);
  auto direct = fault_->NewRandomAccessFile(path);
  ASSERT_FALSE(direct.ok());
  auto query =
      BuildSnapshotQuery(runtime_.get(), &experiment_->dataset(), Window());
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kIoError);
  EXPECT_EQ(query.status().message(), direct.status().message());
  EXPECT_TRUE(db_->CheckInvariants().ok());
  EXPECT_EQ(db_->memory_usage(), 0);
}

}  // namespace
}  // namespace godiva::workloads
