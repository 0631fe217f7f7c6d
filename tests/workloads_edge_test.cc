// Edge-case tests for the workload layer: decode-cost accounting,
// glyph-feature validation, snapshot subsetting, platform runtime wiring,
// and cell-result bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/gbo.h"
#include "core/options.h"
#include "mesh/dataset_spec.h"
#include "sim/event_scheduler.h"
#include "sim/platform.h"
#include "sim/sim_env.h"
#include "workloads/block_schema.h"
#include "workloads/experiment.h"
#include "workloads/platform_runtime.h"
#include "workloads/processing.h"
#include "workloads/snapshot_io.h"
#include "workloads/test_spec.h"
#include "workloads/voyager.h"

namespace godiva::workloads {
namespace {

ExperimentOptions TinyOptions() {
  ExperimentOptions options;
  options.spec = mesh::DatasetSpec::Tiny();
  options.time_scale = 1e-6;
  options.process.real_work_stride = 1;
  return options;
}

TEST(PlatformRuntimeTest, DecodeChargesAccumulateToTheModeledRate) {
  SimEnv env{SimEnv::Options{}};
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6, &env);
  // 64 MiB in many small charges: total modeled CPU must equal
  // kDecodeSecondsPerMib * 64 within one flush-batch of slack.
  constexpr int kChunks = 1024;
  constexpr int64_t kChunkBytes = 64 * 1024;
  for (int i = 0; i < kChunks; ++i) runtime.ChargeDecode(kChunkBytes);
  double expected = kDecodeSecondsPerMib * 64.0;
  double slack = kDecodeSecondsPerMib;  // ≤1 MiB may still be unflushed
  EXPECT_GE(runtime.cpu()->TotalComputeSeconds(), expected - slack);
  EXPECT_LE(runtime.cpu()->TotalComputeSeconds(), expected + slack);
}

TEST(PlatformRuntimeTest, CpuSpeedScalesCharges) {
  SimEnv env{SimEnv::Options{}};
  PlatformProfile fast = PlatformProfile::Engle();
  fast.cpu_speed = 2.0;
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6, &env);
  PlatformRuntime fast_runtime(fast, 1e-6, &env);
  runtime.ChargeCompute(10.0);
  fast_runtime.ChargeCompute(10.0);
  EXPECT_NEAR(runtime.cpu()->TotalComputeSeconds(), 10.0, 1e-9);
  EXPECT_NEAR(fast_runtime.cpu()->TotalComputeSeconds(), 5.0, 1e-9);
}

TEST(PlatformRuntimeTest, DestroyedRuntimeUninstallsItsTimeScale) {
  // A runtime installs its TimeScale in the env. Once the runtime is gone
  // the env must not reach it: a read used to dereference the dead scale.
  // On the virtual clock, a read advances time only while some live
  // runtime's scale is installed.
  DiscreteEventScope scope;
  SimEnv env{SimEnv::Options{}};
  constexpr int64_t kBytes = 64 * 1024;
  {
    auto file = env.NewWritableFile("f");
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> payload(kBytes, 0x5a);
    ASSERT_TRUE((*file)->Append(payload.data(), kBytes).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto read_advances_clock = [&env]() {
    const TimePoint start = Now();
    auto file = env.NewRandomAccessFile("f");
    std::vector<uint8_t> out(kBytes);
    EXPECT_TRUE(file.ok() && (*file)->Read(0, kBytes, out.data()).ok());
    return Now() > start;
  };

  auto older =
      std::make_unique<PlatformRuntime>(PlatformProfile::Engle(), 1e-6, &env);
  auto newer =
      std::make_unique<PlatformRuntime>(PlatformProfile::Engle(), 1e-6, &env);
  older.reset();  // leaves the newer runtime's scale installed
  EXPECT_TRUE(read_advances_clock());
  newer.reset();
  EXPECT_FALSE(read_advances_clock());
  EXPECT_EQ(env.stats().reads, 2);
}

TEST(ProcessingTest, GlyphFeatureRequiresThreeQuantities) {
  RenderPass pass;
  pass.quantities = {"velz"};
  pass.derived = RenderPass::Derived::kFirst;
  pass.features = {Feature{Feature::Kind::kGlyphs, 0.0, {}}};
  // One block view with one quantity.
  std::vector<double> x = {0, 1, 0, 0};
  std::vector<double> y = {0, 0, 1, 0};
  std::vector<double> z = {0, 0, 0, 1};
  std::vector<int32_t> conn = {0, 1, 2, 3};
  std::vector<double> field = {1, 2, 3, 4};
  BlockView view;
  view.geometry = viz::BlockGeometry{x, y, z, conn};
  view.fields["velz"] = field;
  ProcessOptions options;
  options.real_work_stride = 1;
  auto result = ProcessPass(pass, {view}, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcessingTest, GlyphFeatureProducesTriangles) {
  RenderPass pass = VizTestSpec::Medium().passes[1];  // velocity + glyphs
  ASSERT_EQ(pass.features[1].kind, Feature::Kind::kGlyphs);
  std::vector<double> x = {0, 1, 0, 0};
  std::vector<double> y = {0, 0, 1, 0};
  std::vector<double> z = {0, 0, 0, 1};
  std::vector<int32_t> conn = {0, 1, 2, 3};
  std::vector<double> vx = {1, 1, 1, 1};
  std::vector<double> vy = {0, 0, 0, 0};
  std::vector<double> vz = {0.5, 0.5, 0.5, 0.5};
  BlockView view;
  view.geometry = viz::BlockGeometry{x, y, z, conn};
  view.fields["velx"] = vx;
  view.fields["vely"] = vy;
  view.fields["velz"] = vz;
  ProcessOptions options;
  options.real_work_stride = 1;
  auto result = ProcessPass(pass, {view}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->triangles, 0);
}

TEST(ProcessingTest, StrideZeroOrNegativeTreatedAsOne) {
  RenderPass pass = VizTestSpec::Simple().passes[1];
  std::vector<double> x = {0, 1, 0, 0};
  std::vector<double> y = {0, 0, 1, 0};
  std::vector<double> z = {0, 0, 0, 1};
  std::vector<int32_t> conn = {0, 1, 2, 3};
  std::vector<double> field = {0.0, 1.0, 2.0, 3.0};
  BlockView view;
  view.geometry = viz::BlockGeometry{x, y, z, conn};
  view.fields["dispz"] = field;
  ProcessOptions options;
  options.real_work_stride = 0;
  auto result = ProcessPass(pass, {view}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->tets_visited, 0);
}

TEST(ProcessingTest, EmptyBlockListIsFine) {
  RenderPass pass = VizTestSpec::Simple().passes[0];
  ProcessOptions options;
  auto result = ProcessPass(pass, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bytes_processed, 0);
  EXPECT_EQ(result->triangles, 0);
}

TEST(VoyagerTest, SnapshotSubsettingProcessesOnlyRequested) {
  auto experiment = Experiment::Create(TinyOptions());
  ASSERT_TRUE(experiment.ok());
  SimEnv* env = (*experiment)->env();
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6, env);
  RunConfig config;
  config.dataset = &(*experiment)->dataset();
  config.test = VizTestSpec::Simple();
  config.variant = Variant::kGodivaSingleThread;
  config.process.real_work_stride = 1;
  config.snapshots = {1, 3};
  auto cell = RunVoyager(&runtime, config);
  ASSERT_TRUE(cell.ok()) << cell.status();
  const mesh::DatasetSpec& spec = (*experiment)->options().spec;
  EXPECT_EQ(cell->gbo.units_added, 2);
  EXPECT_EQ(cell->gbo.units_deleted, 2);
  EXPECT_EQ(cell->gbo.records_committed, 2 * spec.num_blocks);
}

TEST(VoyagerTest, NullDatasetRejected) {
  SimEnv env{SimEnv::Options{}};
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6, &env);
  RunConfig config;
  config.dataset = nullptr;
  EXPECT_EQ(RunVoyager(&runtime, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(VoyagerTest, VariantNames) {
  EXPECT_EQ(VariantName(Variant::kOriginal), "O");
  EXPECT_EQ(VariantName(Variant::kGodivaSingleThread), "G");
  EXPECT_EQ(VariantName(Variant::kGodivaMultiThread), "TG");
}

TEST(VoyagerTest, CellResultCountersAreConsistent) {
  auto experiment = Experiment::Create(TinyOptions());
  ASSERT_TRUE(experiment.ok());
  PlatformRuntime runtime(PlatformProfile::Turing(), 1e-6,
                          (*experiment)->env());
  RunConfig config;
  config.dataset = &(*experiment)->dataset();
  config.test = VizTestSpec::Complex();
  config.variant = Variant::kOriginal;
  config.process.real_work_stride = 2;
  auto cell = RunVoyager(&runtime, config);
  ASSERT_TRUE(cell.ok());
  EXPECT_GT(cell->bytes_read, 0);
  EXPECT_GT(cell->reads, 0);
  EXPECT_GE(cell->reads, cell->seeks);
  EXPECT_GT(cell->disk_modeled_seconds, 0);
  EXPECT_GE(cell->total_seconds,
            cell->visible_io_seconds - 1e-9);
  EXPECT_EQ(cell->platform, "turing");
  EXPECT_EQ(cell->test, "complex");
  EXPECT_EQ(cell->variant, "O");
}

TEST(ExperimentTest, CompetitorFlagRuns) {
  auto experiment = Experiment::Create(TinyOptions());
  ASSERT_TRUE(experiment.ok());
  auto cell =
      (*experiment)
          ->RunCell(PlatformProfile::Turing(), VizTestSpec::Simple(),
                    Variant::kGodivaMultiThread, /*with_competitor=*/true);
  ASSERT_TRUE(cell.ok()) << cell.status();
  EXPECT_GT(cell->total_seconds, 0);
}

TEST(SnapshotIoTest, MissingQuantityFailsTheUnit) {
  auto experiment = Experiment::Create(TinyOptions());
  ASSERT_TRUE(experiment.ok());
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          (*experiment)->env());
  Gbo db(GboOptions::SingleThread());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  Gbo::ReadFn read_fn = MakeSnapshotReadFn(
      &runtime, &(*experiment)->dataset(), {"no_such_quantity"});
  Status status = db.ReadUnit(SnapshotUnitName(0), read_fn);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // Rollback: nothing committed.
  EXPECT_EQ(db.stats().records_committed, 0);
  EXPECT_EQ(db.memory_usage(), 0);
}

}  // namespace
}  // namespace godiva::workloads
