// Integration tests for the Voyager workload layer: test specs, the GODIVA
// block schema, both input paths, pass processing, and full O/G/TG runs on
// a tiny dataset with the paper's qualitative invariants; plus the payload
// definition of the serving workloads' synthetic read function.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "common/types.h"
#include "core/gbo.h"
#include "core/key_util.h"
#include "core/options.h"
#include "core/query.h"
#include "gsdf/reader.h"
#include "gsdf/writer.h"
#include "mesh/dataset_spec.h"
#include "mesh/snapshot_writer.h"
#include "sim/env.h"
#include "sim/event_scheduler.h"
#include "sim/platform.h"
#include "sim/sim_env.h"
#include "viz/camera.h"
#include "viz/colormap.h"
#include "viz/derived.h"
#include "viz/marching_tets.h"
#include "viz/pushdown.h"
#include "viz/rasterizer.h"
#include "workloads/block_schema.h"
#include "workloads/experiment.h"
#include "workloads/platform_runtime.h"
#include "workloads/processing.h"
#include "workloads/serving.h"
#include "workloads/snapshot_io.h"
#include "workloads/snapshot_query.h"
#include "workloads/test_spec.h"
#include "workloads/voyager.h"

namespace godiva::workloads {
namespace {

ExperimentOptions TinyOptions() {
  ExperimentOptions options;
  options.spec = mesh::DatasetSpec::Tiny();
  options.time_scale = 0.0004;
  options.process.real_work_stride = 1;  // full real processing when tiny
  return options;
}

TEST(TestSpecTest, ThreeTestsMatchThePaperStructure) {
  std::vector<VizTestSpec> tests = VizTestSpec::AllThree();
  ASSERT_EQ(tests.size(), 3u);
  EXPECT_EQ(tests[0].name, "simple");
  EXPECT_EQ(tests[1].name, "medium");
  EXPECT_EQ(tests[2].name, "complex");
  // "simple" has the smallest computation-to-I/O ratio, "complex" the
  // largest (§4.2).
  EXPECT_LT(tests[0].compute_seconds_per_mib,
            tests[2].compute_seconds_per_mib);
  // "medium" reads the most data (largest per-snapshot input volume).
  EXPECT_GT(tests[1].AllQuantities().size(),
            tests[0].AllQuantities().size());
  EXPECT_GT(tests[1].AllQuantities().size(),
            tests[2].AllQuantities().size());
  // Every test has at least two passes (so the original tool has
  // redundant mesh reads to eliminate).
  for (const VizTestSpec& test : tests) {
    EXPECT_GE(test.passes.size(), 2u) << test.name;
  }
}

TEST(TestSpecTest, AllQuantitiesDeduplicates) {
  VizTestSpec spec;
  RenderPass a;
  a.quantities = {"velx", "vely"};
  RenderPass b;
  b.quantities = {"vely", "velz"};
  spec.passes = {a, b};
  EXPECT_EQ(spec.AllQuantities(),
            (std::vector<std::string>{"velx", "vely", "velz"}));
}

TEST(BlockSchemaTest, DefinesAndCommits) {
  Gbo db(GboOptions::SingleThread());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  auto rec = db.NewRecord(kBlockRecordType);
  EXPECT_TRUE(rec.ok());
}

TEST(BlockSchemaTest, UnitNames) {
  EXPECT_EQ(SnapshotUnitName(7), "snap_0007");
  EXPECT_EQ(SnapshotOfUnit("snap_0042"), 42);
  EXPECT_EQ(SnapshotOfUnit("bogus"), -1);
}

class WorkloadIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Checksummed, so the verified read function can load it too.
    ExperimentOptions options = TinyOptions();
    options.spec.checksums = true;
    auto experiment = Experiment::Create(options);
    ASSERT_TRUE(experiment.ok()) << experiment.status();
    experiment_ = std::move(*experiment);
  }

  std::unique_ptr<Experiment> experiment_;
};

TEST_F(WorkloadIoTest, SnapshotReadFnLoadsAllBlocks) {
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  Gbo db(GboOptions::SingleThread());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  Gbo::ReadFn read_fn = MakeSnapshotReadFn(&runtime, &experiment_->dataset(),
                                           {"velx", "density"});
  ASSERT_TRUE(db.ReadUnit(SnapshotUnitName(1), read_fn).ok());
  const mesh::DatasetSpec& spec = experiment_->options().spec;
  auto records = db.RecordsInUnit(SnapshotUnitName(1));
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), static_cast<size_t>(spec.num_blocks));
  // Requested quantities present, others absent.
  for (int32_t b = 0; b < spec.num_blocks; ++b) {
    auto velx = db.GetFieldBuffer(kBlockRecordType, "velx",
                                  BlockKey(b, 1));
    EXPECT_TRUE(velx.ok()) << velx.status();
    auto accx = db.GetFieldBuffer(kBlockRecordType, "accx",
                                  BlockKey(b, 1));
    EXPECT_FALSE(accx.ok());
  }
}

TEST_F(WorkloadIoTest, ReadFnRejectsBadUnitName) {
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  Gbo db(GboOptions::SingleThread());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  Gbo::ReadFn read_fn =
      MakeSnapshotReadFn(&runtime, &experiment_->dataset(), {});
  EXPECT_FALSE(db.ReadUnit("snap_9999", read_fn).ok());
  EXPECT_FALSE(db.ReadUnit("nonsense", read_fn).ok());
}

TEST_F(WorkloadIoTest, DirectPassReadMatchesGodivaBuffers) {
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  auto plain = ReadPassDirect(&runtime, experiment_->dataset(), 2,
                              {"density"}, /*include_conn=*/true);
  ASSERT_TRUE(plain.ok()) << plain.status();

  // The snapshot read function — per dataset, coalesced and verified...
  std::vector<std::unique_ptr<Gbo>> loaded;
  for (const SnapshotReadOptions& options :
       {SnapshotReadOptions{}, SnapshotReadOptions{.coalesce = true},
        SnapshotReadOptions{.verify_checksums = true}}) {
    auto db = std::make_unique<Gbo>(GboOptions::SingleThread());
    ASSERT_TRUE(DefineBlockSchema(db.get()).ok());
    ASSERT_TRUE(db->ReadUnit(SnapshotUnitName(2),
                             MakeSnapshotReadFn(&runtime,
                                                &experiment_->dataset(),
                                                {"density"}, options))
                    .ok());
    loaded.push_back(std::move(db));
  }
  // ...and the query path (one unit per snapshot file, one ReadBatch each,
  // naming the mesh beside density) must all commit exactly what the
  // direct read returns.
  auto query_db = std::make_unique<Gbo>(GboOptions::SingleThread());
  ASSERT_TRUE(DefineBlockSchema(query_db.get()).ok());
  SnapshotQueryOptions query_options;
  query_options.fields = {kFieldX, kFieldY, kFieldZ, kFieldConn, "density"};
  query_options.snapshot_begin = 2;
  query_options.snapshot_end = 3;
  auto query =
      BuildSnapshotQuery(&runtime, &experiment_->dataset(), query_options);
  ASSERT_TRUE(query.ok()) << query.status();
  QueryPlanner planner(query_db.get());
  auto ticket = planner.Submit(*std::move(query));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  ASSERT_TRUE((*ticket)->WaitAll().ok());
  loaded.push_back(std::move(query_db));

  auto expect_buffer = [](Gbo* db, const char* field, int32_t block_id,
                          const auto& expected) {
    using T = typename std::decay_t<decltype(expected)>::value_type;
    auto buffer =
        db->GetFieldBuffer(kBlockRecordType, field, BlockKey(block_id, 2));
    ASSERT_TRUE(buffer.ok()) << buffer.status();
    auto size =
        db->GetFieldBufferSize(kBlockRecordType, field, BlockKey(block_id, 2));
    ASSERT_TRUE(size.ok());
    ASSERT_EQ(static_cast<size_t>(*size), expected.size() * sizeof(T));
    const T* values = static_cast<const T*>(*buffer);
    EXPECT_EQ(std::vector<T>(values, values + expected.size()), expected)
        << field << " " << block_id;
  };
  for (const std::unique_ptr<Gbo>& db : loaded) {
    for (const PlainBlock& block : *plain) {
      expect_buffer(db.get(), "density", block.block_id,
                    block.fields.at("density"));
      expect_buffer(db.get(), kFieldX, block.block_id, block.x);
      expect_buffer(db.get(), kFieldY, block.block_id, block.y);
      expect_buffer(db.get(), kFieldZ, block.block_id, block.z);
      expect_buffer(db.get(), kFieldConn, block.block_id, block.conn);
    }
  }
}

// Rewrites the gsdf file at `path` with the same datasets and attributes
// and fresh checksums, after `edit` has changed the bytes of `dataset`: a
// file every checksum passes whose contents the writer never produced.
void RewriteDataset(Env* env, const std::string& path,
                    const std::string& dataset,
                    const std::function<void(std::vector<uint8_t>*)>& edit) {
  std::vector<std::pair<gsdf::DatasetInfo, std::vector<uint8_t>>> copies;
  gsdf::AttributeList file_attributes;
  {
    auto reader = gsdf::Reader::Open(env, path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    for (const gsdf::DatasetInfo& info : (*reader)->datasets()) {
      std::vector<uint8_t> bytes(static_cast<size_t>(info.nbytes));
      ASSERT_TRUE((*reader)->Read(info.name, bytes.data(), info.nbytes).ok());
      if (info.name == dataset) edit(&bytes);
      copies.emplace_back(info, std::move(bytes));
    }
    file_attributes = (*reader)->file_attributes();
  }
  auto writer = gsdf::Writer::Create(env, path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const auto& [info, bytes] : copies) {
    gsdf::AttributeList attributes;
    for (const auto& attribute : info.attributes) {
      if (attribute.first != gsdf::kChecksumAttribute) {
        attributes.push_back(attribute);
      }
    }
    ASSERT_TRUE((*writer)
                    ->AddDataset(info.name, info.type, bytes.data(),
                                 static_cast<int64_t>(bytes.size()),
                                 std::move(attributes))
                    .ok());
  }
  for (const auto& [key, value] : file_attributes) {
    (*writer)->SetFileAttribute(key, value);
  }
  ASSERT_TRUE((*writer)->Finish().ok());
}

// A checksum-valid file whose dispy is one element short of dispx: the
// push-down must fail that unit with DATA_LOSS rather than read past dispy
// (into dispz, which lands right behind it).
TEST_F(WorkloadIoTest, PushdownRefusesInputsOfDifferentLengths) {
  const mesh::DatasetSpec& spec = experiment_->options().spec;
  const int32_t block = mesh::BlocksInFile(spec, 0).front();
  RewriteDataset(experiment_->env(),
                 experiment_->dataset().SnapshotFiles(1)[0],
                 mesh::BlockDatasetName(block, "dispy"),
                 [](std::vector<uint8_t>* bytes) {
                   bytes->erase(bytes->end() - 8, bytes->end());
                 });
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  Gbo db(GboOptions::SingleThread());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  SnapshotQueryOptions options;
  options.kernels = {viz::MagnitudeKernel("disp_mag", "disp")};
  options.verify_checksums = true;
  options.snapshot_begin = 1;
  options.snapshot_end = 2;
  auto query = BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
  ASSERT_TRUE(query.ok()) << query.status();
  QueryPlanner planner(&db);
  {
    auto ticket = planner.Submit(*std::move(query));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    EXPECT_EQ((*ticket)->WaitAll().code(), StatusCode::kDataLoss);
    Status bad = (*ticket)->UnitStatus(SnapshotFileUnitName(1, 0));
    EXPECT_EQ(bad.code(), StatusCode::kDataLoss) << bad;
    EXPECT_NE(bad.message().find("dispy"), std::string::npos) << bad;
    EXPECT_TRUE((*ticket)->UnitStatus(SnapshotFileUnitName(1, 1)).ok());
    ASSERT_TRUE((*ticket)->FinishAll().ok());
  }
  for (int f = 0; f < spec.files_per_snapshot; ++f) {
    ASSERT_TRUE(db.DeleteUnit(SnapshotFileUnitName(1, f)).ok());
  }
  EXPECT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.memory_usage(), 0);
}

// A checksum-valid conn naming a node one past the block's last: the O
// and G sweeps must fail with DATA_LOSS naming conn, not index past x.
TEST_F(WorkloadIoTest, VoyagerRefusesConnectivityOutsideTheBlock) {
  const mesh::DatasetSpec& spec = experiment_->options().spec;
  const int32_t block = mesh::BlocksInFile(spec, 0).front();
  const std::string path = experiment_->dataset().SnapshotFiles(0)[0];
  int32_t nodes = 0;
  {
    auto reader = gsdf::Reader::Open(experiment_->env(), path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    auto x = (*reader)->Find(mesh::BlockDatasetName(block, "x"));
    ASSERT_TRUE(x.ok()) << x.status();
    nodes = static_cast<int32_t>((*x)->nbytes / 8);
  }
  RewriteDataset(experiment_->env(), path,
                 mesh::BlockDatasetName(block, "conn"),
                 [nodes](std::vector<uint8_t>* bytes) {
                   std::memcpy(bytes->data(), &nodes, sizeof(nodes));
                 });
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  for (Variant variant : {Variant::kOriginal, Variant::kGodivaSingleThread}) {
    SCOPED_TRACE(VariantName(variant));
    RunConfig config;
    config.dataset = &experiment_->dataset();
    config.test = VizTestSpec::Simple();
    config.variant = variant;
    config.verify_checksums = true;
    config.process.real_work_stride = 1;
    config.snapshots = {0};
    auto cell = RunVoyager(&runtime, config);
    ASSERT_FALSE(cell.ok());
    EXPECT_EQ(cell.status().code(), StatusCode::kDataLoss) << cell.status();
    EXPECT_NE(cell.status().message().find("conn"), std::string::npos)
        << cell.status();
  }
}

TEST_F(WorkloadIoTest, WarmExtentsCacheRebuildsAWindowWithoutReads) {
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  SnapshotExtentsCache cache;
  SnapshotQueryOptions options;
  options.fields = {"density", "velx"};
  options.snapshot_begin = 1;
  options.snapshot_end = 3;
  options.extents_cache = &cache;
  experiment_->env()->ResetStats();
  auto cold = BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  const int64_t cold_reads = experiment_->env()->stats().reads;
  EXPECT_GT(cold_reads, 0);  // the cold build read every file's directory

  auto warm = BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(experiment_->env()->stats().reads, cold_reads);
  ASSERT_EQ(cold->units.size(), 4u);  // 2 snapshots x 2 files
  ASSERT_EQ(warm->units.size(), cold->units.size());
  for (size_t i = 0; i < cold->units.size(); ++i) {
    EXPECT_EQ(warm->units[i].name, cold->units[i].name);
    EXPECT_EQ(warm->units[i].bytes, cold->units[i].bytes);
  }

  // A unit's bytes are the directory sizes of the datasets its blocks
  // load: the requested fields and nothing else.
  const mesh::DatasetSpec& spec = experiment_->options().spec;
  for (size_t i = 0; i < cold->units.size(); ++i) {
    const int snapshot = 1 + static_cast<int>(i) / spec.files_per_snapshot;
    const int file = static_cast<int>(i) % spec.files_per_snapshot;
    auto reader = gsdf::Reader::Open(
        experiment_->env(),
        experiment_->dataset().SnapshotFiles(snapshot)[file]);
    ASSERT_TRUE(reader.ok()) << reader.status();
    int64_t bytes = 0;
    for (int32_t block_id : mesh::BlocksInFile(spec, file)) {
      for (const char* field : {"density", "velx"}) {
        auto info = (*reader)->Find(mesh::BlockDatasetName(block_id, field));
        ASSERT_TRUE(info.ok()) << info.status();
        bytes += (*info)->nbytes;
      }
    }
    EXPECT_EQ(cold->units[i].bytes, bytes) << cold->units[i].name;
  }
}

// A query reads exactly the fields it names: naming the mesh beside
// density costs exactly the mesh's payload bytes more, and a density-only
// load leaves the mesh fields unallocated.
TEST_F(WorkloadIoTest, QueryReadsOnlyTheFieldsItNames) {
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  // Loads snapshot 2 through one query naming `fields` into `db` and sets
  // `bytes_read` to what the disk read for it, directories included.
  auto load = [&](const std::vector<std::string>& fields, Gbo* db,
                  int64_t* bytes_read) {
    ASSERT_TRUE(DefineBlockSchema(db).ok());
    SnapshotQueryOptions options;
    options.fields = fields;
    options.limits.max_gap = 0;  // no gap bytes ride along either
    options.snapshot_begin = 2;
    options.snapshot_end = 3;
    experiment_->env()->ResetStats();
    auto query =
        BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
    ASSERT_TRUE(query.ok()) << query.status();
    QueryPlanner planner(db);
    auto ticket = planner.Submit(*std::move(query));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    ASSERT_TRUE((*ticket)->WaitAll().ok());
    ASSERT_TRUE((*ticket)->FinishAll().ok());
    *bytes_read = experiment_->env()->stats().bytes_read;
  };
  Gbo density_db(GboOptions::SingleThread());
  int64_t density_bytes = 0;
  ASSERT_NO_FATAL_FAILURE(load({"density"}, &density_db, &density_bytes));
  Gbo mesh_db(GboOptions::SingleThread());
  int64_t mesh_bytes = 0;
  ASSERT_NO_FATAL_FAILURE(
      load({kFieldX, kFieldY, kFieldZ, kFieldConn, "density"}, &mesh_db,
           &mesh_bytes));

  const mesh::DatasetSpec& spec = experiment_->options().spec;
  int64_t mesh_payload = 0;
  for (int f = 0; f < spec.files_per_snapshot; ++f) {
    auto reader = gsdf::Reader::Open(
        experiment_->env(), experiment_->dataset().SnapshotFiles(2)[f]);
    ASSERT_TRUE(reader.ok()) << reader.status();
    for (int32_t block_id : mesh::BlocksInFile(spec, f)) {
      for (const char* field : {kFieldX, kFieldY, kFieldZ, kFieldConn}) {
        auto info = (*reader)->Find(mesh::BlockDatasetName(block_id, field));
        ASSERT_TRUE(info.ok()) << info.status();
        mesh_payload += (*info)->nbytes;
      }
    }
  }
  EXPECT_GT(mesh_payload, 0);
  EXPECT_EQ(mesh_bytes - density_bytes, mesh_payload);

  auto plain = ReadPassDirect(&runtime, experiment_->dataset(), 2,
                              {"density"}, /*include_conn=*/false);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_EQ(plain->size(), static_cast<size_t>(spec.num_blocks));
  for (const PlainBlock& block : *plain) {
    const std::vector<std::string> key = BlockKey(block.block_id, 2);
    auto x = density_db.GetFieldBuffer(kBlockRecordType, kFieldX, key);
    EXPECT_EQ(x.status().code(), StatusCode::kFailedPrecondition)
        << x.status();
    auto buffer = density_db.GetFieldBuffer(kBlockRecordType, "density", key);
    ASSERT_TRUE(buffer.ok()) << buffer.status();
    auto size = density_db.GetFieldBufferSize(kBlockRecordType, "density", key);
    ASSERT_TRUE(size.ok()) << size.status();
    const std::vector<double>& expected = block.fields.at("density");
    ASSERT_EQ(static_cast<size_t>(*size), expected.size() * sizeof(double));
    const double* values = static_cast<const double*>(*buffer);
    EXPECT_EQ(std::vector<double>(values, values + expected.size()),
              expected)
        << block.block_id;
  }
}

// Dedup pins a resident unit by name alone: a {velx} query over the units
// a {density} query left resident must fail them with FAILED_PRECONDITION
// naming the unit, a block and velx, not settle OK over records that lack
// velx.
TEST_F(WorkloadIoTest, QueryFailsResidentUnitsThatLackANamedField) {
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  const mesh::DatasetSpec& spec = experiment_->options().spec;
  Gbo db(GboOptions::SingleThread());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  QueryPlanner planner(&db);
  SnapshotQueryOptions options;
  options.snapshot_begin = 1;
  options.snapshot_end = 3;
  options.fields = {"density"};
  {
    auto query = BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
    ASSERT_TRUE(query.ok()) << query.status();
    auto ticket = planner.Submit(*std::move(query));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    ASSERT_TRUE((*ticket)->WaitAll().ok());
    ASSERT_TRUE((*ticket)->FinishAll().ok());
  }
  options.fields = {"velx"};
  {
    auto query = BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
    ASSERT_TRUE(query.ok()) << query.status();
    auto ticket = planner.Submit(*std::move(query));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    Status waited = (*ticket)->WaitAll();
    EXPECT_EQ(waited.code(), StatusCode::kFailedPrecondition) << waited;
    for (int snapshot = 1; snapshot < 3; ++snapshot) {
      for (int f = 0; f < spec.files_per_snapshot; ++f) {
        const std::string unit = SnapshotFileUnitName(snapshot, f);
        auto disposition = (*ticket)->DispositionOf(unit);
        ASSERT_TRUE(disposition.ok()) << disposition.status();
        EXPECT_EQ(*disposition, QueryDisposition::kResident) << unit;
        Status bad = (*ticket)->UnitStatus(unit);
        EXPECT_EQ(bad.code(), StatusCode::kFailedPrecondition) << bad;
        const std::string block =
            StrCat(" block ", mesh::BlocksInFile(spec, f).front(), ":");
        for (const std::string& part : {unit, block, std::string("velx")}) {
          EXPECT_NE(bad.message().find(part), std::string::npos)
              << part << " in " << bad;
        }
      }
    }
    ASSERT_TRUE((*ticket)->FinishAll().ok());
  }
  for (int snapshot = 1; snapshot < 3; ++snapshot) {
    for (int f = 0; f < spec.files_per_snapshot; ++f) {
      ASSERT_TRUE(db.DeleteUnit(SnapshotFileUnitName(snapshot, f)).ok());
    }
  }
  EXPECT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.memory_usage(), 0);
}

// A query that names no field and no kernel would load nothing.
TEST_F(WorkloadIoTest, QueryThatNamesNoFieldIsInvalid) {
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  SnapshotQueryOptions options;
  options.snapshot_begin = 0;
  options.snapshot_end = 1;
  auto query = BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument)
      << query.status();
}

// Counts the read handles opened through the Env it wraps and how many are
// still alive, so a test can see when a query opens a file and when it
// lets the handle go. Must outlive every handle it hands out.
class CountingEnv : public Env {
 public:
  explicit CountingEnv(Env* base) : base_(base) {}

  int64_t opens() const { return opens_.load(); }
  int64_t live() const { return live_.load(); }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                            base_->NewRandomAccessFile(path));
    opens_.fetch_add(1);
    return std::unique_ptr<RandomAccessFile>(
        std::make_unique<CountedFile>(std::move(file), &live_));
  }
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    return base_->NewWritableFile(path);
  }
  bool FileExists(const std::string& path) const override {
    return base_->FileExists(path);
  }
  Result<int64_t> GetFileSize(const std::string& path) const override {
    return base_->GetFileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Result<std::vector<std::string>> ListFiles(
      const std::string& prefix) const override {
    return base_->ListFiles(prefix);
  }

 private:
  class CountedFile : public RandomAccessFile {
   public:
    CountedFile(std::unique_ptr<RandomAccessFile> base,
                std::atomic<int64_t>* live)
        : base_(std::move(base)), live_(live) {
      live_->fetch_add(1);
    }
    ~CountedFile() override { live_->fetch_sub(1); }
    Status Read(int64_t offset, int64_t size, void* out) override {
      return base_->Read(offset, size, out);
    }
    int64_t Size() const override { return base_->Size(); }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    std::atomic<int64_t>* live_;
  };

  Env* base_;
  std::atomic<int64_t> opens_{0};
  std::atomic<int64_t> live_{0};
};

// Loads run on two I/O threads, so each handed reader crosses from the
// planning thread to a pool thread.
GboOptions TwoIoThreads() {
  GboOptions options;
  options.io_threads = 2;
  return options;
}

// Submits `query`, waits for every unit and releases the pins.
void RunQuery(QueryPlanner* planner, Result<GboQuery> query) {
  ASSERT_TRUE(query.ok()) << query.status();
  auto ticket = planner->Submit(*std::move(query));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  ASSERT_TRUE((*ticket)->WaitAll().ok());
  ASSERT_TRUE((*ticket)->FinishAll().ok());
}

// Deletes every query unit of snapshots [begin, end), then checks the
// database is empty.
void DeleteSnapshotUnits(Gbo* db, const mesh::DatasetSpec& spec, int begin,
                         int end) {
  for (int snapshot = begin; snapshot < end; ++snapshot) {
    for (int f = 0; f < spec.files_per_snapshot; ++f) {
      ASSERT_TRUE(db->DeleteUnit(SnapshotFileUnitName(snapshot, f)).ok());
    }
  }
  EXPECT_TRUE(db->CheckInvariants().ok());
  EXPECT_EQ(db->memory_usage(), 0);
}

// Without a cache a query opens each file once, to size its unit, and the
// unit's load reads through that reader and drops it: no load opens a
// file, and no handle is left once the window has settled. A unit that
// dedup satisfies lets its handle go at plan time.
TEST_F(WorkloadIoTest, ColdQueryOpensEachFileOnceAtPlanTime) {
  CountingEnv counting(experiment_->env());
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  runtime.SetIoEnv(&counting);
  const mesh::DatasetSpec& spec = experiment_->options().spec;
  Gbo db(TwoIoThreads());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  QueryPlanner planner(&db);
  SnapshotQueryOptions options;
  options.fields = {"density"};
  options.snapshot_begin = 1;
  options.snapshot_end = 3;
  auto query = BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
  ASSERT_TRUE(query.ok()) << query.status();
  const int64_t files = 2 * spec.files_per_snapshot;
  EXPECT_EQ(counting.opens(), files);
  EXPECT_EQ(counting.live(), files);  // each held by its unit's read fn
  ASSERT_NO_FATAL_FAILURE(RunQuery(&planner, std::move(query)));
  EXPECT_EQ(counting.opens(), files);
  EXPECT_EQ(counting.live(), 0);

  // Slide to [2, 4): snapshot 2's units are resident, so the planner lets
  // their readers go, and snapshot 3's go with their loads. The ticket,
  // still alive, holds none.
  options.snapshot_begin = 2;
  options.snapshot_end = 4;
  auto slid = BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
  ASSERT_TRUE(slid.ok()) << slid.status();
  EXPECT_EQ(counting.opens(), 2 * files);
  auto ticket = planner.Submit(*std::move(slid));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  ASSERT_TRUE((*ticket)->WaitAll().ok());
  EXPECT_EQ(counting.live(), 0);
  ASSERT_TRUE((*ticket)->FinishAll().ok());
  DeleteSnapshotUnits(&db, spec, 1, 4);
}

// A query cancelled before any unit loaded deletes its queued units, and
// with them the readers their read functions were handed.
TEST_F(WorkloadIoTest, CancelledQueryLetsItsHandlesGo) {
  CountingEnv counting(experiment_->env());
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  runtime.SetIoEnv(&counting);
  // No I/O thread: a direct load runs only inside WaitAny/WaitAll.
  Gbo db(GboOptions::SingleThread());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  QueryPlanner planner(&db);
  SnapshotQueryOptions options;
  options.fields = {"density"};
  options.snapshot_begin = 1;
  options.snapshot_end = 3;
  auto query = BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
  ASSERT_TRUE(query.ok()) << query.status();
  auto ticket = planner.Submit(*std::move(query));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_EQ(counting.live(), 2 * experiment_->options().spec.files_per_snapshot);
  ASSERT_TRUE((*ticket)->Cancel().ok());
  EXPECT_EQ(counting.live(), 0);
  EXPECT_EQ((*ticket)->WaitAll().code(), StatusCode::kAborted);
  EXPECT_EQ(counting.opens(), 2 * experiment_->options().spec.files_per_snapshot);
  EXPECT_EQ(db.memory_usage(), 0);
}

// With an extents cache, each planned file is opened once across every
// plan of a sliding window, and the cache keeps exactly that handle alive
// until it is destroyed.
TEST_F(WorkloadIoTest, ExtentsCacheHoldsOneHandlePerFileUntilDestroyed) {
  CountingEnv counting(experiment_->env());
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  runtime.SetIoEnv(&counting);
  const mesh::DatasetSpec& spec = experiment_->options().spec;
  Gbo db(TwoIoThreads());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  QueryPlanner planner(&db);
  {
    SnapshotExtentsCache cache;
    SnapshotQueryOptions options;
    options.fields = {"density"};
    options.extents_cache = &cache;
    for (int begin : {0, 1}) {
      SCOPED_TRACE(begin);
      options.snapshot_begin = begin;
      options.snapshot_end = begin + 2;
      ASSERT_NO_FATAL_FAILURE(RunQuery(
          &planner,
          BuildSnapshotQuery(&runtime, &experiment_->dataset(), options)));
      const int64_t planned = (begin + 2) * spec.files_per_snapshot;
      EXPECT_EQ(counting.opens(), planned);
      EXPECT_EQ(counting.live(), planned);
    }
    // A plan through another io env does not reuse readers opened through
    // this one: it re-opens and replaces the entries it plans.
    runtime.SetIoEnv(nullptr);
    auto replanned =
        BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
    ASSERT_TRUE(replanned.ok()) << replanned.status();
    EXPECT_EQ(counting.opens(), 3 * spec.files_per_snapshot);
    EXPECT_EQ(counting.live(), spec.files_per_snapshot);  // snapshot 0's
  }
  EXPECT_EQ(counting.live(), 0);
  DeleteSnapshotUnits(&db, spec, 0, 3);
}

// A unit evicted under a small memory limit and read again through a copy
// of its read function re-opens its file exactly once (the handed reader
// went with the first load) and lands what the direct read returns.
TEST_F(WorkloadIoTest, EvictedUnitReopensItsFileOnceOnReload) {
  CountingEnv counting(experiment_->env());
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  runtime.SetIoEnv(&counting);
  const mesh::DatasetSpec& spec = experiment_->options().spec;
  Gbo db(TwoIoThreads());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  QueryPlanner planner(&db);
  SnapshotQueryOptions options;
  options.fields = {"density"};
  options.snapshot_begin = 1;
  options.snapshot_end = 2;
  auto first = BuildSnapshotQuery(&runtime, &experiment_->dataset(), options);
  ASSERT_TRUE(first.ok()) << first.status();
  std::map<std::string, Gbo::ReadFn> read_fns;
  for (const QueryUnitSpec& unit : first->units) {
    read_fns[unit.name] = unit.read_fn;
  }
  ASSERT_NO_FATAL_FAILURE(RunQuery(&planner, std::move(first)));
  // Room for one and a half snapshots: loading snapshot 2 evicts some of
  // snapshot 1's units.
  const int64_t one_snapshot = db.memory_usage();
  ASSERT_GT(one_snapshot, 0);
  ASSERT_TRUE(db.SetMemSpace(one_snapshot * 3 / 2).ok());
  options.snapshot_begin = 2;
  options.snapshot_end = 3;
  ASSERT_NO_FATAL_FAILURE(RunQuery(
      &planner,
      BuildSnapshotQuery(&runtime, &experiment_->dataset(), options)));
  EXPECT_GT(db.stats().units_evicted, 0);

  auto plain = ReadPassDirect(&runtime, experiment_->dataset(), 1,
                              {"density"}, /*include_conn=*/false);
  ASSERT_TRUE(plain.ok()) << plain.status();
  int reloaded = 0;
  for (int f = 0; f < spec.files_per_snapshot; ++f) {
    const std::string unit = SnapshotFileUnitName(1, f);
    auto state = db.GetUnitState(unit);
    ASSERT_TRUE(state.ok()) << state.status();
    if (*state != UnitState::kDeleted) continue;  // still resident
    SCOPED_TRACE(unit);
    const int64_t opens = counting.opens();
    ASSERT_TRUE(db.ReadUnit(unit, read_fns.at(unit)).ok());
    EXPECT_EQ(counting.opens(), opens + 1);
    ++reloaded;
    const std::vector<int32_t> blocks = mesh::BlocksInFile(spec, f);
    for (const PlainBlock& block : *plain) {
      if (std::find(blocks.begin(), blocks.end(), block.block_id) ==
          blocks.end()) {
        continue;
      }
      const std::vector<double>& expected = block.fields.at("density");
      const std::vector<std::string> key = BlockKey(block.block_id, 1);
      auto buffer = db.GetFieldBuffer(kBlockRecordType, "density", key);
      ASSERT_TRUE(buffer.ok()) << buffer.status();
      auto size = db.GetFieldBufferSize(kBlockRecordType, "density", key);
      ASSERT_TRUE(size.ok()) << size.status();
      ASSERT_EQ(*size, static_cast<int64_t>(expected.size() * 8));
      EXPECT_EQ(std::memcmp(*buffer, expected.data(),
                            static_cast<size_t>(*size)),
                0)
          << block.block_id;
    }
    ASSERT_TRUE(db.FinishUnit(unit).ok());
  }
  EXPECT_GT(reloaded, 0);
  EXPECT_EQ(counting.live(), 0);
  for (int snapshot = 1; snapshot < 3; ++snapshot) {
    for (int f = 0; f < spec.files_per_snapshot; ++f) {
      // NOT_FOUND for a unit that was evicted and not reloaded.
      (void)db.DeleteUnit(SnapshotFileUnitName(snapshot, f));
    }
  }
  EXPECT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.memory_usage(), 0);
}

TEST_F(WorkloadIoTest, PartialElementBlockListFailsTheLoad) {
  // gsdf stores 7 bytes of kByte without complaint, but the loaders read
  // the block list as int32: the load must fail naming the dataset rather
  // than read 7 bytes into a one-element vector. File 1 of snapshot 0 is
  // replaced, so file 0's blocks are committed before the failure and
  // must be rolled back with the unit.
  {
    auto writer =
        gsdf::Writer::Create(experiment_->env(), experiment_->dataset().files[1]);
    ASSERT_TRUE(writer.ok()) << writer.status();
    const uint8_t ragged[7] = {0xff, 0xff, 0xff, 0x7f, 1, 2, 3};
    ASSERT_TRUE(
        (*writer)->AddDataset("blocks", DataType::kByte, ragged, 7).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  for (const SnapshotReadOptions& options :
       {SnapshotReadOptions{}, SnapshotReadOptions{.coalesce = true}}) {
    Gbo db(GboOptions::SingleThread());
    ASSERT_TRUE(DefineBlockSchema(&db).ok());
    Status status = db.ReadUnit(
        SnapshotUnitName(0), MakeSnapshotReadFn(&runtime,
                                                &experiment_->dataset(),
                                                {"density"}, options));
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("dataset blocks"), std::string::npos)
        << status;
    EXPECT_EQ(db.memory_usage(), 0);
  }
}

TEST_F(WorkloadIoTest, ProcessPassCountsBytesAndExtracts) {
  PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6,
                          experiment_->env());
  auto plain = ReadPassDirect(&runtime, experiment_->dataset(), 0,
                              {"velx", "vely", "velz"},
                              /*include_conn=*/true);
  ASSERT_TRUE(plain.ok());
  std::vector<BlockView> views;
  for (const PlainBlock& block : *plain) {
    BlockView view;
    view.block_id = block.block_id;
    view.geometry =
        viz::BlockGeometry{block.x, block.y, block.z, block.conn};
    for (const auto& [name, values] : block.fields) {
      view.fields[name] = values;
    }
    views.push_back(std::move(view));
  }
  ASSERT_EQ(views.size(), 6u);
  RenderPass pass = VizTestSpec::Simple().passes[0];
  ProcessOptions options;
  options.real_work_stride = 1;
  auto result = ProcessPass(pass, views, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->bytes_processed, 0);
  EXPECT_GT(result->tets_visited, 0);
  EXPECT_GT(result->triangles, 0);

  // The pass's counts are the sums of its blocks' counts: no block is
  // dropped or counted twice.
  int64_t block_triangles = 0;
  int64_t block_tets = 0;
  for (const BlockView& view : views) {
    auto one = ProcessPass(pass, {view}, options);
    ASSERT_TRUE(one.ok()) << one.status();
    block_triangles += one->triangles;
    block_tets += one->tets_visited;
  }
  EXPECT_EQ(block_triangles, result->triangles);
  EXPECT_EQ(block_tets, result->tets_visited);

  // Rasterizing the pass changes none of its counts.
  constexpr int kWidth = 64;
  constexpr int kHeight = 48;
  viz::Rasterizer rasterizer(kWidth, kHeight);
  ProcessOptions drawn = options;
  drawn.rasterizer = &rasterizer;
  auto rasterized = ProcessPass(pass, views, drawn);
  ASSERT_TRUE(rasterized.ok()) << rasterized.status();
  EXPECT_EQ(rasterized->triangles, result->triangles);
  EXPECT_EQ(rasterized->tets_visited, result->tets_visited);
  EXPECT_EQ(rasterized->bytes_processed, result->bytes_processed);
  EXPECT_GT(rasterized->pixels, 0);

  // The image is the pass's whole isosurface drawn once, over the
  // attribute range of every block's triangles.
  viz::TriangleSoup soup;
  for (const BlockView& view : views) {
    std::vector<double> speed =
        viz::Magnitude(view.fields.at("velx"), view.fields.at("vely"),
                       view.fields.at("velz"));
    auto [slowest, fastest] = std::minmax_element(speed.begin(), speed.end());
    double isovalue =
        *slowest + pass.features[0].level_fraction * (*fastest - *slowest);
    viz::MarchTets(view.geometry, speed, isovalue, speed, &soup);
  }
  double lo, hi;
  soup.AttributeRange(&lo, &hi);
  viz::Rasterizer reference(kWidth, kHeight);
  int64_t reference_pixels = reference.Draw(
      soup, viz::Camera(viz::Camera::Options{}, kWidth, kHeight),
      viz::Colormap(viz::ColormapKind::kViridis, lo, hi));
  EXPECT_EQ(rasterized->pixels, reference_pixels);
  int64_t differing = 0;
  for (int y = 0; y < kHeight; ++y) {
    for (int x = 0; x < kWidth; ++x) {
      if (!(rasterizer.image().Get(x, y) == reference.image().Get(x, y))) {
        ++differing;
      }
    }
  }
  EXPECT_EQ(differing, 0);

  // Missing quantity is an error.
  RenderPass bad = pass;
  bad.quantities = {"accx", "accy", "accz"};
  EXPECT_FALSE(ProcessPass(bad, views, options).ok());
}

class VoyagerVariantTest : public WorkloadIoTest {};

TEST_F(VoyagerVariantTest, AllVariantsProduceIdenticalGeometry) {
  // O, G, TG, and TG with per-file read coalescing.
  struct Input {
    Variant variant;
    bool coalesce_reads;
  };
  std::vector<CellResult> cells;
  for (Input input : {Input{Variant::kOriginal, false},
                      Input{Variant::kGodivaSingleThread, false},
                      Input{Variant::kGodivaMultiThread, false},
                      Input{Variant::kGodivaMultiThread, true}}) {
    PlatformRuntime runtime(PlatformProfile::Engle(),
                            experiment_->options().time_scale,
                            experiment_->env());
    RunConfig config;
    config.dataset = &experiment_->dataset();
    config.test = VizTestSpec::Simple();
    config.variant = input.variant;
    config.coalesce_reads = input.coalesce_reads;
    config.process.real_work_stride = 1;
    auto cell = RunVoyager(&runtime, config);
    ASSERT_TRUE(cell.ok()) << cell.status();
    cells.push_back(*cell);
  }
  // Same triangles and tets regardless of the input path.
  EXPECT_GT(cells[0].triangles, 0);
  for (size_t i = 1; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].triangles, cells[0].triangles) << i;
    EXPECT_EQ(cells[i].tets_visited, cells[0].tets_visited) << i;
  }
  // Coalescing merges file-adjacent datasets into fewer device reads.
  EXPECT_EQ(cells[2].coalesced_reads, 0);
  EXPECT_GT(cells[3].coalesced_reads, 0);
  EXPECT_LT(cells[3].reads, cells[2].reads);
}

TEST_F(VoyagerVariantTest, GodivaReducesReadVolume) {
  for (const VizTestSpec& test : VizTestSpec::AllThree()) {
    std::vector<int64_t> bytes;
    std::vector<int64_t> seeks;
    for (Variant variant :
         {Variant::kOriginal, Variant::kGodivaSingleThread}) {
      PlatformRuntime runtime(PlatformProfile::Engle(),
                              experiment_->options().time_scale,
                              experiment_->env());
      RunConfig config;
      config.dataset = &experiment_->dataset();
      config.test = test;
      config.variant = variant;
      config.process.real_work_stride = 4;
      auto cell = RunVoyager(&runtime, config);
      ASSERT_TRUE(cell.ok()) << cell.status();
      bytes.push_back(cell->bytes_read);
      seeks.push_back(cell->seeks);
    }
    EXPECT_LT(bytes[1], bytes[0]) << test.name;
    EXPECT_LT(seeks[1], seeks[0]) << test.name;
  }
}

TEST_F(VoyagerVariantTest, MultiThreadHidesVisibleIo) {
  // Hiding is a modeled quantity: compare exact virtual seconds.
  DiscreteEventScope scope;
  std::vector<double> visible;
  for (Variant variant :
       {Variant::kGodivaSingleThread, Variant::kGodivaMultiThread}) {
    PlatformRuntime runtime(PlatformProfile::Turing(),
                            experiment_->options().time_scale,
                            experiment_->env());
    RunConfig config;
    config.dataset = &experiment_->dataset();
    config.test = VizTestSpec::Medium();
    // The tiny dataset has little data per snapshot; raise the modeled
    // processing cost so there is computation for prefetching to overlap
    // with (the paper's workloads have minutes of computation).
    config.test.compute_seconds_per_mib = 400.0;
    config.variant = variant;
    config.process.real_work_stride = 4;
    auto cell = RunVoyager(&runtime, config);
    ASSERT_TRUE(cell.ok()) << cell.status();
    visible.push_back(cell->visible_io_seconds);
    if (variant == Variant::kGodivaMultiThread) {
      EXPECT_GT(cell->gbo.units_prefetched, 0);
    }
  }
  EXPECT_LT(visible[1], visible[0] * 0.6);
}

TEST_F(VoyagerVariantTest, GodivaStatsReflectBatchFlow) {
  PlatformRuntime runtime(PlatformProfile::Engle(),
                          experiment_->options().time_scale,
                          experiment_->env());
  RunConfig config;
  config.dataset = &experiment_->dataset();
  config.test = VizTestSpec::Simple();
  config.variant = Variant::kGodivaMultiThread;
  config.process.real_work_stride = 4;
  auto cell = RunVoyager(&runtime, config);
  ASSERT_TRUE(cell.ok());
  const mesh::DatasetSpec& spec = experiment_->options().spec;
  EXPECT_EQ(cell->gbo.units_added, spec.num_snapshots);
  EXPECT_EQ(cell->gbo.units_deleted, spec.num_snapshots);
  EXPECT_EQ(cell->gbo.deadlocks_detected, 0);
  EXPECT_EQ(cell->gbo.records_committed,
            spec.num_snapshots * spec.num_blocks);
}

TEST(ExperimentTest, RunCellReportsTotalAndVisibleIo) {
  ExperimentOptions options = TinyOptions();
  options.process.real_work_stride = 4;
  auto experiment = Experiment::Create(options);
  ASSERT_TRUE(experiment.ok());
  auto cell = (*experiment)
                  ->RunCell(PlatformProfile::Engle(),
                            VizTestSpec::Simple(), Variant::kOriginal);
  ASSERT_TRUE(cell.ok()) << cell.status();
  EXPECT_GT(cell->total_seconds, 0);
  EXPECT_GT(cell->visible_io_seconds, 0);
}

TEST(ExperimentTest, PercentReduction) {
  EXPECT_DOUBLE_EQ(PercentReduction(200, 150), 25.0);
  EXPECT_DOUBLE_EQ(PercentReduction(0, 5), 0.0);
}

// FNV-1a-64 of `name`, written out here so the test pins the seed rather
// than reusing ServingReadFn's own hash.
uint64_t Fnv1a64(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The payload ServingReadFn defines for `name`: the first `size` bytes of
// the little-endian byte stream of Random(Fnv1a64(name)).
std::vector<uint8_t> ExpectedServingPayload(const std::string& name,
                                            int64_t size) {
  Random draws(Fnv1a64(name));
  std::vector<uint8_t> out;
  uint64_t word = 0;
  for (int64_t i = 0; i < size; ++i) {
    if (i % 8 == 0) word = draws.NextUint64();
    out.push_back(static_cast<uint8_t>(word >> (8 * (i % 8))));
  }
  return out;
}

// Loads `name` through ServingReadFn into `db` and returns the stored
// payload bytes.
Result<std::vector<uint8_t>> LoadServingPayload(Gbo* db,
                                                const std::string& name,
                                                int64_t size) {
  GODIVA_RETURN_IF_ERROR(EnsureServingSchema(db));
  GODIVA_RETURN_IF_ERROR(
      db->ReadUnit(name, ServingReadFn(size, Duration::zero())));
  const std::vector<std::string> key = {PadKey(name, 32)};
  GODIVA_ASSIGN_OR_RETURN(
      void* buffer,
      db->GetFieldBuffer("serving_chunk", "serving_payload", key));
  GODIVA_ASSIGN_OR_RETURN(
      int64_t stored,
      db->GetFieldBufferSize("serving_chunk", "serving_payload", key));
  const auto* bytes = static_cast<const uint8_t*>(buffer);
  return std::vector<uint8_t>(bytes, bytes + stored);
}

TEST(ServingReadFnTest, PayloadIsTheLittleEndianDrawStream) {
  for (int64_t size : {0, 1, 7, 8, 13, 65536}) {
    Gbo db(GboOptions::SingleThread());
    auto payload = LoadServingPayload(&db, "hot/u7", size);
    ASSERT_TRUE(payload.ok()) << payload.status();
    EXPECT_EQ(*payload, ExpectedServingPayload("hot/u7", size))
        << size << " bytes";
  }
}

TEST(ServingReadFnTest, PayloadDependsOnlyOnTheName) {
  Gbo first(GboOptions::SingleThread());
  Gbo second(GboOptions::SingleThread());
  auto a = LoadServingPayload(&first, "sweep/999/15", 4096);
  auto again = LoadServingPayload(&second, "sweep/999/15", 4096);
  auto other = LoadServingPayload(&second, "sweep/999/16", 4096);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_EQ(*a, *again);
  EXPECT_NE(*a, *other);
}

TEST(ServingReadFnTest, NameLongerThanTheKeyIsRejected) {
  // The two names share their first 32 bytes, so a truncated key would
  // collide: the second load used to fail with ALREADY_EXISTS, and a
  // lookup of u2 found u1's record.
  const std::string u1 = "tenant-with-a-long-namespace/cold/u1";
  const std::string u2 = "tenant-with-a-long-namespace/cold/u2";
  ASSERT_EQ(u1.substr(0, 32), u2.substr(0, 32));
  Gbo db(GboOptions::SingleThread());
  ASSERT_TRUE(EnsureServingSchema(&db).ok());
  for (const std::string& name : {u1, u2}) {
    Status read = db.ReadUnit(name, ServingReadFn(64, Duration::zero()));
    EXPECT_EQ(read.code(), StatusCode::kInvalidArgument) << read;
    EXPECT_NE(read.message().find(name), std::string::npos) << read;
    EXPECT_NE(read.message().find("32-byte"), std::string::npos) << read;
  }
  EXPECT_EQ(db.memory_usage(), 0);
  EXPECT_TRUE(db.CheckInvariants().ok());

  // A name of exactly the key width still loads.
  auto fits = LoadServingPayload(&db, u1.substr(0, 32), 64);
  ASSERT_TRUE(fits.ok()) << fits.status();
  EXPECT_EQ(*fits, ExpectedServingPayload(u1.substr(0, 32), 64));
}

}  // namespace
}  // namespace godiva::workloads
