// google-benchmark micro-benchmarks for the GODIVA core: record-operation
// and key-lookup costs (the in-memory database operations on the critical
// path of every read function and every data-processing query), the
// serving workloads' synthetic read function, the CRC-32 that verified
// reads pay per byte, one verified coalesced unit load of the query
// workload's shape, the push-down kernel the query workload runs on each
// loaded block, the feature extraction that each render pass runs over a
// full-size snapshot, and the generation of one such snapshot.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/crc32.h"
#include "common/types.h"
#include "core/gbo.h"
#include "core/key_util.h"
#include "core/options.h"
#include "core/record.h"
#include "gsdf/reader.h"
#include "mesh/dataset_spec.h"
#include "mesh/partition.h"
#include "mesh/snapshot_writer.h"
#include "sim/event_scheduler.h"
#include "sim/platform.h"
#include "sim/sim_env.h"
#include "viz/pushdown.h"
#include "workloads/block_schema.h"
#include "workloads/platform_runtime.h"
#include "workloads/processing.h"
#include "workloads/serving.h"
#include "workloads/snapshot_io.h"
#include "workloads/test_spec.h"

namespace godiva {
namespace {

std::unique_ptr<Gbo> MakeDb() {
  auto db = std::make_unique<Gbo>(GboOptions::SingleThread());
  Status s = db->DefineField("id", DataType::kInt64, 8);
  s = db->DefineField("payload", DataType::kFloat64, kUnknownSize);
  s = db->DefineRecord("r", 1);
  s = db->InsertField("r", "id", true);
  s = db->InsertField("r", "payload", false);
  s = db->CommitRecordType("r");
  (void)s;
  return db;
}

void InsertRecords(Gbo* db, int64_t count, int64_t payload_bytes) {
  for (int64_t i = 0; i < count; ++i) {
    Record* rec = *db->NewRecord("r");
    std::memcpy(*rec->FieldBuffer("id"), &i, 8);
    (void)*db->AllocFieldBuffer(rec, "payload", payload_bytes);
    (void)db->CommitRecord(rec);
  }
}

void BM_NewRecordCommit(benchmark::State& state) {
  int64_t payload = state.range(0);
  std::unique_ptr<Gbo> db = MakeDb();
  int64_t i = 0;
  for (auto _ : state) {
    Record* rec = *db->NewRecord("r");
    std::memcpy(*rec->FieldBuffer("id"), &i, 8);
    benchmark::DoNotOptimize(*db->AllocFieldBuffer(rec, "payload", payload));
    Status s = db->CommitRecord(rec);
    benchmark::DoNotOptimize(s);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NewRecordCommit)->Arg(64)->Arg(8192)->Arg(65536);

void BM_KeyLookup(benchmark::State& state) {
  int64_t records = state.range(0);
  std::unique_ptr<Gbo> db = MakeDb();
  InsertRecords(db.get(), records, 64);
  int64_t i = 0;
  for (auto _ : state) {
    int64_t key = i++ % records;
    auto buffer = db->GetFieldBuffer("r", "payload", {KeyBytes(key)});
    benchmark::DoNotOptimize(buffer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyLookup)->Arg(100)->Arg(10000)->Arg(100000);

void BM_KeyLookupMiss(benchmark::State& state) {
  std::unique_ptr<Gbo> db = MakeDb();
  InsertRecords(db.get(), 10000, 64);
  int64_t missing = 1 << 30;
  for (auto _ : state) {
    auto buffer = db->GetFieldBuffer("r", "payload", {KeyBytes(missing)});
    benchmark::DoNotOptimize(buffer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyLookupMiss);

void BM_FieldBufferByHandle(benchmark::State& state) {
  // Direct buffer access through a record handle (what the processing
  // loop does once per field per block).
  std::unique_ptr<Gbo> db = MakeDb();
  InsertRecords(db.get(), 1, 8192);
  Record* rec = *db->FindRecord("r", {KeyBytes(int64_t{0})});
  for (auto _ : state) {
    benchmark::DoNotOptimize(*rec->FieldBuffer("payload"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FieldBufferByHandle);

void BM_WaitUnitCacheHit(benchmark::State& state) {
  // WaitUnit on an already-resident unit: the interactive revisit path.
  Gbo db(GboOptions::SingleThread());
  Status s = db.DefineField("id", DataType::kInt64, 8);
  s = db.DefineRecord("r", 1);
  s = db.InsertField("r", "id", true);
  s = db.CommitRecordType("r");
  s = db.ReadUnit("u", [](Gbo* g, const std::string&) -> Status {
    auto rec = g->NewRecord("r");
    int64_t id = 1;
    std::memcpy(*(*rec)->FieldBuffer("id"), &id, 8);
    return g->CommitRecord(*rec);
  });
  (void)s;
  for (auto _ : state) {
    Status wait = db.WaitUnit("u");
    benchmark::DoNotOptimize(wait);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WaitUnitCacheHit);

void BM_UnitRoundTrip(benchmark::State& state) {
  // Full unit lifecycle: ReadUnit (foreground, n records) + DeleteUnit.
  int64_t records = state.range(0);
  std::unique_ptr<Gbo> db = MakeDb();
  for (auto _ : state) {
    Status s = db->ReadUnit(
        "u", [records](Gbo* g, const std::string&) -> Status {
          for (int64_t i = 0; i < records; ++i) {
            GODIVA_ASSIGN_OR_RETURN(Record * rec, g->NewRecord("r"));
            std::memcpy(*rec->FieldBuffer("id"), &i, 8);
            GODIVA_RETURN_IF_ERROR(
                g->AllocFieldBuffer(rec, "payload", 4096).status());
            GODIVA_RETURN_IF_ERROR(g->CommitRecord(rec));
          }
          return Status::Ok();
        });
    benchmark::DoNotOptimize(s);
    s = db->DeleteUnit("u");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_UnitRoundTrip)->Arg(16)->Arg(256);

void BM_ServingReadFn(benchmark::State& state) {
  // One unit load through the serving workloads' read function: ReadUnit
  // (key, state.range(0)-byte payload fill, commit), FinishUnit and
  // DeleteUnit, with no read cost and no scope.
  Gbo db(GboOptions::SingleThread());
  Status s = workloads::EnsureServingSchema(&db);
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  const Gbo::ReadFn read_fn =
      workloads::ServingReadFn(state.range(0), Duration::zero());
  for (auto _ : state) {
    s = db.ReadUnit("cold/u1", read_fn);
    if (s.ok()) s = db.FinishUnit("cold/u1");
    if (s.ok()) s = db.DeleteUnit("cold/u1");
    benchmark::DoNotOptimize(s);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServingReadFn)->Arg(64 << 10);

// Checksums a state.range(0)-byte buffer with `crc32` per iteration.
void RunCrc32(benchmark::State& state,
              uint32_t (*crc32)(const void*, int64_t, uint32_t)) {
  std::vector<uint8_t> buffer(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crc32(buffer.data(), static_cast<int64_t>(buffer.size()), 0));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// The checksum every verified gsdf read pays over each dataset payload.
void BM_Crc32(benchmark::State& state) { RunCrc32(state, &Crc32); }
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

// The same checksum with the 128-bit carry-less-multiply fold as its
// widest: what Crc32 runs on a CPU with PCLMULQDQ but no VPCLMULQDQ.
void BM_Crc32Clmul128(benchmark::State& state) {
  RunCrc32(state, &detail::Clmul128Crc32);
}
BENCHMARK(BM_Crc32Clmul128)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

// The same checksum by the portable slicing-by-16 loop alone: what Crc32
// runs on a CPU without PCLMULQDQ.
void BM_Crc32Portable(benchmark::State& state) {
  RunCrc32(state, &detail::PortableCrc32);
}
BENCHMARK(BM_Crc32Portable)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

// The push-down kernel window_query runs on every block it loads, called
// as the query's push-down calls it: the displacement magnitude of
// state.range(0) nodes (1,255 is one block of its mesh, an odd tail after
// every packed pair).
void BM_PushdownMagnitude(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> components(3, std::vector<double>(n));
  for (size_t c = 0; c < components.size(); ++c) {
    for (size_t i = 0; i < n; ++i) {
      components[c][i] =
          1e-3 * static_cast<double>((i * 37 + c * 11) % 1000) - 0.5;
    }
  }
  const std::vector<std::span<const double>> inputs(components.begin(),
                                                    components.end());
  const viz::DerivedKernel kernel = viz::MagnitudeKernel("disp_mag", "disp");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.fn(inputs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PushdownMagnitude)->Arg(1255);

// One snapshot of window_query's dataset (the TitanIV mesh scaled by 0.5,
// checksummed), written into its env once per process.
struct QuerySnapshot {
  SimEnv env{SimEnv::Options{}};
  mesh::DatasetSpec spec = mesh::DatasetSpec::TitanIVScaled(0.5);
  Status status;
  mesh::SnapshotDataset dataset;
};

QuerySnapshot* MakeQuerySnapshot() {
  auto* snapshot = new QuerySnapshot;
  snapshot->spec.num_snapshots = 1;
  snapshot->spec.checksums = true;
  Result<mesh::SnapshotDataset> dataset =
      mesh::WriteSnapshotDataset(&snapshot->env, snapshot->spec, "data");
  snapshot->status = dataset.status();
  if (dataset.ok()) snapshot->dataset = *std::move(dataset);
  return snapshot;
}

void BM_LoadFileBatch(benchmark::State& state) {
  // One unit load into a fresh Gbo on window_query's mesh: file 0 of the
  // snapshot, each block's x/y/z/conn (BlockDatasets) plus sxx, syy and
  // the displacement components, through one verified, coalesced ReadBatch
  // that merges only adjacent payloads (LoadFileBatch), on the virtual
  // clock. It keeps the geometry a snapshot query no longer loads, so its
  // figures stay comparable across versions.
  static QuerySnapshot* const snapshot = MakeQuerySnapshot();
  if (!snapshot->status.ok()) {
    state.SkipWithError(snapshot->status.ToString().c_str());
    return;
  }
  DiscreteEventScope scope;
  workloads::PlatformRuntime runtime(PlatformProfile::Engle(), 1.0,
                                     &snapshot->env);
  const std::string path = snapshot->dataset.SnapshotFiles(0)[0];
  const std::vector<int32_t> blocks = mesh::BlocksInFile(snapshot->spec, 0);
  const std::vector<std::string> datasets =
      workloads::BlockDatasets({"sxx", "syy", "dispx", "dispy", "dispz"});
  gsdf::BatchOptions options;
  options.max_gap = 0;
  options.verify = true;
  const Gbo::ReadFn read_fn = [&](Gbo* db, const std::string&) -> Status {
    GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<gsdf::Reader> reader,
                            gsdf::Reader::Open(runtime.io_env(), path));
    return workloads::LoadFileBatch(&runtime, *reader, blocks, 0, datasets,
                                    options, /*counters=*/nullptr, db);
  };
  int64_t bytes = 0;
  for (auto _ : state) {
    Gbo db(GboOptions::SingleThread());
    Status s = workloads::DefineBlockSchema(&db);
    if (s.ok()) s = db.ReadUnit("snap_0000/f00", read_fn);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    bytes += db.memory_usage();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_LoadFileBatch)->Unit(benchmark::kMicrosecond);

// One full-size TitanIV snapshot with every quantity of the medium test,
// written and read back once per process. `views` span the arrays that
// `blocks` owns.
struct TitanIvSnapshot {
  Status status;
  std::vector<workloads::PlainBlock> blocks;
  std::vector<workloads::BlockView> views;
};

TitanIvSnapshot LoadTitanIvSnapshot() {
  TitanIvSnapshot snapshot;
  SimEnv env{SimEnv::Options{}};
  mesh::DatasetSpec spec = mesh::DatasetSpec::TitanIV();
  spec.num_snapshots = 1;
  Result<mesh::SnapshotDataset> dataset =
      mesh::WriteSnapshotDataset(&env, spec, "data");
  if (!dataset.ok()) {
    snapshot.status = dataset.status();
    return snapshot;
  }
  workloads::PlatformRuntime runtime(PlatformProfile::Engle(), 1e-6, &env);
  Result<std::vector<workloads::PlainBlock>> blocks =
      workloads::ReadPassDirect(
          &runtime, *dataset, 0,
          workloads::VizTestSpec::Medium().AllQuantities(),
          /*include_conn=*/true);
  if (!blocks.ok()) {
    snapshot.status = blocks.status();
    return snapshot;
  }
  snapshot.blocks = *std::move(blocks);
  for (const workloads::PlainBlock& block : snapshot.blocks) {
    workloads::BlockView view;
    view.block_id = block.block_id;
    view.geometry = viz::BlockGeometry{block.x, block.y, block.z, block.conn};
    for (const auto& [name, values] : block.fields) {
      view.fields[name] = values;
    }
    snapshot.views.push_back(std::move(view));
  }
  return snapshot;
}

void BM_ProcessPass(benchmark::State& state) {
  // One medium-test pass (0 stress, 1 velocity, 2 density) with
  // extraction on every block of a full-size snapshot: what a pass costs
  // depends on how many triangles it emits, so a scaled mesh would hide it.
  static const TitanIvSnapshot snapshot = LoadTitanIvSnapshot();
  if (!snapshot.status.ok()) {
    state.SkipWithError(snapshot.status.ToString().c_str());
    return;
  }
  const workloads::RenderPass pass =
      workloads::VizTestSpec::Medium().passes.at(state.range(0));
  workloads::ProcessOptions options;
  options.real_work_stride = 1;
  int64_t tets = 0;
  int64_t triangles = 0;
  for (auto _ : state) {
    Result<workloads::PassResult> result =
        workloads::ProcessPass(pass, snapshot.views, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*result);
    tets += result->tets_visited;
    triangles = result->triangles;
  }
  state.SetItemsProcessed(tets);
  state.counters["triangles"] = static_cast<double>(triangles);
}
BENCHMARK(BM_ProcessPass)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void BM_WriteSnapshot(benchmark::State& state) {
  // Dataset generation for one full-size TitanIV snapshot: field
  // synthesis, the gsdf writer with per-dataset checksums (as perfbench's
  // batch_movie set-up writes them) and SimEnv's appends, into a fresh
  // env per iteration. The mesh is built and partitioned once, outside.
  const mesh::DatasetSpec spec = mesh::DatasetSpec::TitanIV();
  const std::vector<mesh::MeshBlock> blocks = mesh::MakeBlocks(spec);
  mesh::SnapshotWriteOptions options;
  options.checksums = true;
  int64_t bytes = 0;
  for (auto _ : state) {
    SimEnv env{SimEnv::Options{}};
    Result<int64_t> written = mesh::WriteOneSnapshot(
        &env, spec, "data", blocks, 0, spec.TimeOf(0), options);
    if (!written.ok()) {
      state.SkipWithError(written.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*written);
    bytes += *written;
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_WriteSnapshot)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace godiva

BENCHMARK_MAIN();
