// Declarative batch-query API vs unit-at-a-time loading (DESIGN.md §15).
// The workload is a sliding snapshot window over the paper's 120-block
// mesh: each step needs two stress fields for every block of snapshots
// [t, t+W), plus a displacement-magnitude derived field. The first two
// paths read the same datasets — the mesh and the five quantities — from
// the same dataset through the same pool width:
//
//   unit-at-a-time — one unit per snapshot (MakeSnapshotReadFn, which
//     loads the mesh for Voyager's views), one device read per dataset,
//     window reuse via the unit cache.
//   query         — one GboQuery per step (BuildSnapshotQuery) naming the
//     mesh (x, y, z, conn) beside the two fields: plan-time dedup against
//     the resident tail of the previous window, per-file extents coalesced
//     into ReadBatch runs, and the derived field pushed down onto each
//     unit as it lands.
//   named fields  — the query path naming only the two fields, so a unit
//     loads them and the kernel's inputs and no mesh. It runs after the
//     other two, leaving their disk-head state as it was.
//
// Headline metrics: issued device reads and bytes per path (exact DiskStats
// counts), the read-op saving ratio (acceptance: >= 25% fewer, i.e. ratio
// >= 1.33), plan dedup hits and bytes saved (acceptance: > 0), push-down
// computations, and per-step settle latency p50/p99 (the demand-latency
// guard: the query path must not be slower to make a window ready).
//
// Every phase replays on the discrete-event virtual clock, each from its
// own virtual t=0, so latencies are exact. A last phase sweeps 100/500
// sessions submitting planned batch sets through the serving layer.
//
// Command line (bench_util.h): --quick, --json=PATH. The full size slides
// a 4-snapshot window over 12 snapshots of the paper's mesh, --quick over
// 8 snapshots of a 0.12-scale mesh.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread.h"
#include "core/gbo.h"
#include "core/options.h"
#include "core/query.h"
#include "core/server.h"
#include "core/session.h"
#include "mesh/dataset_spec.h"
#include "sim/platform.h"
#include "sim/sim_env.h"
#include "viz/pushdown.h"
#include "workloads/block_schema.h"
#include "workloads/experiment.h"
#include "workloads/platform_runtime.h"
#include "workloads/serving.h"
#include "workloads/snapshot_io.h"
#include "workloads/snapshot_query.h"

namespace godiva::bench {
namespace {

using workloads::Experiment;
using workloads::ExperimentOptions;
using workloads::PlatformRuntime;

constexpr BenchSize kFullSize{1.0, 12};
constexpr BenchSize kQuickSize{0.12, 8};
constexpr int kWindow = 4;  // snapshots each step needs

// The two requested fields; the disp_mag kernel folds dispx/y/z into the
// same plan, so every path reads the five-quantity union. The unit path's
// read function also loads the mesh (BlockDatasets), so the query path
// names it too.
const char* const kFields[] = {"sxx", "syy"};
const char* const kUnionQuantities[] = {"sxx", "syy", "dispx", "dispy",
                                        "dispz"};

GboOptions DbOptions() {
  GboOptions options;
  options.io_threads = 2;
  options.memory_limit_bytes = 512 * 1024 * 1024;  // window stays resident
  return options;
}

struct PathResult {
  int64_t reads = 0;
  int64_t bytes = 0;
  LatencyRecorder plan_ms;   // query path: BuildSnapshotQuery + Submit
  LatencyRecorder step_ms;   // time until the whole window is ready
  // Query path, summed over every ticket.
  int64_t units_requested = 0;  // planner expansion total
  int64_t dedup_hits = 0;       // resident + in-flight
  int64_t batches_issued = 0;   // per-file batch loads dispatched
  int64_t bytes_saved = 0;      // payload bytes dedup avoided
  int64_t pushdowns = 0;        // push-down results taken
  int64_t derived_values = 0;   // values in those results
};

// Unit-at-a-time baseline: one unit per snapshot, per-dataset reads, the
// trailing snapshot dropped as the window slides.
bool RunUnitPath(PlatformRuntime* runtime, const mesh::SnapshotDataset& ds,
                 PathResult* out) {
  Gbo db(DbOptions());
  if (!workloads::DefineBlockSchema(&db).ok()) return false;
  std::vector<std::string> quantities(std::begin(kUnionQuantities),
                                      std::end(kUnionQuantities));
  Gbo::ReadFn read_fn =
      workloads::MakeSnapshotReadFn(runtime, &ds, quantities);

  runtime->env()->ResetStats();
  int next_to_add = 0;
  for (int t = 0; t + kWindow <= ds.spec.num_snapshots; ++t) {
    Stopwatch step;
    for (; next_to_add < t + kWindow; ++next_to_add) {
      Status added = db.AddUnit(workloads::SnapshotUnitName(next_to_add),
                                read_fn, ds.SnapshotFiles(next_to_add));
      if (!added.ok()) {
        std::fprintf(stderr, "AddUnit: %s\n", added.ToString().c_str());
        return false;
      }
    }
    for (int s = t; s < t + kWindow; ++s) {
      Status wait = db.WaitUnit(workloads::SnapshotUnitName(s));
      if (!wait.ok()) {
        std::fprintf(stderr, "WaitUnit: %s\n", wait.ToString().c_str());
        return false;
      }
    }
    out->step_ms.Record(step.ElapsedSeconds() * 1e3);
    // Snapshot t leaves the window (paper §3.2: batch mode knows it will
    // not be revisited).
    if (!db.DeleteUnit(workloads::SnapshotUnitName(t)).ok()) return false;
  }
  DiskStats disk = runtime->env()->stats();
  out->reads = disk.reads;
  out->bytes = disk.bytes_read;
  return true;
}

// Query path: one declarative window query per step naming `fields`;
// plan-time dedup against the previous window's resident tail, batched
// per-file I/O, and the derived field pushed down as each unit lands.
bool RunQueryPath(PlatformRuntime* runtime, const mesh::SnapshotDataset& ds,
                  const std::vector<std::string>& fields, PathResult* out) {
  Gbo db(DbOptions());
  if (!workloads::DefineBlockSchema(&db).ok()) return false;
  QueryPlanner planner(&db);
  // Overlapping windows re-plan the same files; the extents cache keeps
  // the repeat directory reads off the device.
  workloads::SnapshotExtentsCache extents_cache;

  runtime->env()->ResetStats();
  for (int t = 0; t + kWindow <= ds.spec.num_snapshots; ++t) {
    workloads::SnapshotQueryOptions options;
    options.extents_cache = &extents_cache;
    options.fields = fields;
    options.kernels.push_back(viz::MagnitudeKernel("disp_mag", "disp"));
    // Merge only truly adjacent extents: the requested fields already sit
    // next to each other on disk, so a zero gap allowance keeps the byte
    // volume identical to the per-dataset baseline while the seek count
    // collapses (the demand-latency guard below must hold in the modeled
    // disk, where gap bytes are not free).
    options.limits.max_gap = 0;
    options.snapshot_begin = t;
    options.snapshot_end = t + kWindow;
    Stopwatch plan_time;
    auto query = workloads::BuildSnapshotQuery(runtime, &ds, options);
    if (!query.ok()) {
      std::fprintf(stderr, "BuildSnapshotQuery: %s\n",
                   query.status().ToString().c_str());
      return false;
    }
    auto ticket = planner.Submit(*std::move(query));
    if (!ticket.ok()) {
      std::fprintf(stderr, "Submit: %s\n",
                   ticket.status().ToString().c_str());
      return false;
    }
    out->plan_ms.Record(plan_time.ElapsedSeconds() * 1e3);
    const QueryPlanStats plan = (*ticket)->plan();
    out->units_requested += plan.units_requested;
    out->dedup_hits += plan.dedup_resident + plan.dedup_in_flight;
    out->batches_issued += plan.batches_issued;
    out->bytes_saved += plan.bytes_saved;
    Stopwatch step;
    Status wait = (*ticket)->WaitAll();
    if (!wait.ok()) {
      std::fprintf(stderr, "WaitAll: %s\n", wait.ToString().c_str());
      return false;
    }
    out->step_ms.Record(step.ElapsedSeconds() * 1e3);
    for (const DerivedResult& derived : (*ticket)->TakeDerived()) {
      ++out->pushdowns;
      out->derived_values += static_cast<int64_t>(derived.values.size());
    }
    if (!(*ticket)->FinishAll().ok()) return false;
    // Drop the snapshot leaving the window; the rest stays resident for
    // the next step's plan to dedup against.
    for (int f = 0; f < ds.spec.files_per_snapshot; ++f) {
      Status dropped =
          db.DeleteUnit(workloads::SnapshotFileUnitName(t, f));
      if (!dropped.ok()) {
        std::fprintf(stderr, "DeleteUnit: %s\n",
                     dropped.ToString().c_str());
        return false;
      }
    }
  }
  DiskStats disk = runtime->env()->stats();
  out->reads = disk.reads;
  out->bytes = disk.bytes_read;
  return true;
}

int Run(int argc, char** argv) {
  const CommandLine line =
      CommandLine::Parse(argc, argv, /*writes_json=*/true);
  const BenchSize size = line.quick ? kQuickSize : kFullSize;
  std::printf("bench_query: 2 fields + disp_mag pushdown, window %d over "
              "%d snapshots\n", kWindow, size.snapshots);
  BenchJson json("bench_query_de");

  // Generate the dataset once (instant writes into the owned SimEnv);
  // both paths replay reads against the same files and disk model.
  ExperimentOptions experiment_options;
  experiment_options.spec = size.Spec();
  auto experiment = Experiment::Create(experiment_options);
  if (!experiment.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 experiment.status().ToString().c_str());
    return 1;
  }
  PrintDatasetBanner(**experiment);
  const mesh::SnapshotDataset& dataset = (*experiment)->dataset();
  const PlatformProfile profile = PlatformProfile::Engle();

  PathResult unit;
  {
    DiscreteEventScope scope;
    PlatformRuntime runtime(profile, experiment_options.time_scale,
                            (*experiment)->env());
    if (!RunUnitPath(&runtime, dataset, &unit)) return 1;
  }

  const std::vector<std::string> fields(std::begin(kFields),
                                        std::end(kFields));
  PathResult query;
  {
    DiscreteEventScope scope;
    PlatformRuntime runtime(profile, experiment_options.time_scale,
                            (*experiment)->env());
    if (!RunQueryPath(&runtime, dataset, workloads::BlockDatasets(fields),
                      &query)) {
      return 1;
    }
  }

  PathResult named;
  {
    DiscreteEventScope scope;
    PlatformRuntime runtime(profile, experiment_options.time_scale,
                            (*experiment)->env());
    if (!RunQueryPath(&runtime, dataset, fields, &named)) return 1;
  }

  std::printf("  %-14s %10s %12s %10s %10s\n", "path", "reads", "bytes",
              "p50(ms)", "p99(ms)");
  auto row = [](const char* name, const PathResult& r) {
    std::printf("  %-14s %10lld %12s %10.3f %10.3f\n", name,
                static_cast<long long>(r.reads),
                FormatBytes(r.bytes).c_str(), r.step_ms.Percentile(0.50),
                r.step_ms.Percentile(0.99));
  };
  row("unit-at-a-time", unit);
  row("query", query);
  row("named fields", named);

  const double ratio =
      query.reads > 0
          ? static_cast<double>(unit.reads) / static_cast<double>(query.reads)
          : 0;
  const double reduction_pct =
      unit.reads > 0 ? 100.0 * (1.0 - static_cast<double>(query.reads) /
                                          static_cast<double>(unit.reads))
                     : 0;
  // What the queries asked for vs what reached the device: the dedup'd
  // payload never left the cache.
  const int64_t bytes_requested = query.bytes + query.bytes_saved;
  const double dedup_ratio =
      query.units_requested > 0
          ? static_cast<double>(query.dedup_hits) /
                static_cast<double>(query.units_requested)
          : 0;
  std::printf("  read ops: %.1f%% fewer via the query plan (ratio %.2fx; "
              "acceptance: >= 25%%) -> %s\n",
              reduction_pct, ratio, reduction_pct >= 25.0 ? "PASS" : "FAIL");
  std::printf("  plan: p50 %.3fms p99 %.3fms, %lld batches, dedup %lld/%lld "
              "units (ratio %.3f), %s requested -> %s issued (%s saved; "
              "acceptance: > 0) -> %s\n",
              query.plan_ms.Percentile(0.50), query.plan_ms.Percentile(0.99),
              static_cast<long long>(query.batches_issued),
              static_cast<long long>(query.dedup_hits),
              static_cast<long long>(query.units_requested), dedup_ratio,
              FormatBytes(bytes_requested).c_str(),
              FormatBytes(query.bytes).c_str(),
              FormatBytes(query.bytes_saved).c_str(),
              query.bytes_saved > 0 ? "PASS" : "FAIL");
  std::printf("  pushdown: %lld computations (%lld derived values)\n",
              static_cast<long long>(query.pushdowns),
              static_cast<long long>(query.derived_values));
  std::printf("  demand p99 (window settle): query %.3fms vs unit "
              "%.3fms -> %s\n",
              query.step_ms.Percentile(0.99), unit.step_ms.Percentile(0.99),
              query.step_ms.Percentile(0.99) <=
                      unit.step_ms.Percentile(0.99) * 1.05
                  ? "PASS"
                  : "FAIL");

  // The batch sweep: every session submits one 8-unit planned batch set
  // through the serving layer's batch lane and awaits settle — DRR grant
  // scheduling at hundreds of sessions, measured on the virtual clock.
  std::printf("batch sweep (discrete event, 8-unit batch sets):\n");
  std::printf("  %8s %12s %12s %12s\n", "sessions", "settle p50",
              "settle p99", "granted");
  for (int sessions : {100, 500}) {
    DiscreteEventScope scope;
    GboOptions sweep_options;
    sweep_options.io_threads = 4;
    sweep_options.metadata_shards = 4;
    sweep_options.memory_limit_bytes = 256 * 1024 * 1024;
    Gbo db(sweep_options);
    if (!workloads::EnsureServingSchema(&db).ok()) return 1;
    ServerOptions server_options;
    server_options.max_inflight_demand = 32;
    GboServer server(&db, server_options);
    constexpr int kBatchUnits = 8;
    LatencyRecorder settle;
    Mutex settle_mu;
    std::atomic<int64_t> granted{0};
    std::atomic<bool> failed{false};
    {
      std::vector<Thread> clients;
      clients.reserve(static_cast<size_t>(sessions));
      for (int i = 0; i < sessions; ++i) {
        clients.emplace_back([&, i] {
          SessionConfig config;
          config.name = StrCat("batch-", i);
          config.max_queued_demand = kBatchUnits;
          auto session = server.OpenSession(config);
          if (!session.ok()) {
            failed.store(true);
            return;
          }
          std::vector<SessionBatchRequest> set;
          for (int u = 0; u < kBatchUnits; ++u) {
            SessionBatchRequest request;
            request.unit_name = StrCat("sweep/", i, "/", u);
            request.read_fn = workloads::ServingReadFn(
                16 * 1024, std::chrono::microseconds(300));
            set.push_back(std::move(request));
          }
          Stopwatch wait;
          if (!(*session)->SubmitBatchSet(std::move(set)).ok()) {
            failed.store(true);
            return;
          }
          std::vector<double> samples;
          for (int u = 0; u < kBatchUnits; ++u) {
            Status settled = (*session)->AwaitBatchSettle(
                StrCat("sweep/", i, "/", u), nullptr);
            if (!settled.ok()) {
              failed.store(true);
              return;
            }
            samples.push_back(wait.ElapsedSeconds() * 1e3);
          }
          granted.fetch_add((*session)->stats().batch_granted);
          MutexLock lock(&settle_mu);
          settle.RecordAll(samples);
        });
      }
      for (Thread& client : clients) client.join();
    }
    if (failed.load()) {
      std::fprintf(stderr, "%d-session batch sweep failed\n", sessions);
      return 1;
    }
    double sweep_p50 = settle.Percentile(0.50);
    double sweep_p99 = settle.Percentile(0.99);
    std::printf("  %8d %12.3f %12.3f %12lld\n", sessions, sweep_p50,
                sweep_p99, static_cast<long long>(granted.load()));
    std::string prefix = StrFormat("de_batch_sessions_%d_", sessions);
    json.Add(prefix + "settle_p50_ms", sweep_p50);
    json.Add(prefix + "settle_p99_ms", sweep_p99);
    json.Add(prefix + "granted", static_cast<double>(granted.load()));
  }

  json.Add("unit_reads", static_cast<double>(unit.reads));
  json.Add("unit_mib", static_cast<double>(unit.bytes) / (1024.0 * 1024.0));
  json.Add("query_reads", static_cast<double>(query.reads));
  json.Add("query_mib",
           static_cast<double>(query.bytes) / (1024.0 * 1024.0));
  json.Add("bytes_requested_mib",
           static_cast<double>(bytes_requested) / (1024.0 * 1024.0));
  json.Add("read_ops_saved_ratio", ratio);
  json.Add("dedup_hit_ratio", dedup_ratio);
  json.Add("plan_p50_ms", query.plan_ms.Percentile(0.50));
  json.Add("plan_p99_ms", query.plan_ms.Percentile(0.99));
  json.Add("plan_dedup_hits", static_cast<double>(query.dedup_hits));
  json.Add("plan_batches_issued", static_cast<double>(query.batches_issued));
  json.Add("plan_bytes_saved_mib",
           static_cast<double>(query.bytes_saved) / (1024.0 * 1024.0));
  json.Add("pushdown_computations", static_cast<double>(query.pushdowns));
  json.Add("unit_step_p99_ms", unit.step_ms.Percentile(0.99));
  json.Add("query_step_p99_ms", query.step_ms.Percentile(0.99));
  json.Add("named_reads", static_cast<double>(named.reads));
  json.Add("named_mib", static_cast<double>(named.bytes) / (1024.0 * 1024.0));
  json.Add("named_step_p99_ms", named.step_ms.Percentile(0.99));
  if (!json.WriteTo(line.json_path)) return 1;
  return (reduction_pct >= 25.0 && query.bytes_saved > 0) ? 0 : 1;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
