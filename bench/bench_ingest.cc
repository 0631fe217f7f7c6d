// Live-ingest benchmark: an IngestProducer streams snapshots into the Gbo
// through the crash-consistent writer while a consumer follows the frontier
// through a FrontierWatch, acking as it goes (DESIGN.md §11). Headline
// metrics, all tracked by tools/bench_diff:
//   frontier_lag_p50_s/p99_s  publish-to-ready latency at the consumer
//   stall_s                   producer time blocked on the lag window
//   demand_p99_noingest_ms    demand unit load, quiet database
//   demand_p99_ingest_ms      demand unit load while ingest is running
//   mem_peak_frac             peak record memory / memory limit
//   io_overlap_ratio          producer/consumer concurrency (1 = perfectly
//                             overlapped; "ratio" = higher is better)
//
// Command line (bench_util.h): --quick, --json=PATH. The full size ingests
// 16 snapshots of a 0.12-scale mesh and then also prints the frontier-lag
// sweep over producer windows 1, 4 and 8; --quick ingests 8 snapshots of a
// 0.06-scale mesh. The metrics and JSON always come from the window-4 run.
// Modeled time runs on scaled sleep at 0.002 real seconds per modeled
// second.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/status.h"
#include "core/gbo.h"
#include "core/options.h"
#include "mesh/dataset_spec.h"
#include "mesh/snapshot_writer.h"
#include "sim/platform.h"
#include "sim/sim_env.h"
#include "workloads/block_schema.h"
#include "workloads/ingest.h"
#include "workloads/platform_runtime.h"
#include "workloads/snapshot_io.h"

namespace godiva::bench {
namespace {

using workloads::FrontierWatch;
using workloads::IngestOptions;
using workloads::IngestProducer;
using workloads::SnapshotUnitName;

const std::vector<std::string> kQuantities = {"stress", "velx"};

constexpr BenchSize kFullSize{0.12, 16};
constexpr BenchSize kQuickSize{0.06, 8};
constexpr int kWindow = 4;            // the producer's max_frontier_lag
constexpr double kTimeScale = 0.002;  // real seconds per modeled second

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

// Percentiles over a sample vector, via the shared bench recorder.
double Percentile(const std::vector<double>& samples, double p) {
  LatencyRecorder recorder;
  recorder.RecordAll(samples);
  return recorder.Percentile(p);
}

GboOptions DbOptions() {
  GboOptions options;  // background_io = true
  options.io_threads = 2;
  return options;
}

// One timed demand cycle: add the unit, wait for its load, unpin, drop it.
// Returns milliseconds from request to data resident.
double DemandLoadMs(Gbo* db, const std::string& name,
                    const Gbo::ReadFn& read_fn,
                    const std::vector<std::string>& files) {
  Stopwatch stopwatch;
  Check(db->AddUnit(name, read_fn, files), "demand AddUnit");
  Check(db->WaitUnit(name), "demand WaitUnit");
  double ms = stopwatch.ElapsedSeconds() * 1e3;
  Check(db->FinishUnit(name), "demand FinishUnit");
  Check(db->DeleteUnit(name), "demand DeleteUnit");
  return ms;
}

// Baseline phase: the dataset already exists on disk and nothing else is
// running — pure demand load latency per snapshot.
std::vector<double> QuietDemandPhase(const mesh::DatasetSpec& spec) {
  SimEnv env{SimEnv::Options{}};
  auto dataset = mesh::WriteSnapshotDataset(&env, spec, "cold");
  Check(dataset.status(), "write cold dataset");
  workloads::PlatformRuntime runtime(PlatformProfile::Engle(), kTimeScale,
                                     &env);

  Gbo db(DbOptions());
  Check(workloads::DefineBlockSchema(&db), "define schema");
  Gbo::ReadFn read_fn = workloads::MakeSnapshotReadFn(
      &runtime, &*dataset, kQuantities, workloads::SnapshotReadOptions{});
  std::vector<double> demand_ms;
  for (int s = 0; s < spec.num_snapshots; ++s) {
    demand_ms.push_back(DemandLoadMs(&db, SnapshotUnitName(s), read_fn,
                                     dataset->SnapshotFiles(s)));
  }
  return demand_ms;
}

struct IngestResult {
  std::vector<double> lag_s;        // publish-to-ready per snapshot
  std::vector<double> demand_ms;    // demand reloads under live ingest
  double stall_s = 0;
  double producer_wall_s = 0;
  double consumer_wall_s = 0;
  double frontier_wait_s = 0;       // consumer time blocked on the watch
  double mem_peak_frac = 0;
};

// Live phase: producer streams snapshots, at most `window` ahead of the
// consumer's acks, while the consumer follows the frontier, touches every
// arrival, acks it, and issues a demand reload of the previous snapshot to
// measure read service under ingest load.
IngestResult LiveIngestPhase(const mesh::DatasetSpec& spec, int window) {
  SimEnv env{SimEnv::Options{}};
  workloads::PlatformRuntime runtime(PlatformProfile::Engle(), kTimeScale,
                                     &env);
  mesh::SnapshotDataset dataset =
      mesh::DescribeSnapshotDataset(spec, "live");

  GboOptions db_options = DbOptions();
  Gbo db(db_options);
  Check(workloads::DefineBlockSchema(&db), "define schema");
  Gbo::ReadFn read_fn = workloads::MakeSnapshotReadFn(
      &runtime, &dataset, kQuantities, workloads::SnapshotReadOptions{});

  IngestOptions options;
  options.max_frontier_lag = window;
  options.quantities = kQuantities;
  IngestProducer producer(&runtime, &db, &dataset, options);
  FrontierWatch watch(&db);

  IngestResult result;
  Stopwatch clock;  // shared time base for every thread in this phase
  std::atomic<bool> producer_done{false};

  std::thread producer_thread([&] {
    Stopwatch wall;
    Check(producer.Run(), "producer run");
    result.producer_wall_s = wall.ElapsedSeconds();
    producer_done.store(true);
  });

  // Publish timestamps, sampled: the frontier is polled a few times per
  // millisecond and each newly published snapshot is stamped on first
  // sight. The sampler writes a slot while the consumer may read it, so
  // each slot is atomic; -1 means not seen yet.
  std::vector<std::atomic<double>> publish_time(
      static_cast<size_t>(spec.num_snapshots));
  for (std::atomic<double>& slot : publish_time) slot.store(-1.0);
  std::thread sampler([&] {
    int seen = -1;
    while (!producer_done.load()) {
      int frontier = producer.frontier();
      for (int s = seen + 1; s <= frontier; ++s) {
        publish_time[static_cast<size_t>(s)].store(clock.ElapsedSeconds());
      }
      seen = std::max(seen, frontier);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  Stopwatch consumer_wall;
  for (int s = 0; s < spec.num_snapshots; ++s) {
    Stopwatch wait;
    Check(watch.WaitForSnapshot(s, std::chrono::seconds(300)),
          "frontier wait");
    result.frontier_wait_s += wait.ElapsedSeconds();
    double ready_at = clock.ElapsedSeconds();
    const double published = publish_time[static_cast<size_t>(s)].load();
    if (published >= 0) result.lag_s.push_back(ready_at - published);
    Check(db.WaitUnit(SnapshotUnitName(s)), "consumer WaitUnit");
    auto record =
        db.FindRecord(workloads::kBlockRecordType, workloads::BlockKey(0, s));
    Check(record.status(), "consumer FindRecord");
    Check(db.FinishUnit(SnapshotUnitName(s)), "consumer FinishUnit");
    producer.AckFinished(s);

    // Demand reload of the previous (already consumed and acked) snapshot
    // while ingest is still running.
    if (s > 0 && s < spec.num_snapshots - 1) {
      std::string prev = SnapshotUnitName(s - 1);
      Check(db.DeleteUnit(prev), "drop previous");
      result.demand_ms.push_back(
          DemandLoadMs(&db, prev, read_fn, dataset.SnapshotFiles(s - 1)));
    }
  }
  result.consumer_wall_s = consumer_wall.ElapsedSeconds();
  producer_thread.join();
  sampler.join();

  Check(db.CheckInvariants(), "audit");
  result.stall_s = producer.stats().stall_seconds;
  GboStats stats = db.stats();
  result.mem_peak_frac =
      static_cast<double>(stats.peak_memory_bytes) /
      static_cast<double>(db_options.memory_limit_bytes);
  return result;
}

int Run(int argc, char** argv) {
  const CommandLine line =
      CommandLine::Parse(argc, argv, /*writes_json=*/true);
  const BenchSize size = line.quick ? kQuickSize : kFullSize;
  const mesh::DatasetSpec spec = size.Spec();
  std::printf("bench_ingest: factor %.2f, %d snapshots, window %d, "
              "time scale %.4f\n",
              size.factor, size.snapshots, kWindow, kTimeScale);

  std::vector<double> quiet_ms = QuietDemandPhase(spec);
  IngestResult live = LiveIngestPhase(spec, kWindow);

  double lag_p50 = Percentile(live.lag_s, 0.50);
  double lag_p99 = Percentile(live.lag_s, 0.99);
  double quiet_p99 = Percentile(quiet_ms, 0.99);
  double ingest_p99 = Percentile(live.demand_ms, 0.99);

  // Producer/consumer concurrency: the fraction of the shorter side's
  // active (non-blocked) time that overlapped the other side's.
  double wall = std::max(live.producer_wall_s, live.consumer_wall_s);
  double producer_active = live.producer_wall_s - live.stall_s;
  double consumer_active = live.consumer_wall_s - live.frontier_wait_s;
  double shorter = std::min(producer_active, consumer_active);
  double overlap = 0;
  if (shorter > 0) {
    overlap = (producer_active + consumer_active - wall) / shorter;
    overlap = std::max(0.0, std::min(1.0, overlap));
  }

  std::printf("frontier lag: p50 %.4fs, p99 %.4fs over %zu snapshots\n",
              lag_p50, lag_p99, live.lag_s.size());
  std::printf("producer: wall %.3fs, stalled %.3fs; consumer: wall %.3fs, "
              "waiting %.3fs; overlap ratio %.2f\n",
              live.producer_wall_s, live.stall_s, live.consumer_wall_s,
              live.frontier_wait_s, overlap);
  std::printf("demand p99: quiet %.2fms, under ingest %.2fms; peak memory "
              "%.1f%% of limit\n",
              quiet_p99, ingest_p99, 100.0 * live.mem_peak_frac);
  if (!line.quick) {
    // The backpressure sweep of EXPERIMENTS.md's "Live ingest" table.
    std::printf("window sweep:\n  %6s %12s %12s %12s %16s\n", "window",
                "lag p50(s)", "lag p99(s)", "stalled(s)", "demand p99(ms)");
    for (int window : {1, kWindow, 8}) {
      IngestResult run =
          window == kWindow ? live : LiveIngestPhase(spec, window);
      std::printf("  %6d %12.4f %12.4f %12.3f %16.2f\n", window,
                  Percentile(run.lag_s, 0.50), Percentile(run.lag_s, 0.99),
                  run.stall_s, Percentile(run.demand_ms, 0.99));
    }
  }

  BenchJson json("bench_ingest");
  json.Add("frontier_lag_p50_s", lag_p50);
  json.Add("frontier_lag_p99_s", lag_p99);
  json.Add("stall_s", live.stall_s);
  json.Add("demand_p99_noingest_ms", quiet_p99);
  json.Add("demand_p99_ingest_ms", ingest_p99);
  json.Add("mem_peak_frac", live.mem_peak_frac);
  json.Add("io_overlap_ratio", overlap);
  if (!json.WriteTo(line.json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
