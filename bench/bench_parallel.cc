// Reproduces the paper's parallel experiment (§4.2): "a series of parallel
// experiments on Turing using four Voyager processes", where Voyager
// "partitions its workload between processors by assigning different
// processors different snapshots to process" and "we expect the speedup
// brought by GODIVA in parallel mode to be similar to that obtained in our
// sequential mode tests ... this is confirmed".
//
// Each emulated process gets its own Turing node (own virtual CPUs and own
// disk replica of the dataset) and a round-robin quarter of the snapshots.
#include <cstdio>
#include <algorithm>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/status.h"
#include "common/thread.h"
#include "sim/platform.h"
#include "workloads/experiment.h"
#include "workloads/platform_runtime.h"
#include "workloads/report.h"
#include "workloads/test_spec.h"
#include "workloads/voyager.h"

namespace godiva::bench {
namespace {

using workloads::CellResult;
using workloads::Experiment;
using workloads::PlatformRuntime;
using workloads::RunConfig;
using workloads::Variant;
using workloads::VizTestSpec;

constexpr int kProcesses = 4;

struct ParallelOutcome {
  double makespan_seconds = 0;  // max process total (modeled)
  double visible_io_seconds = 0;  // max process visible I/O
  std::vector<double> process_total_seconds;  // one per process
};

Result<ParallelOutcome> RunParallel(Experiment* experiment,
                                    const VizTestSpec& test,
                                    Variant variant) {
  const mesh::DatasetSpec& spec = experiment->options().spec;
  std::vector<std::unique_ptr<SimEnv>> envs;
  for (int p = 0; p < kProcesses; ++p) {
    envs.push_back(experiment->env()->Clone(SimEnv::Options{}));
  }
  std::vector<Result<CellResult>> results(kProcesses,
                                          Result<CellResult>(CellResult{}));
  std::vector<Thread> threads;
  for (int p = 0; p < kProcesses; ++p) {
    threads.emplace_back([&, p] {
      PlatformRuntime runtime(PlatformProfile::Turing(),
                              experiment->options().time_scale,
                              envs[static_cast<size_t>(p)].get());
      RunConfig config;
      config.dataset = &experiment->dataset();
      config.test = test;
      config.variant = variant;
      config.process = experiment->options().process;
      for (int s = p; s < spec.num_snapshots; s += kProcesses) {
        config.snapshots.push_back(s);
      }
      results[static_cast<size_t>(p)] = RunVoyager(&runtime, config);
    });
  }
  for (Thread& thread : threads) thread.join();

  ParallelOutcome outcome;
  for (const Result<CellResult>& result : results) {
    if (!result.ok()) return result.status();
    outcome.makespan_seconds =
        std::max(outcome.makespan_seconds, result->total_seconds);
    outcome.visible_io_seconds =
        std::max(outcome.visible_io_seconds, result->visible_io_seconds);
    outcome.process_total_seconds.push_back(result->total_seconds);
  }
  return outcome;
}

// One sequential TG run on a modernized Turing node, `io_threads` pool
// threads, and per-file read coalescing. On the paper's 2003 hardware one
// I/O thread keeps up with the app, so a pool buys nothing; this profile
// models the post-paper question the pool answers — CPUs got ~4× faster
// while shared-filesystem per-stream bandwidth did not, so the app is
// I/O-bound unless the storage's command queuing (queue_depth=4) is
// actually exercised by concurrent transfers.
Result<CellResult> RunPoolCell(Experiment* experiment,
                               const VizTestSpec& test, int io_threads) {
  PlatformProfile profile = PlatformProfile::Turing();
  profile.name = "turing-modern";
  profile.cpu_slots = 4;  // decode on pool threads needs CPU slots too
  profile.cpu_speed *= 4.0;
  profile.disk.bytes_per_second = 16.0 * 1024 * 1024;
  profile.disk.queue_depth = 4;
  std::unique_ptr<SimEnv> env =
      experiment->env()->Clone(SimEnv::Options{});
  PlatformRuntime runtime(profile, experiment->options().time_scale,
                          env.get());
  RunConfig config;
  config.dataset = &experiment->dataset();
  config.test = test;
  config.variant = Variant::kGodivaMultiThread;
  config.process = experiment->options().process;
  config.io_threads = io_threads;
  config.coalesce_reads = true;
  return RunVoyager(&runtime, config);
}

// Full size: a half-scale mesh, since each of the four processes holds
// its own replica of the dataset in RAM, and 32 snapshots.
constexpr BenchSize kFullSize{0.5, 32};
constexpr BenchSize kQuickSize{0.12, 8};

int Run(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv, kFullSize, kQuickSize,
                                       /*writes_json=*/true);
  auto experiment = Experiment::Create(flags.ToOptions());
  if (!experiment.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 experiment.status().ToString().c_str());
    return 1;
  }
  std::printf("Parallel Voyager: %d emulated processes on Turing nodes "
              "(§4.2)\n", kProcesses);
  PrintDatasetBanner(**experiment);

  BenchJson json("bench_parallel_de");
  workloads::PrintHeader("sequential vs 4-process, O vs TG");
  std::printf("  %-8s %16s %16s %10s %16s\n", "test", "seq total(s)",
              "par makespan(s)", "speedup", "GODIVA benefit");
  for (const VizTestSpec& test : VizTestSpec::AllThree()) {
    double seq_total[2];
    double par_total[2];
    LatencyRecorder proc_totals;  // per-process TG totals (load balance)
    int i = 0;
    for (Variant variant :
         {Variant::kOriginal, Variant::kGodivaMultiThread}) {
      auto seq = (*experiment)
                     ->RunCell(PlatformProfile::Turing(), test, variant);
      if (!seq.ok()) {
        std::fprintf(stderr, "seq cell failed: %s\n",
                     seq.status().ToString().c_str());
        return 1;
      }
      auto par = RunParallel(experiment->get(), test, variant);
      if (!par.ok()) {
        std::fprintf(stderr, "parallel cell failed: %s\n",
                     par.status().ToString().c_str());
        return 1;
      }
      seq_total[i] = seq->total_seconds;
      par_total[i] = par->makespan_seconds;
      if (variant == Variant::kGodivaMultiThread) {
        proc_totals.RecordAll(par->process_total_seconds);
      }
      ++i;
    }
    // GODIVA benefit: total-time reduction O→TG, sequential vs parallel
    // (the paper expects these to be similar).
    double seq_benefit =
        workloads::PercentReduction(seq_total[0], seq_total[1]);
    double par_benefit =
        workloads::PercentReduction(par_total[0], par_total[1]);
    std::printf("  %-8s %9.1f/%-9.1f %9.1f/%-9.1f %5.2fx %9.1f%%/%5.1f%%\n",
                test.name.c_str(), seq_total[0], seq_total[1],
                par_total[0], par_total[1], seq_total[1] / par_total[1],
                seq_benefit, par_benefit);
    json.Add(StrCat(test.name, "_seq_total_O_s"), seq_total[0]);
    json.Add(StrCat(test.name, "_seq_total_TG_s"), seq_total[1]);
    json.Add(StrCat(test.name, "_par_makespan_O_s"), par_total[0]);
    json.Add(StrCat(test.name, "_par_makespan_TG_s"), par_total[1]);
    // Load balance across the 4 TG processes: median process total and
    // the straggler gap (makespan − median).
    json.Add(StrCat(test.name, "_par_proc_p50_TG_s"),
             proc_totals.Percentile(0.50));
    json.Add(StrCat(test.name, "_par_straggler_gap_TG_s"),
             proc_totals.Max() - proc_totals.Percentile(0.50));
  }
  std::printf("  (totals shown as O/TG; speedup is TG sequential vs TG "
              "4-process; paper expects parallel GODIVA benefit similar "
              "to sequential)\n");

  // ----- I/O pool scaling: 1/2/4 pool threads on queue_depth-4 storage.
  // Visible I/O is the headline: the ratio t1/t4 is the pool's payoff and
  // is tracked in BENCH_baseline.json.
  const VizTestSpec pool_test = VizTestSpec::AllThree()[0];  // simple
  workloads::PrintHeader(
      "I/O pool scaling (sequential TG, simple test, queue_depth=4)");
  std::printf("  %-10s %12s %15s %12s %10s\n", "io_threads", "total(s)",
              "visible I/O(s)", "coalesced", "queue hw");
  double pool_visible[3] = {0, 0, 0};
  const int kPoolThreads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    auto cell = RunPoolCell(experiment->get(), pool_test, kPoolThreads[i]);
    if (!cell.ok()) {
      std::fprintf(stderr, "pool cell failed: %s\n",
                   cell.status().ToString().c_str());
      return 1;
    }
    pool_visible[i] = cell->visible_io_seconds;
    std::printf("  %-10d %12.1f %15.1f %12lld %10lld\n", kPoolThreads[i],
                cell->total_seconds, cell->visible_io_seconds,
                static_cast<long long>(cell->coalesced_reads),
                static_cast<long long>(cell->gbo.queue_depth_high_water));
    std::string prefix = StrCat("pool_t", kPoolThreads[i]);
    json.Add(StrCat(prefix, "_total_s"), cell->total_seconds);
    json.Add(StrCat(prefix, "_visible_io_s"), cell->visible_io_seconds);
  }
  double pool_ratio =
      pool_visible[2] > 0 ? pool_visible[0] / pool_visible[2] : 0;
  std::printf("  visible I/O reduction, 1 -> 4 threads: %.2fx\n",
              pool_ratio);
  json.Add("pool_visible_io_ratio_t1_over_t4", pool_ratio);

  if (!json.WriteTo(flags.json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
