// Ablation (DESIGN.md §3, decision 3): database memory budget
// (setMemSpace). The paper argues the memory requirement "is similar to
// that of the traditional double buffering approach": one extra unit of
// headroom already enables overlap, and more memory deepens prefetch.
// Sweeps the budget from below one unit (deadlock risk) to the paper's
// 384 MB and reports visible I/O and deadlocks.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "core/gbo.h"
#include "core/options.h"
#include "sim/platform.h"
#include "workloads/block_schema.h"
#include "workloads/experiment.h"
#include "workloads/platform_runtime.h"
#include "workloads/report.h"
#include "workloads/snapshot_io.h"
#include "workloads/test_spec.h"
#include "workloads/voyager.h"

namespace godiva::bench {
namespace {

using workloads::Experiment;
using workloads::PlatformRuntime;
using workloads::RunConfig;
using workloads::Variant;
using workloads::VizTestSpec;

// Full size: a smaller mesh than the paper's, and 32 snapshots.
constexpr BenchSize kFullSize{0.35, 32};
constexpr BenchSize kQuickSize{0.12, 8};

int Run(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv, kFullSize, kQuickSize,
                                       /*writes_json=*/false);
  auto experiment = Experiment::Create(flags.ToOptions());
  if (!experiment.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 experiment.status().ToString().c_str());
    return 1;
  }
  std::printf("Ablation: GODIVA memory budget (setMemSpace), TG on Engle, "
              "simple test\n");
  PrintDatasetBanner(**experiment);

  // Estimate one unit's footprint: run one TG cell with a huge budget and
  // read the peak with a single unit resident... simpler: derive from the
  // dataset spec (mesh + 4 quantities + record overhead).
  const mesh::DatasetSpec& spec = (*experiment)->options().spec;
  int64_t unit_bytes =
      static_cast<int64_t>(spec.ExpectedNodes() * 1.05 * 8) * 7 +
      spec.ExpectedTets() * 16 + spec.num_blocks * 1024;

  workloads::PrintHeader("memory budget sweep");
  std::printf("  %-14s %12s %16s %10s %10s\n", "budget", "total(s)",
              "visible I/O(s)", "evictions", "deadlocks");
  struct Budget {
    const char* label;
    double units;
  };
  const Budget kBudgets[] = {
      {"0.5 units", 0.5}, {"1.2 units", 1.2},  {"2.2 units", 2.2},
      {"4 units", 4.0},   {"8 units", 8.0},    {"all (384MB)", -1.0},
  };
  for (const Budget& budget : kBudgets) {
    PlatformRuntime runtime(PlatformProfile::Engle(),
                            (*experiment)->options().time_scale,
                            (*experiment)->env());
    RunConfig config;
    config.dataset = &(*experiment)->dataset();
    config.test = VizTestSpec::Simple();
    config.variant = Variant::kGodivaMultiThread;
    config.process = (*experiment)->options().process;
    config.godiva_memory_bytes =
        budget.units < 0
            ? int64_t{384} * 1024 * 1024
            : static_cast<int64_t>(budget.units *
                                   static_cast<double>(unit_bytes));
    auto cell = RunVoyager(&runtime, config);
    if (!cell.ok()) {
      // With less than one unit of memory the run may abort with the
      // deadlock status — that is the expected behaviour to demonstrate.
      std::printf("  %-14s %12s %16s %10s %10s  (%s)\n", budget.label, "-",
                  "-", "-", "-", cell.status().ToString().c_str());
      continue;
    }
    std::printf("  %-14s %12.1f %16.1f %10lld %10lld\n", budget.label,
                cell->total_seconds, cell->visible_io_seconds,
                static_cast<long long>(cell->gbo.units_evicted),
                static_cast<long long>(cell->gbo.deadlocks_detected));
  }
  std::printf("  (≈2 units ≈ classic double buffering: most of the "
              "benefit; ≤1 unit forfeits all overlap)\n");

  // Deadlock detection (paper §3.3): a negligent application that never
  // finishes or deletes processed units pins everything; once the budget
  // is exhausted the prefetch thread can make no progress and GODIVA must
  // fail the blocked wait rather than hang.
  workloads::PrintHeader("deadlock detection with unreleased units");
  {
    PlatformRuntime runtime(PlatformProfile::Engle(),
                            (*experiment)->options().time_scale,
                            (*experiment)->env());
    GboOptions options;
    options.memory_limit_bytes = 3 * unit_bytes;
    Gbo db(options);
    Status status = workloads::DefineBlockSchema(&db);
    Gbo::ReadFn read_fn = workloads::MakeSnapshotReadFn(
        &runtime, &(*experiment)->dataset(),
        VizTestSpec::Simple().AllQuantities());
    const mesh::DatasetSpec& ds = (*experiment)->options().spec;
    for (int s = 0; s < ds.num_snapshots && status.ok(); ++s) {
      status = db.AddUnit(workloads::SnapshotUnitName(s), read_fn);
    }
    int processed = 0;
    for (int s = 0; s < ds.num_snapshots && status.ok(); ++s) {
      status = db.WaitUnit(workloads::SnapshotUnitName(s));
      if (status.ok()) ++processed;  // ... and neglects FinishUnit/DeleteUnit
    }
    std::printf("  budget 3 units, no Finish/DeleteUnit: processed %d of "
                "%d snapshots, then: %s\n",
                processed, ds.num_snapshots, status.ToString().c_str());
    std::printf("  deadlocks detected by GODIVA: %lld\n",
                static_cast<long long>(db.stats().deadlocks_detected));
  }
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
