// Ablation (DESIGN.md §3, decision 2): caching for interactive
// exploration. The paper motivates caching with interactive users who
// "frequently switch back and forth between snapshot images from two
// different time-steps" (§1) and interactive tools that mark processed
// units "finished" hoping for revisits (§3.2). This harness replays
// locality-bearing interactive sessions against LRU and FIFO eviction
// across cache sizes and reports hit rates and visible I/O time.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/random.h"
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

namespace godiva::bench {
namespace {

using workloads::Experiment;
using workloads::PlatformRuntime;

// An interactive session over `num_snapshots` time-steps: mostly small
// steps forward/backward plus frequent flips back to a reference snapshot
// — the paper's "switch back and forth" pattern.
std::vector<int> MakeSession(int num_snapshots, int touches,
                             uint64_t seed) {
  Random rng(seed);
  std::vector<int> session;
  int current = 0;
  const int reference = 0;  // the user keeps comparing against snapshot 0
  for (int i = 0; i < touches; ++i) {
    double dice = rng.NextDouble();
    if (dice < 0.40) {
      // Flip to the reference snapshot and back — the paper's "switch
      // back and forth between snapshot images from two different
      // time-steps". LRU aims to keep the hot reference resident, which
      // FIFO evicts as the oldest read; the sweep shows where that pays.
      session.push_back(reference);
      session.push_back(current);
    } else if (dice < 0.90) {
      current = std::min(num_snapshots - 1, current + 1);
      session.push_back(current);
    } else {
      current = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(num_snapshots)));
      session.push_back(current);
    }
  }
  return session;
}

struct CachingResult {
  double visible_io_seconds = 0;
  int64_t reads = 0;
  int64_t hits = 0;
  int64_t evictions = 0;
};

Result<CachingResult> RunSession(Experiment* experiment,
                                 const std::vector<int>& session,
                                 EvictionPolicy policy,
                                 int64_t memory_bytes,
                                 bool caching_enabled = true) {
  PlatformRuntime runtime(PlatformProfile::Engle(),
                          experiment->options().time_scale,
                          experiment->env());
  GboOptions options;
  options.background_io = false;  // interactive: explicit blocking reads
  options.eviction_policy = policy;
  options.memory_limit_bytes = memory_bytes;
  Gbo db(options);
  GODIVA_RETURN_IF_ERROR(workloads::DefineBlockSchema(&db));
  Gbo::ReadFn read_fn = workloads::MakeSnapshotReadFn(
      &runtime, &experiment->dataset(), {"velx", "vely", "velz"});

  for (int snapshot : session) {
    std::string unit = workloads::SnapshotUnitName(snapshot);
    GODIVA_RETURN_IF_ERROR(db.ReadUnit(unit, read_fn));
    // Brief viewing computation, then mark finished (not deleted!) so the
    // data stays cached for revisits. Without caching, the unit is
    // deleted as soon as it has been viewed.
    runtime.ChargeCompute(0.5);
    if (caching_enabled) {
      GODIVA_RETURN_IF_ERROR(db.FinishUnit(unit));
    } else {
      GODIVA_RETURN_IF_ERROR(db.DeleteUnit(unit));
    }
  }
  CachingResult out;
  GboStats stats = db.stats();
  out.visible_io_seconds = runtime.scale().WallToModeledSeconds(
      FromSeconds(stats.visible_io_seconds));
  out.reads = stats.units_read_foreground;
  out.hits = stats.unit_cache_hits;
  out.evictions = stats.units_evicted;
  return out;
}

// Full size: a smaller mesh than the paper's, and 16 snapshots.
constexpr BenchSize kFullSize{0.35, 16};
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
  std::printf("Ablation: interactive caching — LRU (paper) vs FIFO "
              "eviction\n");
  PrintDatasetBanner(**experiment);

  std::vector<int> session =
      MakeSession((*experiment)->options().spec.num_snapshots,
                  /*touches=*/60, /*seed=*/20040301);
  std::printf("session: %d interactive views\n",
              static_cast<int>(session.size()));

  // Unit footprint ≈ mesh + 3 quantities; sweep cache capacity in units.
  const mesh::DatasetSpec& spec = (*experiment)->options().spec;
  int64_t unit_bytes =
      static_cast<int64_t>(spec.ExpectedNodes() * 1.05 * 8) * 6 +
      spec.ExpectedTets() * 16;

  workloads::PrintHeader("cache capacity sweep");
  std::printf("  %-10s %-6s %8s %8s %10s %16s\n", "capacity", "policy",
              "reads", "hits", "evictions", "visible I/O(s)");
  {
    // Baseline: no caching at all (delete after every view).
    auto result = RunSession(experiment->get(), session,
                             EvictionPolicy::kLru, 2 * unit_bytes,
                             /*caching_enabled=*/false);
    if (!result.ok()) {
      std::fprintf(stderr, "session failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("  %-10s %-6s %8lld %8lld %10lld %16.1f\n", "-", "none",
                static_cast<long long>(result->reads),
                static_cast<long long>(result->hits),
                static_cast<long long>(result->evictions),
                result->visible_io_seconds);
  }
  for (int capacity : {2, 4, 8, 12}) {
    for (EvictionPolicy policy :
         {EvictionPolicy::kLru, EvictionPolicy::kFifo}) {
      auto result = RunSession(experiment->get(), session, policy,
                               capacity * unit_bytes * 11 / 10);
      if (!result.ok()) {
        std::fprintf(stderr, "session failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf("  %-10s %-6s %8lld %8lld %10lld %16.1f\n",
                  StrCat(capacity, " units").c_str(),
                  policy == EvictionPolicy::kLru ? "LRU" : "FIFO",
                  static_cast<long long>(result->reads),
                  static_cast<long long>(result->hits),
                  static_cast<long long>(result->evictions),
                  result->visible_io_seconds);
    }
  }
  std::printf("  (caching is the headline win over 'none'; FIFO reads less "
              "at 2 units, LRU reads no more than FIFO from 4 units up, and "
              "the two tie once every snapshot fits)\n");
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
