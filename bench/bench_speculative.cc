// Extension benchmark: speculative prefetching for interactive mode
// (paper §5 — GODIVA as a building block for the Doshi-style prefetching
// of visual data exploration). Replays scripted interactive sessions and
// compares per-view response time with plain foreground reads (the paper's
// interactive baseline, readUnit only) against the InteractivePrefetcher.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/gbo.h"
#include "core/interactive_prefetcher.h"
#include "core/options.h"
#include "sim/platform.h"
#include "workloads/block_schema.h"
#include "workloads/experiment.h"
#include "workloads/platform_runtime.h"
#include "workloads/report.h"
#include "workloads/snapshot_io.h"

namespace godiva::bench {
namespace {

using workloads::Experiment;
using workloads::PlatformRuntime;

struct SessionResult {
  double mean_response_seconds = 0;
  double worst_response_seconds = 0;
  int64_t memory_hits = 0;
};

std::vector<int> ForwardScan(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) out.push_back(i);
  return out;
}

std::vector<int> SweepBackAndForth(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) out.push_back(i);
  for (int i = n - 2; i >= 0; --i) out.push_back(i);
  return out;
}

Result<SessionResult> Replay(Experiment* experiment,
                             const std::vector<int>& session,
                             bool speculative,
                             double think_modeled_seconds) {
  PlatformRuntime runtime(PlatformProfile::Engle(),
                          experiment->options().time_scale,
                          experiment->env());
  Gbo db;  // background thread available for speculation
  GODIVA_RETURN_IF_ERROR(workloads::DefineBlockSchema(&db));
  Gbo::ReadFn read_fn = workloads::MakeSnapshotReadFn(
      &runtime, &experiment->dataset(), {"velx", "vely", "velz"});
  InteractivePrefetcher::Options options;
  options.num_items = experiment->options().spec.num_snapshots;
  options.lookahead = 2;
  InteractivePrefetcher prefetcher(&db, options,
                                   workloads::SnapshotUnitName, read_fn);

  SessionResult result;
  double total = 0;
  for (int index : session) {
    Stopwatch response;
    if (speculative) {
      GODIVA_RETURN_IF_ERROR(prefetcher.Access(index));
    } else {
      GODIVA_RETURN_IF_ERROR(
          db.ReadUnit(workloads::SnapshotUnitName(index), read_fn));
    }
    double seconds =
        runtime.scale().WallToModeledSeconds(response.Elapsed());
    total += seconds;
    result.worst_response_seconds =
        std::max(result.worst_response_seconds, seconds);
    // The user studies the image: the speculation window.
    runtime.ChargeCompute(think_modeled_seconds);
    if (speculative) {
      GODIVA_RETURN_IF_ERROR(prefetcher.Release(index));
    } else {
      GODIVA_RETURN_IF_ERROR(
          db.FinishUnit(workloads::SnapshotUnitName(index)));
    }
  }
  result.mean_response_seconds =
      total / static_cast<double>(session.size());
  result.memory_hits = speculative ? prefetcher.stats().memory_hits
                                   : db.stats().unit_cache_hits;
  return result;
}

// Full size: a smaller mesh than the paper's, and 16 snapshots.
constexpr BenchSize kFullSize{0.3, 16};
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
  std::printf("Extension: speculative interactive prefetching (§5 / "
              "Doshi-style, built on the GODIVA interfaces)\n");
  PrintDatasetBanner(**experiment);

  struct SessionSpec {
    const char* label;
    std::vector<int> session;
  };
  int n = (*experiment)->options().spec.num_snapshots;
  const SessionSpec kSessions[] = {
      {"forward scan", ForwardScan(n)},
      {"sweep back and forth", SweepBackAndForth(n)},
  };
  workloads::PrintHeader("per-view response time (modeled seconds)");
  std::printf("  %-22s %-14s %10s %10s %8s\n", "session", "mode", "mean",
              "worst", "hits");
  for (const SessionSpec& spec : kSessions) {
    for (bool speculative : {false, true}) {
      auto result = Replay(experiment->get(), spec.session, speculative,
                           /*think_modeled_seconds=*/6.0);
      if (!result.ok()) {
        std::fprintf(stderr, "replay failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf("  %-22s %-14s %9.2fs %9.2fs %8lld\n", spec.label,
                  speculative ? "speculative" : "readUnit only",
                  result->mean_response_seconds,
                  result->worst_response_seconds,
                  static_cast<long long>(result->memory_hits));
    }
  }
  std::printf("  (speculation hides reads behind user think time; the "
              "sweep also benefits from plain caching on the way back)\n");
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
