// Reproduces the §4.2 I/O-volume analysis: "by using the GODIVA database,
// the volume of reads can be reduced by approximately 14%, 24%, and 16%,
// in the simple, medium, and complex tests respectively". Runs O and G on
// the virtual clock, where modeled time costs no wall time, and reports
// volumes and request counts only.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "sim/platform.h"
#include "workloads/experiment.h"
#include "workloads/report.h"
#include "workloads/test_spec.h"
#include "workloads/voyager.h"

namespace godiva::bench {
namespace {

using workloads::Experiment;
using workloads::Variant;
using workloads::VizTestSpec;

// Full size: the paper's mesh and 32 snapshots (§4.2).
constexpr BenchSize kFullSize{1.0, 32};
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
  std::printf("I/O volume: original Voyager (O) vs single-thread GODIVA "
              "(G), §4.2\n");
  PrintDatasetBanner(**experiment);

  const double kPaperReduction[] = {14.0, 24.0, 16.0};
  PlatformProfile engle = PlatformProfile::Engle();
  workloads::PrintHeader("per-test read volumes (whole run)");
  std::printf("  %-8s %14s %14s %10s %10s %12s\n", "test", "O bytes",
              "G bytes", "O reads", "G reads", "reduction");
  int index = 0;
  for (const VizTestSpec& test : VizTestSpec::AllThree()) {
    auto o = (*experiment)->RunCell(engle, test, Variant::kOriginal);
    auto g =
        (*experiment)->RunCell(engle, test, Variant::kGodivaSingleThread);
    if (!o.ok() || !g.ok()) {
      std::fprintf(stderr, "cell failed\n");
      return 1;
    }
    double reduction = workloads::PercentReduction(
        static_cast<double>(o->bytes_read),
        static_cast<double>(g->bytes_read));
    std::printf("  %-8s %14s %14s %10lld %10lld %10.1f%%\n",
                test.name.c_str(), FormatBytes(o->bytes_read).c_str(),
                FormatBytes(g->bytes_read).c_str(),
                static_cast<long long>(o->reads),
                static_cast<long long>(g->reads), reduction);
    workloads::PrintComparison(StrCat("volume reduction, ", test.name),
                               kPaperReduction[index++], reduction);
    // Per-snapshot input volume (the paper reports 19.2/30.1/16.6 MB for
    // simple/medium/complex).
    double per_snapshot_mb =
        static_cast<double>(o->bytes_read) /
        (1e6 * (*experiment)->options().spec.num_snapshots);
    std::printf("  per-snapshot input (O): %.1f MB   (paper: %s MB)\n",
                per_snapshot_mb,
                test.name == "simple"
                    ? "19.2"
                    : (test.name == "medium" ? "30.1" : "16.6"));
  }
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
