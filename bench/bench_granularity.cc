// Ablation (DESIGN.md §3, decision 1): processing-unit granularity. The
// paper lets developers pick the unit — "records read from the same input
// file", "multiple input files that are part of the same time-step
// snapshot ... a coarser prefetching granularity", or finer subsets. This
// harness runs the same batch visualization with units of one file, one
// snapshot (Voyager's choice), and groups of two/four snapshots, and
// reports visible I/O and total time for each.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/gbo.h"
#include "gsdf/reader.h"
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
using workloads::VizTestSpec;

struct GranularityResult {
  double total_seconds = 0;
  double visible_io_seconds = 0;
  int64_t units = 0;
};

// Reads one file (all of its blocks, mesh + `quantities`) into `db`. The
// block list is read without a decode charge.
Status ReadOneFile(PlatformRuntime* runtime, const std::string& path,
                   int snapshot, const std::vector<std::string>& quantities,
                   Gbo* db) {
  GODIVA_ASSIGN_OR_RETURN(auto reader,
                          gsdf::Reader::Open(runtime->env(), path));
  GODIVA_ASSIGN_OR_RETURN(const gsdf::DatasetInfo* blocks_info,
                          reader->Find("blocks"));
  std::vector<int32_t> blocks(
      static_cast<size_t>(blocks_info->num_elements()));
  GODIVA_RETURN_IF_ERROR(reader->Read(
      "blocks", blocks.data(), static_cast<int64_t>(blocks.size()) * 4));
  return workloads::LoadFilePerDataset(
      runtime, *reader, blocks, snapshot,
      workloads::BlockDatasets(quantities), /*verify=*/false, db);
}

// `group` = snapshots per unit; 0 = one unit per file.
Result<GranularityResult> RunWithGranularity(Experiment* experiment,
                                             int group,
                                             const VizTestSpec& test,
                                             double compute_mib_per_snap) {
  PlatformRuntime runtime(PlatformProfile::Engle(),
                          experiment->options().time_scale,
                          experiment->env());
  const mesh::DatasetSpec& spec = experiment->options().spec;
  const mesh::SnapshotDataset& dataset = experiment->dataset();
  std::vector<std::string> quantities = test.AllQuantities();

  Gbo db;  // multi-thread build
  GODIVA_RETURN_IF_ERROR(workloads::DefineBlockSchema(&db));

  // units_for[s] = units that must be ready before processing snapshot s;
  // delete_after[s] = units released after snapshot s.
  std::vector<std::vector<std::string>> units_for(
      static_cast<size_t>(spec.num_snapshots));
  std::vector<std::vector<std::string>> delete_after(
      static_cast<size_t>(spec.num_snapshots));
  int64_t unit_count = 0;

  if (group == 0) {
    for (int s = 0; s < spec.num_snapshots; ++s) {
      for (int f = 0; f < spec.files_per_snapshot; ++f) {
        std::string unit = StrFormat("file_%04d_%02d", s, f);
        std::string path = dataset.files[static_cast<size_t>(
            s * spec.files_per_snapshot + f)];
        GODIVA_RETURN_IF_ERROR(db.AddUnit(
            unit, [&runtime, path, s, quantities](
                      Gbo* g, const std::string&) -> Status {
              return ReadOneFile(&runtime, path, s, quantities, g);
            }));
        units_for[static_cast<size_t>(s)].push_back(unit);
        delete_after[static_cast<size_t>(s)].push_back(unit);
        ++unit_count;
      }
    }
  } else {
    for (int s = 0; s < spec.num_snapshots; s += group) {
      std::string unit = StrFormat("group_%04d", s);
      int end = std::min(s + group, spec.num_snapshots);
      GODIVA_RETURN_IF_ERROR(db.AddUnit(
          unit, [&runtime, &dataset, s, end, quantities](
                    Gbo* g, const std::string&) -> Status {
            for (int snap = s; snap < end; ++snap) {
              for (const std::string& path : dataset.SnapshotFiles(snap)) {
                GODIVA_RETURN_IF_ERROR(
                    ReadOneFile(&runtime, path, snap, quantities, g));
              }
            }
            return Status::Ok();
          }));
      for (int snap = s; snap < end; ++snap) {
        units_for[static_cast<size_t>(snap)].push_back(unit);
      }
      delete_after[static_cast<size_t>(end - 1)].push_back(unit);
      ++unit_count;
    }
  }

  Stopwatch total;
  for (int s = 0; s < spec.num_snapshots; ++s) {
    for (const std::string& unit : units_for[static_cast<size_t>(s)]) {
      GODIVA_RETURN_IF_ERROR(db.WaitUnit(unit));
    }
    runtime.ChargeCompute(test.compute_seconds_per_mib *
                          compute_mib_per_snap);
    for (const std::string& unit :
         delete_after[static_cast<size_t>(s)]) {
      GODIVA_RETURN_IF_ERROR(db.DeleteUnit(unit));
    }
  }
  GranularityResult out;
  const TimeScale& scale = runtime.scale();
  out.total_seconds = scale.WallToModeledSeconds(total.Elapsed());
  out.visible_io_seconds = scale.WallToModeledSeconds(
      FromSeconds(db.stats().visible_io_seconds));
  out.units = unit_count;
  return out;
}

// Full size: a smaller mesh than the paper's, since the ablation runs four
// configurations, and 32 snapshots.
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
  std::printf("Ablation: processing-unit granularity (batch mode, Engle, "
              "medium test)\n");
  PrintDatasetBanner(**experiment);

  VizTestSpec test = VizTestSpec::Medium();
  // Modeled processing input per snapshot: mesh per pass + pass fields.
  const mesh::DatasetSpec& spec = (*experiment)->options().spec;
  double node_mib = static_cast<double>(spec.ExpectedNodes()) * 1.05 * 8 /
                    (1024 * 1024);
  double mesh_mib =
      node_mib * 3 +
      static_cast<double>(spec.ExpectedTets()) * 16 / (1024 * 1024);
  double compute_mib = 0;
  for (const workloads::RenderPass& pass : test.passes) {
    compute_mib +=
        mesh_mib + node_mib * static_cast<double>(pass.quantities.size());
  }

  workloads::PrintHeader("unit granularity sweep");
  std::printf("  %-22s %8s %12s %16s\n", "unit", "units", "total(s)",
              "visible I/O(s)");
  struct Config {
    const char* label;
    int group;
  };
  const Config kConfigs[] = {
      {"one file", 0},
      {"one snapshot (paper)", 1},
      {"two snapshots", 2},
      {"four snapshots", 4},
  };
  for (const Config& config : kConfigs) {
    auto result = RunWithGranularity(experiment->get(), config.group, test,
                                     compute_mib);
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("  %-22s %8lld %12.1f %16.1f\n", config.label,
                static_cast<long long>(result->units),
                result->total_seconds, result->visible_io_seconds);
  }
  std::printf("  (coarser units raise the first-wait cost and memory "
              "footprint; the paper's per-snapshot choice balances both)\n");
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
