// Reproduces Figure 3(a) of the paper: Voyager running time on the Engle
// workstation (one CPU) for the simple/medium/complex tests under the
// original implementation (O), single-thread GODIVA (G), and multi-thread
// GODIVA (TG) — plus the §4.2 derived metrics (I/O volume reduction, I/O
// time reduction, hidden-I/O fraction, total input-cost reduction).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/platform.h"
#include "workloads/experiment.h"
#include "workloads/report.h"
#include "workloads/test_spec.h"
#include "workloads/voyager.h"

namespace godiva::bench {
namespace {

using workloads::BarRow;
using workloads::CellResult;
using workloads::Experiment;
using workloads::Variant;
using workloads::VizTestSpec;

// Full size: the paper's mesh and 32 snapshots (§4.2).
constexpr BenchSize kFullSize{1.0, 32};
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
  std::printf("Figure 3(a): Voyager running time on Engle (1 CPU)\n");
  PrintDatasetBanner(**experiment);

  PlatformProfile engle = PlatformProfile::Engle();
  const Variant kVariants[] = {Variant::kOriginal,
                               Variant::kGodivaSingleThread,
                               Variant::kGodivaMultiThread};
  std::vector<BarRow> rows;
  // cells[test][variant]
  std::map<std::string, std::map<std::string, CellResult>> cells;
  for (const VizTestSpec& test : VizTestSpec::AllThree()) {
    for (Variant variant : kVariants) {
      auto cell = (*experiment)->RunCell(engle, test, variant);
      if (!cell.ok()) {
        std::fprintf(stderr, "cell failed: %s\n",
                     cell.status().ToString().c_str());
        return 1;
      }
      std::string label =
          StrCat(test.name, "(", workloads::VariantName(variant), ")");
      rows.push_back(BarRow{label, cell->computation_seconds,
                            cell->visible_io_seconds});
      cells[test.name][std::string(workloads::VariantName(variant))] =
          *cell;
      workloads::PrintResilience(*cell);
    }
  }
  workloads::PrintFigure("Figure 3(a) — Engle workstation", rows);

  BenchJson json("bench_fig3a_de");
  for (const auto& [test_name, variants] : cells) {
    for (const auto& [variant_name, cell] : variants) {
      std::string prefix = StrCat(test_name, "_", variant_name);
      json.Add(StrCat(prefix, "_total_s"), cell.total_seconds);
      json.Add(StrCat(prefix, "_visible_io_s"), cell.visible_io_seconds);
      json.Add(StrCat(prefix, "_bytes_read_mib"),
               static_cast<double>(cell.bytes_read) / (1024.0 * 1024.0));
    }
  }
  if (!json.WriteTo(flags.json_path)) return 1;

  // §4.2 derived metrics, paper values in comments/rows.
  struct PaperRow {
    const char* test;
    double volume_reduction;
    double io_time_reduction;
    double hidden_fraction;
    double total_input_reduction;
  };
  const PaperRow kPaper[] = {
      {"simple", 14.0, 17.6, 24.7, 40.9},
      {"medium", 24.0, 37.2, 33.1, 60.5},
      {"complex", 16.0, 20.1, 37.8, 61.9},
  };
  workloads::PrintHeader("Derived metrics vs paper (§4.2, Engle)");
  for (const PaperRow& paper : kPaper) {
    const CellResult& o = cells[paper.test]["O"];
    const CellResult& g = cells[paper.test]["G"];
    const CellResult& tg = cells[paper.test]["TG"];
    workloads::PrintComparison(
        StrCat("I/O volume reduction, ", paper.test),
        paper.volume_reduction,
        workloads::PercentReduction(static_cast<double>(o.bytes_read),
                                    static_cast<double>(g.bytes_read)));
    workloads::PrintComparison(
        StrCat("I/O time reduction (O vs G), ", paper.test),
        paper.io_time_reduction,
        workloads::PercentReduction(o.visible_io_seconds,
                                    g.visible_io_seconds));
    workloads::PrintComparison(
        StrCat("I/O cost hidden (G vs TG), ", paper.test),
        paper.hidden_fraction,
        100.0 * (g.total_seconds - tg.total_seconds) / g.visible_io_seconds);
    workloads::PrintComparison(
        StrCat("total input cost reduction (O vs TG), ", paper.test),
        paper.total_input_reduction,
        100.0 * (o.total_seconds - tg.total_seconds) / o.visible_io_seconds);
  }
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
