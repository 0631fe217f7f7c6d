// Reproduces Figure 3(b) of the paper: Voyager running time on one Turing
// cluster node (two CPUs) for the simple/medium/complex tests under O, G,
// TG1 (multi-thread GODIVA with a competing compute-bound process pinning
// the second CPU) and TG2 (multi-thread GODIVA alone). Also prints the
// §4.2 derived metrics: single-thread I/O time reductions, the 81.1–90.8%
// hidden-I/O range, and the up-to-93/90/95% total input cost reductions.
#include <cstdio>
#include <algorithm>
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

struct Cell {
  std::string label;  // O / G / TG1 / TG2
  Variant variant;
  bool competitor;
};

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
  std::printf(
      "Figure 3(b): Voyager running time on a Turing cluster node (2 "
      "CPUs)\n");
  PrintDatasetBanner(**experiment);

  PlatformProfile turing = PlatformProfile::Turing();
  const Cell kCells[] = {
      {"O", Variant::kOriginal, false},
      {"G", Variant::kGodivaSingleThread, false},
      {"TG1", Variant::kGodivaMultiThread, true},
      {"TG2", Variant::kGodivaMultiThread, false},
  };
  std::vector<BarRow> rows;
  std::map<std::string, std::map<std::string, CellResult>> cells;
  for (const VizTestSpec& test : VizTestSpec::AllThree()) {
    for (const Cell& cell_spec : kCells) {
      auto cell = (*experiment)
                      ->RunCell(turing, test, cell_spec.variant,
                                cell_spec.competitor);
      if (!cell.ok()) {
        std::fprintf(stderr, "cell failed: %s\n",
                     cell.status().ToString().c_str());
        return 1;
      }
      rows.push_back(BarRow{StrCat(test.name, "(", cell_spec.label, ")"),
                            cell->computation_seconds,
                            cell->visible_io_seconds});
      cells[test.name][cell_spec.label] = *cell;
      workloads::PrintResilience(*cell);
    }
  }
  workloads::PrintFigure("Figure 3(b) — Turing cluster node", rows);

  BenchJson json("bench_fig3b_de");
  for (const auto& [test_name, labels] : cells) {
    for (const auto& [label, cell] : labels) {
      std::string prefix = StrCat(test_name, "_", label);
      json.Add(StrCat(prefix, "_total_s"), cell.total_seconds);
      json.Add(StrCat(prefix, "_visible_io_s"), cell.visible_io_seconds);
    }
  }
  if (!json.WriteTo(flags.json_path)) return 1;

  struct PaperRow {
    const char* test;
    double io_time_reduction;        // G vs O
    double max_total_input_reduction;  // best of TG1/TG2 vs O
  };
  const PaperRow kPaper[] = {
      {"simple", 16.0, 93.2},
      {"medium", 30.0, 90.3},
      {"complex", 10.7, 94.7},
  };
  workloads::PrintHeader("Derived metrics vs paper (§4.2, Turing)");
  double min_hidden = 1e9;
  double max_hidden = -1e9;
  for (const PaperRow& paper : kPaper) {
    const CellResult& o = cells[paper.test]["O"];
    const CellResult& g = cells[paper.test]["G"];
    workloads::PrintComparison(
        StrCat("I/O time reduction (O vs G), ", paper.test),
        paper.io_time_reduction,
        workloads::PercentReduction(o.visible_io_seconds,
                                    g.visible_io_seconds));
    double best_total = 1e300;
    for (const char* tg : {"TG1", "TG2"}) {
      const CellResult& cell = cells[paper.test][tg];
      double hidden = 100.0 * (g.total_seconds - cell.total_seconds) /
                      g.visible_io_seconds;
      min_hidden = std::min(min_hidden, hidden);
      max_hidden = std::max(max_hidden, hidden);
      best_total = std::min(best_total, cell.total_seconds);
    }
    workloads::PrintComparison(
        StrCat("max total input cost reduction, ", paper.test),
        paper.max_total_input_reduction,
        100.0 * (o.total_seconds - best_total) / o.visible_io_seconds);
  }
  std::printf(
      "  hidden I/O fraction across all TG1/TG2 cells: paper 81.1%%–90.8%%"
      "  measured %.1f%%–%.1f%%\n",
      min_hidden, max_hidden);
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
