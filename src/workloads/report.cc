#include "workloads/report.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/strings.h"

namespace godiva::workloads {
namespace {

std::string Bar(double value, double max_value, int width, char fill) {
  int n = 0;
  if (max_value > 0) {
    n = static_cast<int>(value / max_value * width + 0.5);
  }
  n = std::clamp(n, 0, width);
  return std::string(static_cast<size_t>(n), fill);
}

}  // namespace

void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

void PrintFigure(const std::string& title, const std::vector<BarRow>& rows) {
  PrintHeader(title);
  double max_total = 0;
  for (const BarRow& row : rows) {
    max_total = std::max(max_total,
                         row.computation_seconds + row.visible_io_seconds);
  }
  std::printf("%-16s %14s %14s %10s\n", "", "computation(s)",
              "visible I/O(s)", "total(s)");
  for (const BarRow& row : rows) {
    double total = row.computation_seconds + row.visible_io_seconds;
    std::printf("%-16s %14.1f %14.1f %10.1f  |%s%s\n", row.label.c_str(),
                row.computation_seconds, row.visible_io_seconds, total,
                Bar(row.computation_seconds, max_total, 40, '#').c_str(),
                Bar(row.visible_io_seconds, max_total, 40, '.').c_str());
  }
  std::printf("  (# computation, . visible I/O; bars scaled to %0.1f s)\n",
              max_total);
}

void PrintComparison(const std::string& metric, double paper_value,
                     double measured_value, const std::string& unit) {
  std::printf("  %-44s paper %6.1f%-2s measured %6.1f%s\n", metric.c_str(),
              paper_value, unit.c_str(), measured_value, unit.c_str());
}

void PrintSkipped(const CellResult& result, int snapshots_processed) {
  if (result.skipped.empty()) return;
  std::printf("  %s(%s): skipped %zu/%d snapshots\n", result.test.c_str(),
              result.variant.c_str(), result.skipped.size(),
              snapshots_processed);
  for (const CellResult::SkippedSnapshot& skip : result.skipped) {
    std::printf("    snapshot %d: %s\n", skip.snapshot,
                skip.error.ToString().c_str());
  }
}

std::string FormatResilience(const CellResult& result) {
  const GboStats& gbo = result.gbo;
  if (gbo.files_quarantined == 0 && gbo.reads_short_circuited == 0 &&
      result.salvaged_datasets == 0 && result.torn_writes == 0 &&
      result.quarantined_files.empty()) {
    return "";
  }
  std::string out = StrCat(
      "  ", result.test, "(", result.variant, "): resilience: ",
      gbo.files_quarantined, " files quarantined, ",
      gbo.reads_short_circuited, " reads short-circuited, ",
      result.salvaged_datasets, " datasets salvaged from ",
      result.torn_writes, " torn writes\n");
  for (const std::string& path : result.quarantined_files) {
    out += StrCat("    quarantined: ", path, "\n");
  }
  return out;
}

void PrintResilience(const CellResult& result) {
  std::string text = FormatResilience(result);
  if (!text.empty()) std::printf("%s", text.c_str());
}

}  // namespace godiva::workloads
