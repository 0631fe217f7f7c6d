// ASCII reporting helpers for the benchmark harnesses: Figure-3-style
// stacked-bar tables and paper-vs-measured comparison rows.
#ifndef GODIVA_WORKLOADS_REPORT_H_
#define GODIVA_WORKLOADS_REPORT_H_

#include <string>
#include <vector>

#include "workloads/experiment.h"

namespace godiva::workloads {

// One labelled bar of a Figure-3 chart.
struct BarRow {
  std::string label;  // e.g. "simple(TG)"
  double computation_seconds = 0;
  double visible_io_seconds = 0;
};

// Prints:
//   label            computation   visible I/O     total
//   simple(O)              312.4         101.3     413.7
// plus an ASCII stacked bar per row.
void PrintFigure(const std::string& title, const std::vector<BarRow>& rows);

// Prints a "paper vs measured" comparison line, e.g.
//   I/O volume reduction, medium        paper 24.0%   measured 25.2%
void PrintComparison(const std::string& metric, double paper_value,
                     double measured_value, const std::string& unit = "%");

// Prints the snapshots a degraded run abandoned and why, e.g.
//   simple(TG): skipped 1/8 snapshots
//     snapshot 3: DATA_LOSS: ... checksum mismatch ...
// No-op when nothing was skipped.
void PrintSkipped(const CellResult& result, int snapshots_processed);

// Formats the corruption-resilience counters of one cell, e.g.
//   simple(TG): resilience: 1 file quarantined, 3 reads short-circuited,
//   5 datasets salvaged from 1 torn write
//     quarantined: /data/snap_0003.gsdf
// Returns "" when every counter is zero and no file is quarantined, so
// clean runs stay silent. Separated from PrintResilience for testability.
std::string FormatResilience(const CellResult& result);

// Prints FormatResilience(result) when non-empty.
void PrintResilience(const CellResult& result);

// Section header.
void PrintHeader(const std::string& title);

}  // namespace godiva::workloads

#endif  // GODIVA_WORKLOADS_REPORT_H_
