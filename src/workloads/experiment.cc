#include "workloads/experiment.h"

#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/sim_cpu.h"
#include "workloads/platform_runtime.h"

namespace godiva::workloads {
namespace {

Measurement Summarize(const std::vector<double>& samples) {
  Measurement m;
  if (samples.empty()) return m;
  double sum = 0;
  for (double s : samples) sum += s;
  m.mean = sum / static_cast<double>(samples.size());
  if (samples.size() < 2) return m;
  double ss = 0;
  for (double s : samples) ss += (s - m.mean) * (s - m.mean);
  double stddev =
      std::sqrt(ss / static_cast<double>(samples.size() - 1));
  // 95% CI half-width with the normal approximation.
  m.ci95 = 1.96 * stddev / std::sqrt(static_cast<double>(samples.size()));
  return m;
}

}  // namespace

Experiment::Experiment(const ExperimentOptions& options)
    : options_(options) {}

Result<std::unique_ptr<Experiment>> Experiment::Create(
    const ExperimentOptions& options) {
  auto experiment = std::unique_ptr<Experiment>(new Experiment(options));
  // Writes are instant (no time scale yet) — generation is setup, not a
  // measured phase.
  experiment->env_ = std::make_unique<SimEnv>(SimEnv::Options{});
  GODIVA_ASSIGN_OR_RETURN(
      experiment->dataset_,
      mesh::WriteSnapshotDataset(experiment->env_.get(), options.spec,
                                 "dataset"));
  return experiment;
}

Result<AggregatedCell> Experiment::RunCell(const PlatformProfile& profile,
                                           const VizTestSpec& test,
                                           Variant variant,
                                           bool with_competitor) {
  AggregatedCell aggregated;
  std::vector<double> totals;
  std::vector<double> visibles;
  std::vector<double> computations;
  for (int rep = 0; rep < options_.repetitions; ++rep) {
    PlatformRuntime runtime(profile, options_.time_scale, env_.get());
    std::optional<CompetitorLoad> competitor;
    if (with_competitor) competitor.emplace(runtime.cpu());

    RunConfig config;
    config.dataset = &dataset_;
    config.test = test;
    config.variant = variant;
    config.process = options_.process;
    GODIVA_ASSIGN_OR_RETURN(CellResult cell, RunVoyager(&runtime, config));
    totals.push_back(cell.total_seconds);
    visibles.push_back(cell.visible_io_seconds);
    computations.push_back(cell.computation_seconds);
    aggregated.last = std::move(cell);
  }
  aggregated.total_seconds = Summarize(totals);
  aggregated.visible_io_seconds = Summarize(visibles);
  aggregated.computation_seconds = Summarize(computations);
  return aggregated;
}

double PercentReduction(double a, double b) {
  if (a == 0) return 0;
  return 100.0 * (a - b) / a;
}

}  // namespace godiva::workloads
