#include "workloads/experiment.h"

#include <memory>
#include <optional>

#include "sim/sim_cpu.h"
#include "workloads/platform_runtime.h"

namespace godiva::workloads {

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

Result<CellResult> Experiment::RunCell(const PlatformProfile& profile,
                                       const VizTestSpec& test,
                                       Variant variant,
                                       bool with_competitor) {
  PlatformRuntime runtime(profile, options_.time_scale, env_.get());
  std::optional<CompetitorLoad> competitor;
  if (with_competitor) competitor.emplace(runtime.cpu());

  RunConfig config;
  config.dataset = &dataset_;
  config.test = test;
  config.variant = variant;
  config.process = options_.process;
  return RunVoyager(&runtime, config);
}

double PercentReduction(double a, double b) {
  if (a == 0) return 0;
  return 100.0 * (a - b) / a;
}

}  // namespace godiva::workloads
