// Experiment orchestration: owns the in-memory dataset files, wires up
// platform runtimes, runs (test × variant) cells, and derives the
// percentage metrics the paper reports.
#ifndef GODIVA_WORKLOADS_EXPERIMENT_H_
#define GODIVA_WORKLOADS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mesh/dataset_spec.h"
#include "mesh/snapshot_writer.h"
#include "sim/platform.h"
#include "sim/sim_env.h"
#include "workloads/voyager.h"

namespace godiva::workloads {

struct ExperimentOptions {
  mesh::DatasetSpec spec = mesh::DatasetSpec::TitanIV();
  // Real seconds per modeled second (0.002 → a 500 s paper run replays in
  // one second of wall time). Ignored in discrete-event mode, where
  // modeled time is free.
  double time_scale = 0.002;
  ProcessOptions process;
};

class Experiment {
 public:
  // Generates the dataset into an owned SimEnv (instant writes).
  static Result<std::unique_ptr<Experiment>> Create(
      const ExperimentOptions& options);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // Runs one cell on `profile`. Pass `with_competitor` to emulate the
  // paper's TG1 (a compute-bound process occupying one CPU).
  Result<CellResult> RunCell(const PlatformProfile& profile,
                             const VizTestSpec& test, Variant variant,
                             bool with_competitor = false);

  const mesh::SnapshotDataset& dataset() const { return dataset_; }
  const ExperimentOptions& options() const { return options_; }
  SimEnv* env() { return env_.get(); }

 private:
  explicit Experiment(const ExperimentOptions& options);

  ExperimentOptions options_;
  std::unique_ptr<SimEnv> env_;
  mesh::SnapshotDataset dataset_;
};

// (a − b) / a as a percentage; 0 when a == 0.
double PercentReduction(double a, double b);

}  // namespace godiva::workloads

#endif  // GODIVA_WORKLOADS_EXPERIMENT_H_
