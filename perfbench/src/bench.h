// Shared vocabulary of the benchmark runner: one repetition's outcome, the
// workload interface, and the probes that time calls into the GODIVA
// layers from outside (an Env decorator for gsdf file reads and a wrapper
// for Gbo read functions).
#ifndef GODIVA_PERFBENCH_BENCH_H_
#define GODIVA_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/gbo.h"
#include "mesh/dataset_spec.h"
#include "mesh/snapshot_writer.h"
#include "sim/env.h"
#include "sim/event_scheduler.h"
#include "sim/sim_env.h"
#include "trace.h"

namespace perfbench {

// The outcome of one repetition of a workload's measured phase. Host
// fields come from steady_clock; everything else is exact under the
// discrete-event scheduler and must repeat byte for byte for a given seed,
// traced or not.
struct RepResult {
  // --- host (wall seconds on this machine).
  double host_s = 0;
  int64_t window_start_ns = 0;  // trace::HostNowNs() bounds of the phase
  int64_t window_end_ns = 0;

  // --- modeled (virtual clock).
  double modeled_s = 0;
  double visible_io_s = 0;
  std::vector<double> latency_ms;  // one sample per request

  // --- exact counts.
  int64_t ops = 0;        // completed requests
  int64_t attempted = 0;  // requests issued
  int64_t refused = 0;    // refused by admission control (not errors)
  int64_t failed = 0;     // ended in an error
  // Per-layer counts, keyed by their metric name (e.g. "gsdf.read_calls").
  std::map<std::string, double> counts;
  godiva::SchedulerStats sched;

  // Every exact field, printed with full precision: equal strings mean
  // byte-identical modeled metrics and counts.
  std::string Fingerprint() const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  // Generates the workload's inputs from `seed` (the timed set-up phase).
  // May run several times; each call replaces the previous inputs with
  // identical ones.
  virtual godiva::Status Setup(uint64_t seed) = 0;

  // How many times the set-up runs; setup_s is the median.
  virtual int setup_runs() const { return 3; }

  // One-time correctness checks of the first repetition against a
  // reference implementation run on the same inputs.
  virtual godiva::Status CheckReference(const RepResult& first) = 0;

  // One repetition of the measured phase, inside a DiscreteEventScope of
  // its own. Verifies the outputs it produces; any mismatch is an error.
  virtual godiva::Result<RepResult> RunOnce() = 0;

  // Lines describing the generated inputs (printed once).
  virtual std::string Describe() const = 0;
};

std::unique_ptr<Workload> MakeBatchMovie();
std::unique_ptr<Workload> MakeWindowQuery();
std::unique_ptr<Workload> MakeLiveServing();

// --- inputs shared by the two snapshot-dataset workloads.

// The paper's TitanIV dataset shape with per-dataset checksums, drawn from
// `seed`: the axial resolution nz within +-2 of the base shape's (so every
// modeled byte count moves a little with the seed) and the time base dt
// within +-10% (so every field value, and every isosurface, moves).
// `factor` < 1 scales the mesh down like DatasetSpec::TitanIVScaled.
godiva::mesh::DatasetSpec SeededTitanIV(uint64_t seed, int snapshots,
                                        double factor = 1.0);

struct DatasetInputs {
  std::unique_ptr<godiva::SimEnv> env;  // in-memory files, DE disk model
  godiva::mesh::SnapshotDataset dataset;
  int64_t nodes_per_snapshot = 0;  // summed over blocks, as stored
};

// Generates the mesh and writes every snapshot through the gsdf writer
// into a fresh SimEnv, inside a "mesh.write" span.
godiva::Result<DatasetInputs> WriteDataset(
    const godiva::mesh::DatasetSpec& spec);

// --- probes.

// Counts and times every file read the workload issues. Installed with
// PlatformRuntime::SetIoEnv over the simulated disk's env, so gsdf sees
// it as its Env; "gsdf.open" spans cover NewRandomAccessFile and
// "gsdf.read" spans cover each positioned read.
class ProbeEnv final : public godiva::Env {
 public:
  explicit ProbeEnv(godiva::Env* base) : base_(base) {}

  godiva::Result<std::unique_ptr<godiva::WritableFile>> NewWritableFile(
      const std::string& path) override;
  godiva::Result<std::unique_ptr<godiva::RandomAccessFile>>
  NewRandomAccessFile(const std::string& path) override;
  bool FileExists(const std::string& path) const override;
  godiva::Result<int64_t> GetFileSize(const std::string& path) const override;
  godiva::Status DeleteFile(const std::string& path) override;
  godiva::Status RenameFile(const std::string& from,
                            const std::string& to) override;
  godiva::Result<std::vector<std::string>> ListFiles(
      const std::string& prefix) const override;

  int64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  int64_t opens() const { return opens_.load(std::memory_order_relaxed); }

 private:
  friend class ProbeFile;

  godiva::Env* base_;
  std::atomic<int64_t> reads_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> opens_{0};
};

// Appends the file reads `probe` saw and the simulated disk's counters to
// `counts`; INTERNAL if the two disagree on the number of reads.
godiva::Status AddIoCounts(const ProbeEnv& probe,
                           const godiva::DiskStats& disk,
                           std::map<std::string, double>* counts);

// Wraps a Gbo read function in a "core.gbo.readfn" span and a call count.
// `request_of` maps the unit name to the request id stamped on the span
// (and on every gsdf span under it); may be empty.
godiva::Gbo::ReadFn WrapReadFn(
    godiva::Gbo::ReadFn inner, std::atomic<int64_t>* calls,
    std::function<int64_t(const std::string&)> request_of);

}  // namespace perfbench

#endif  // GODIVA_PERFBENCH_BENCH_H_
