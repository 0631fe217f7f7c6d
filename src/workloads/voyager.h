// The three Voyager builds of the paper's evaluation (§4.2):
//   O  — the original implementation: reading and processing are coupled;
//        every render pass re-reads the coordinate data it needs.
//   G  — Voyager with the single-thread GODIVA library: one read per
//        snapshot unit (redundant reads eliminated), no background I/O.
//   TG — Voyager with the multi-thread GODIVA library: as G, plus all
//        units added up front and prefetched by the background I/O thread.
#ifndef GODIVA_WORKLOADS_VOYAGER_H_
#define GODIVA_WORKLOADS_VOYAGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "core/stats.h"
#include "mesh/snapshot_writer.h"
#include "workloads/platform_runtime.h"
#include "workloads/processing.h"
#include "workloads/test_spec.h"

namespace godiva::workloads {

enum class Variant {
  kOriginal,           // O
  kGodivaSingleThread, // G
  kGodivaMultiThread,  // TG
};

std::string_view VariantName(Variant variant);

struct RunConfig {
  const mesh::SnapshotDataset* dataset = nullptr;
  VizTestSpec test;
  Variant variant = Variant::kOriginal;
  // GODIVA database memory (paper: 384 MB on both platforms).
  int64_t godiva_memory_bytes = int64_t{384} * 1024 * 1024;
  ProcessOptions process;
  // Snapshots to process, in order; empty = all snapshots. Used by the
  // parallel experiment to partition the workload across processes the
  // way Voyager does ("assigning different processors different snapshots
  // to process").
  std::vector<int> snapshots;

  // --- Fault tolerance (G/TG variants; O has no retry layer) ---

  // Unit-read retry policy handed to the GODIVA database.
  RetryPolicy retry = {};
  // CRC-check every dataset while loading; corruption surfaces as a
  // retryable DATA_LOSS instead of silently wrong pixels.
  bool verify_checksums = false;
  // On a permanent unit failure, record the snapshot in
  // CellResult::skipped and keep rendering the remaining frames instead of
  // aborting the sweep. Also honored by the O variant (per-snapshot skip).
  bool skip_failed_snapshots = false;
  // Reopen structurally torn snapshot files (DATA_LOSS on open) with the
  // gsdf salvage scanner and serve the checksum-valid datasets that
  // survive. See SnapshotReadOptions::salvage.
  bool salvage = false;
  // Per-file circuit breaker handed to GboOptions::quarantine_threshold:
  // after this many permanent unit failures against the same snapshot
  // file, further units touching it fail fast (DATA_LOSS) without invoking
  // their read functions. 0 disables.
  int quarantine_threshold = 3;

  // --- I/O pool (TG variant; ignored by O/G) ---

  // Background I/O threads handed to GboOptions::io_threads. 1 is the
  // paper's TG library; > 1 enables the demand-priority pool, which pays
  // off on storage with queue_depth > 1.
  int io_threads = 1;
  // Per-file read coalescing inside the snapshot read function
  // (SnapshotReadOptions::coalesce): merge file-adjacent datasets into
  // single transfers.
  bool coalesce_reads = false;
};

// One cell of Figure 3: times in modeled seconds (wall time divided by the
// platform's time scale).
struct CellResult {
  std::string test;
  std::string variant;
  std::string platform;

  double total_seconds = 0;
  double visible_io_seconds = 0;
  double computation_seconds = 0;  // total − visible I/O (paper definition)

  // Storage-level counters (from the simulated disk).
  int64_t bytes_read = 0;
  int64_t reads = 0;
  int64_t seeks = 0;
  double disk_modeled_seconds = 0;

  // Processing counters.
  int64_t triangles = 0;
  int64_t tets_visited = 0;

  // Snapshots abandoned under RunConfig::skip_failed_snapshots, with the
  // error that exhausted the retry policy (or the deadline expiry). Empty
  // on a clean run.
  struct SkippedSnapshot {
    int snapshot = -1;
    Status error;
  };
  std::vector<SkippedSnapshot> skipped;

  // Snapshot files the per-file circuit breaker quarantined during the
  // run (sorted). Empty unless reads failed permanently enough times.
  std::vector<std::string> quarantined_files;

  // The snapshot read function's SnapshotReadCounters (zeros for O).
  int64_t torn_writes = 0;        // files that needed a salvage open
  int64_t salvaged_datasets = 0;  // datasets those opens recovered
  int64_t coalesced_reads = 0;    // dataset reads coalescing merged away

  GboStats gbo;  // zeros for the O variant
};

// Runs one (test, variant) cell over the dataset resident in the runtime's
// env. Deterministic apart from scheduling noise.
Result<CellResult> RunVoyager(PlatformRuntime* runtime,
                              const RunConfig& config);

}  // namespace godiva::workloads

#endif  // GODIVA_WORKLOADS_VOYAGER_H_
