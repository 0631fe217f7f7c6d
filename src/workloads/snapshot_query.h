// Expands a declarative "fields × blocks × snapshot window" request over
// the snapshot dataset into a GboQuery (core/query.h, DESIGN.md §15):
// one unit per (snapshot, file) whose payload bytes are summed from the
// file's directory at plan time (no payload I/O), loaded by a read
// function that pulls all of the unit's datasets through one
// gsdf::Reader::ReadBatch, which alone splits them into transfers. The
// reader that sized a unit at plan time is handed to its first load, so
// that load issues only ReadBatch's payload transfers. A unit loads
// exactly the fields its query names: derived-field kernels
// (viz/pushdown.h) fold their input fields into the same units and run as
// push-down on each unit as it lands, and nothing else rides along.
#ifndef GODIVA_WORKLOADS_SNAPSHOT_QUERY_H_
#define GODIVA_WORKLOADS_SNAPSHOT_QUERY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/query.h"
#include "gsdf/reader.h"
#include "mesh/snapshot_writer.h"
#include "sim/env.h"
#include "viz/pushdown.h"
#include "workloads/platform_runtime.h"

namespace godiva::workloads {

// One query unit per (snapshot, file): "snap_0005/f03". Stays under the
// legacy per-snapshot prefix ("snap_0005…"), so a session namespace that
// covers snapshot units covers query units too.
std::string SnapshotFileUnitName(int snapshot, int file_index);

// Parses a SnapshotFileUnitName; false on mismatch.
bool ParseSnapshotFileUnit(const std::string& unit_name, int* snapshot,
                           int* file_index);

// Reuses plan-time directory work across overlapping windows: sizing a
// file's unit opens it and reads its directory, and a sliding snapshot
// window would otherwise re-open the same files W-1 more times. Keyed by
// file path; an entry is only reused when it was built for the same field
// set and block range through the same io env (anything else re-opens and
// overwrites). Each entry keeps the file's reader, so later plans and
// every unit they load read through it without re-opening the file: one
// open file handle per entry, until the entry is dropped or the cache is
// destroyed. A cached reader reads through the Env it was opened with,
// which must outlive the cache's last use. The caller owns the cache and
// must drop a file's entry if the file is rewritten underneath it (live
// ingest); that also drops its reader, which would keep serving the old
// bytes.
struct SnapshotExtentsCache {
  struct Entry {
    std::vector<std::string> fields;
    int block_begin = 0;
    int block_end = -1;
    // The unit's payload bytes: its blocks' datasets of `fields`.
    int64_t bytes = 0;
    // The reader that sized the unit, opened through `env`.
    std::shared_ptr<const gsdf::Reader> reader;
    Env* env = nullptr;
  };
  std::map<std::string, Entry> by_path;
};

struct SnapshotQueryOptions {
  // Block fields to load: any block dataset may be named, quantities and
  // mesh geometry (x, y, z, conn) alike, and only the named ones (plus
  // kernel inputs, folded in automatically) are read.
  std::vector<std::string> fields;

  // Block range [block_begin, block_end); block_end = -1 means all blocks.
  int block_begin = 0;
  int block_end = -1;

  // Snapshot window [snapshot_begin, snapshot_end).
  int snapshot_begin = 0;
  int snapshot_end = 1;

  // Derived-field kernels pushed down onto each unit as it lands.
  std::vector<viz::DerivedKernel> kernels;

  // CRC-verify every dataset while loading (single pass, DATA_LOSS on
  // mismatch — same contract as SnapshotReadOptions::verify_checksums).
  bool verify_checksums = false;

  // Run-split thresholds of each unit's ReadBatch.
  gsdf::BatchLimits limits;

  // Query deadline (GboQuery::deadline); zero = none.
  Duration deadline = Duration::zero();

  // Optional plan-time directory cache (see SnapshotExtentsCache).
  SnapshotExtentsCache* extents_cache = nullptr;
};

// Builds the GboQuery: units carry plan-time payload bytes of the named
// fields (for dedup's bytes-saved accounting), per-file read functions,
// and the file as their quarantine resource. Opens each window file not
// in the extents cache once to size its unit — directory I/O only, no
// payloads — and fails with that open's status if it fails.
// INVALID_ARGUMENT on an empty window, an out-of-range snapshot or a
// query that names no field and no kernel; NOT_FOUND on an unknown
// dataset name.
//
// A unit's read function loads through the reader that sized the unit
// and drops it after that first call; a later call (a retry, or a reload
// through a copy of the read function) opens the file again. So without a
// cache no file handle outlives a unit's first load (or, for a unit that
// dedup satisfies, the plan; for one deleted unloaded, its deletion), and
// with one none outlives the cache.
//
// The query's push-down closure checks every consumed unit: a block record
// that lacks a named field (a resident unit an earlier query loaded with
// other fields, which dedup pins by name) fails that unit with
// FAILED_PRECONDITION naming the unit, the block and the field, and the
// unit yields no derived values.
Result<GboQuery> BuildSnapshotQuery(PlatformRuntime* runtime,
                                    const mesh::SnapshotDataset* dataset,
                                    const SnapshotQueryOptions& options);

}  // namespace godiva::workloads

#endif  // GODIVA_WORKLOADS_SNAPSHOT_QUERY_H_
