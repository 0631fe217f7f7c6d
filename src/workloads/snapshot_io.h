// Snapshot input paths for the three Voyager variants:
//  - MakeSnapshotReadFn: the developer-supplied GODIVA read function (G/TG)
//    that loads one snapshot unit — mesh plus the union of test quantities
//    (BlockDatasets) — into the database exactly once, through one of the
//    two file loaders below.
//  - LoadFilePerDataset: one file's blocks, one read per dataset (the
//    paper's access pattern).
//  - LoadFileBatch: one file's blocks through a single gsdf ReadBatch,
//    shared by the coalescing read function and the query layer's
//    per-file units.
//  - ReadPassDirect: the original Voyager's coupled read (O), invoked once
//    per render pass, re-reading the coordinate arrays each time (the
//    redundancy GODIVA eliminates; paper §4.2).
// The two file loaders read exactly the datasets they are given: a caller
// that wants the mesh geometry lists x, y, z and conn like any other
// field.
#ifndef GODIVA_WORKLOADS_SNAPSHOT_IO_H_
#define GODIVA_WORKLOADS_SNAPSHOT_IO_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/gbo.h"
#include "gsdf/reader.h"
#include "mesh/snapshot_writer.h"
#include "workloads/platform_runtime.h"

namespace godiva::workloads {

// What the snapshot read functions sharing it salvaged and coalesced.
// Owned by the caller; I/O pool threads add to it, hence relaxed atomics.
struct SnapshotReadCounters {
  // Files that needed a salvage open, and the datasets those opens
  // recovered.
  std::atomic<int64_t> torn_writes{0};
  std::atomic<int64_t> salvaged_datasets{0};
  // Dataset reads that per-file coalescing merged into a neighbour's
  // transfer.
  std::atomic<int64_t> coalesced_reads{0};
};

struct SnapshotReadOptions {
  // Verify every dataset against its stored __crc32 while loading (single
  // pass; no re-read). A mismatch surfaces as DATA_LOSS, which the default
  // RetryPolicy treats as retryable — a re-read of a torn file often
  // succeeds, and a persistent mismatch fails the unit permanently.
  bool verify_checksums = false;

  // When a snapshot file fails to open with DATA_LOSS (torn footer or a
  // directory CRC mismatch), reopen it with gsdf::Reader::OpenSalvage and
  // serve whatever checksum-valid datasets survive (counted in
  // `counters`). A block whose required datasets did not survive still
  // fails the unit with DATA_LOSS.
  bool salvage = false;

  // Per-file coalescing: gather each file's datasets into one
  // gsdf::Reader::ReadBatch, which merges adjacent payloads into single
  // transfers (one seek per run instead of one per dataset). Off by
  // default — the per-dataset path is the paper's access pattern and the
  // byte-for-byte baseline. Merged-away reads are counted in `counters`.
  // Incompatible with salvage readers only in the sense that missing
  // datasets fail the batch exactly as they fail the per-dataset path.
  bool coalesce = false;

  // Where the read function counts salvage opens and coalesced reads;
  // null counts nothing. Must outlive the read function.
  SnapshotReadCounters* counters = nullptr;
};

// Returns a read function that loads the unit named "snap_NNNN": for each
// of the snapshot's files, reads its block list, then loads those blocks
// with BlockDatasets(quantities) — x/y/z/conn, which Voyager's views need,
// and each quantity in `quantities` — through LoadFileBatch if
// options.coalesce, else LoadFilePerDataset. Charges decode CPU on the
// calling thread (the I/O thread under TG). Files are opened through
// runtime->io_env(), so a fault-injecting decorator set there is
// exercised.
Gbo::ReadFn MakeSnapshotReadFn(PlatformRuntime* runtime,
                               const mesh::SnapshotDataset* dataset,
                               const std::vector<std::string>& quantities,
                               SnapshotReadOptions options = {});

// Loads `blocks` of one snapshot file into the database, one read per
// dataset: for each block, creates its record and, for each name in
// `datasets` in turn, looks up the block's dataset of that name
// (mesh::BlockDatasetName), allocates the record field of the same name,
// reads it (CRC-verified if `verify`) and charges its decode CPU; then
// commits the record.
Status LoadFilePerDataset(PlatformRuntime* runtime,
                          const gsdf::Reader& reader,
                          const std::vector<int32_t>& blocks, int snapshot,
                          const std::vector<std::string>& datasets,
                          bool verify, Gbo* db);

// Loads `blocks` of one snapshot file into the database: creates each
// block record and the buffers of the fields named in `datasets`, gathers
// those datasets of every block into one ReadBatch with `options`, so the
// reader merges file-adjacent payloads into single transfers, charges
// decode CPU for the whole batch, and commits the records only after it
// landed (and verified). Adds the batch's merged-away reads to `counters`
// if non-null.
Status LoadFileBatch(PlatformRuntime* runtime, const gsdf::Reader& reader,
                     const std::vector<int32_t>& blocks, int snapshot,
                     const std::vector<std::string>& datasets,
                     const gsdf::BatchOptions& options,
                     SnapshotReadCounters* counters, Gbo* db);

// Plain buffers for the original Voyager's per-pass reads.
struct PlainBlock {
  int32_t block_id = 0;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  std::vector<int32_t> conn;  // filled only when include_conn was set
  std::map<std::string, std::vector<double>> fields;
};

// Reads coordinates (+connectivity if `include_conn`) and `quantities` for
// every block of `snapshot`, the way the original tool does on every pass.
// Returns blocks ordered by block id. Charges decode CPU inline.
Result<std::vector<PlainBlock>> ReadPassDirect(
    PlatformRuntime* runtime, const mesh::SnapshotDataset& dataset,
    int snapshot, const std::vector<std::string>& quantities,
    bool include_conn);

}  // namespace godiva::workloads

#endif  // GODIVA_WORKLOADS_SNAPSHOT_IO_H_
