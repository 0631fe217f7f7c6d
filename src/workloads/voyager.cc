#include "workloads/voyager.h"

#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/strings.h"
#include "core/gbo.h"
#include "core/options.h"
#include "core/record.h"
#include "workloads/block_schema.h"
#include "workloads/snapshot_io.h"

namespace godiva::workloads {
namespace {

constexpr double kMib = 1024.0 * 1024.0;

// The snapshot list a run processes (RunConfig::snapshots, or all).
std::vector<int> SnapshotsToProcess(const RunConfig& config) {
  if (!config.snapshots.empty()) return config.snapshots;
  std::vector<int> all(
      static_cast<size_t>(config.dataset->spec.num_snapshots));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return all;
}

// ProcessPass indexes y, z and every field of a view by node id, and the
// node arrays by the ids in conn: DATA_LOSS unless each has x's length
// and every conn id names one of x's nodes.
Status CheckBlockView(const BlockView& view, int snapshot) {
  const viz::BlockGeometry& geometry = view.geometry;
  const size_t nodes = geometry.x.size();
  auto wrong_length = [&](std::string_view field, size_t size) {
    return DataLossError(StrCat("snapshot ", snapshot, " block ",
                                view.block_id, ": field ", field, " holds ",
                                size, " values, x holds ", nodes));
  };
  if (geometry.y.size() != nodes) {
    return wrong_length(kFieldY, geometry.y.size());
  }
  if (geometry.z.size() != nodes) {
    return wrong_length(kFieldZ, geometry.z.size());
  }
  for (const auto& [field, values] : view.fields) {
    if (values.size() != nodes) return wrong_length(field, values.size());
  }
  // One pass, no early exit, so the compiler can vectorize it.
  bool ids_in_range = true;
  for (int32_t id : geometry.conn) {
    ids_in_range &= static_cast<uint32_t>(id) < nodes;
  }
  if (!ids_in_range) {
    return DataLossError(StrCat("snapshot ", snapshot, " block ",
                                view.block_id, ": field conn holds a node "
                                "id outside x's ", nodes, " nodes"));
  }
  return Status::Ok();
}

// Charges the modeled data-processing cost of one pass.
void ChargePassCompute(PlatformRuntime* runtime, const VizTestSpec& test,
                       const PassResult& pass_result) {
  runtime->ChargeCompute(test.compute_seconds_per_mib *
                         static_cast<double>(pass_result.bytes_processed) /
                         kMib);
}

// ----- O: original Voyager -----

Status RunOriginal(PlatformRuntime* runtime, const RunConfig& config,
                   TimeAccumulator* visible_io, CellResult* result) {
  const mesh::SnapshotDataset& dataset = *config.dataset;
  for (int snapshot : SnapshotsToProcess(config)) {
    // Connectivity is read on the snapshot's first pass and kept; the
    // coordinate arrays are re-read by every pass (the redundancy GODIVA
    // removes).
    std::map<int32_t, std::vector<int32_t>> conn_by_block;
    for (size_t pass_index = 0; pass_index < config.test.passes.size();
         ++pass_index) {
      const RenderPass& pass = config.test.passes[pass_index];
      std::vector<PlainBlock> blocks;
      {
        ScopedTimer timer(visible_io);
        Result<std::vector<PlainBlock>> blocks_or =
            ReadPassDirect(runtime, dataset, snapshot, pass.quantities,
                           /*include_conn=*/pass_index == 0);
        if (!blocks_or.ok()) {
          if (!config.skip_failed_snapshots) return blocks_or.status();
          result->skipped.push_back({snapshot, blocks_or.status()});
          break;  // abandon this snapshot, continue with the next one
        }
        blocks = std::move(blocks_or).value();
      }
      if (pass_index == 0) {
        for (PlainBlock& block : blocks) {
          conn_by_block[block.block_id] = std::move(block.conn);
        }
      }
      std::vector<BlockView> views;
      views.reserve(blocks.size());
      for (const PlainBlock& block : blocks) {
        BlockView view;
        view.block_id = block.block_id;
        const std::vector<int32_t>& conn = conn_by_block[block.block_id];
        view.geometry =
            viz::BlockGeometry{block.x, block.y, block.z, conn};
        for (const auto& [name, values] : block.fields) {
          view.fields[name] = values;
        }
        GODIVA_RETURN_IF_ERROR(CheckBlockView(view, snapshot));
        views.push_back(std::move(view));
      }
      GODIVA_ASSIGN_OR_RETURN(PassResult pass_result,
                              ProcessPass(pass, views, config.process));
      ChargePassCompute(runtime, config.test, pass_result);
      result->triangles += pass_result.triangles;
      result->tets_visited += pass_result.tets_visited;
    }
  }
  return Status::Ok();
}

// ----- G / TG: Voyager with GODIVA -----

// Builds render views straight over the GODIVA field buffers: no copies,
// the mesh is read once per snapshot no matter how many passes use it.
// DATA_LOSS for a block CheckBlockView refuses.
Result<std::vector<BlockView>> BuildSnapshotViews(
    Gbo* db, const mesh::SnapshotDataset& dataset, int snapshot,
    const std::vector<std::string>& quantities) {
  std::vector<BlockView> views;
  views.reserve(static_cast<size_t>(dataset.spec.num_blocks));
  for (int32_t block_id = 0; block_id < dataset.spec.num_blocks;
       ++block_id) {
    std::vector<std::string> key = BlockKey(block_id, snapshot);
    GODIVA_ASSIGN_OR_RETURN(Record * record,
                            db->FindRecord(kBlockRecordType, key));
    BlockView view;
    view.block_id = block_id;
    auto dspan = [&](const char* field) -> Result<std::span<const double>> {
      GODIVA_ASSIGN_OR_RETURN(void* buffer, record->FieldBuffer(field));
      GODIVA_ASSIGN_OR_RETURN(int64_t size, record->FieldBufferSize(field));
      return std::span<const double>(static_cast<const double*>(buffer),
                                     static_cast<size_t>(size / 8));
    };
    GODIVA_ASSIGN_OR_RETURN(std::span<const double> x, dspan(kFieldX));
    GODIVA_ASSIGN_OR_RETURN(std::span<const double> y, dspan(kFieldY));
    GODIVA_ASSIGN_OR_RETURN(std::span<const double> z, dspan(kFieldZ));
    GODIVA_ASSIGN_OR_RETURN(void* conn_buffer,
                            record->FieldBuffer(kFieldConn));
    GODIVA_ASSIGN_OR_RETURN(int64_t conn_size,
                            record->FieldBufferSize(kFieldConn));
    view.geometry = viz::BlockGeometry{
        x, y, z,
        std::span<const int32_t>(static_cast<const int32_t*>(conn_buffer),
                                 static_cast<size_t>(conn_size / 4))};
    for (const std::string& quantity : quantities) {
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> values,
                              dspan(quantity.c_str()));
      view.fields[quantity] = values;
    }
    GODIVA_RETURN_IF_ERROR(CheckBlockView(view, snapshot));
    views.push_back(std::move(view));
  }
  return views;
}

Status RunGodiva(PlatformRuntime* runtime, const RunConfig& config,
                 CellResult* result) {
  const mesh::SnapshotDataset& dataset = *config.dataset;
  GboOptions options;
  options.background_io = (config.variant == Variant::kGodivaMultiThread);
  options.io_threads = config.io_threads;
  options.memory_limit_bytes = config.godiva_memory_bytes;
  options.retry = config.retry;
  options.quarantine_threshold = config.quarantine_threshold;
  // Declared before the database so it outlives the pool threads that
  // run the read function.
  SnapshotReadCounters counters;
  Gbo db(options);
  GODIVA_RETURN_IF_ERROR(DefineBlockSchema(&db));

  std::vector<std::string> quantities = config.test.AllQuantities();
  Gbo::ReadFn read_fn = MakeSnapshotReadFn(
      runtime, &dataset, quantities,
      SnapshotReadOptions{.verify_checksums = config.verify_checksums,
                          .salvage = config.salvage,
                          .coalesce = config.coalesce_reads,
                          .counters = &counters});

  // Batch mode: announce every unit up front, in processing order. Each
  // unit declares the snapshot files it reads so the per-file circuit
  // breaker can quarantine a persistently failing file.
  std::vector<int> snapshots = SnapshotsToProcess(config);
  for (int snapshot : snapshots) {
    GODIVA_RETURN_IF_ERROR(db.AddUnit(SnapshotUnitName(snapshot), read_fn,
                                      dataset.SnapshotFiles(snapshot)));
  }

  for (int snapshot : snapshots) {
    std::string unit = SnapshotUnitName(snapshot);
    Status wait = db.WaitUnit(unit);
    if (!wait.ok()) {
      if (!config.skip_failed_snapshots) return wait;
      // Prefer the unit's own terminal error (the one that exhausted the
      // retry policy) over the wait status when both exist.
      Status cause = db.GetUnitError(unit);
      result->skipped.push_back({snapshot, cause.ok() ? wait : cause});
      // Best-effort drop of the failed unit's bookkeeping; the sweep moves
      // on whether or not the delete succeeds.
      // lint: discard_ok(best-effort drop; see comment above)
      (void)db.DeleteUnit(unit);
      continue;
    }

    GODIVA_ASSIGN_OR_RETURN(
        std::vector<BlockView> views,
        BuildSnapshotViews(&db, dataset, snapshot, quantities));

    for (const RenderPass& pass : config.test.passes) {
      GODIVA_ASSIGN_OR_RETURN(PassResult pass_result,
                              ProcessPass(pass, views, config.process));
      ChargePassCompute(runtime, config.test, pass_result);
      result->triangles += pass_result.triangles;
      result->tets_visited += pass_result.tets_visited;
    }

    // Batch mode knows the data will not be revisited (paper §3.2).
    GODIVA_RETURN_IF_ERROR(db.DeleteUnit(unit));
  }
  result->gbo = db.stats();
  result->quarantined_files = db.QuarantinedFiles();
  result->torn_writes = counters.torn_writes.load();
  result->salvaged_datasets = counters.salvaged_datasets.load();
  result->coalesced_reads = counters.coalesced_reads.load();
  return Status::Ok();
}

}  // namespace

std::string_view VariantName(Variant variant) {
  switch (variant) {
    case Variant::kOriginal:
      return "O";
    case Variant::kGodivaSingleThread:
      return "G";
    case Variant::kGodivaMultiThread:
      return "TG";
  }
  return "?";
}

Result<CellResult> RunVoyager(PlatformRuntime* runtime,
                              const RunConfig& config) {
  if (config.dataset == nullptr) {
    return InvalidArgumentError("RunConfig.dataset is null");
  }
  CellResult result;
  result.test = config.test.name;
  result.variant = std::string(VariantName(config.variant));
  result.platform = runtime->profile().name;

  runtime->env()->ResetStats();
  Stopwatch total;
  TimeAccumulator visible_io;
  if (config.variant == Variant::kOriginal) {
    GODIVA_RETURN_IF_ERROR(
        RunOriginal(runtime, config, &visible_io, &result));
  } else {
    GODIVA_RETURN_IF_ERROR(RunGodiva(runtime, config, &result));
  }
  double wall_total = total.ElapsedSeconds();
  double wall_visible = (config.variant == Variant::kOriginal)
                            ? visible_io.TotalSeconds()
                            : result.gbo.visible_io_seconds;

  // Mode-aware: divides by the compression scale under scaled sleep, and
  // is the identity in discrete-event mode (the "wall" clock there is
  // already the uncompressed virtual clock).
  const TimeScale& scale = runtime->scale();
  result.total_seconds = scale.WallToModeledSeconds(FromSeconds(wall_total));
  result.visible_io_seconds =
      scale.WallToModeledSeconds(FromSeconds(wall_visible));
  result.computation_seconds =
      result.total_seconds - result.visible_io_seconds;

  DiskStats disk = runtime->env()->stats();
  result.bytes_read = disk.bytes_read;
  result.reads = disk.reads;
  result.seeks = disk.seeks;
  result.disk_modeled_seconds = disk.modeled_read_seconds;
  return result;
}

}  // namespace godiva::workloads
