#include "workloads/snapshot_query.h"

#include <cstdio>
#include <memory>
#include <span>
#include <utility>

#include "common/strings.h"
#include "core/record.h"
#include "gsdf/reader.h"
#include "workloads/block_schema.h"
#include "workloads/snapshot_io.h"

namespace godiva::workloads {
namespace {

// The dataset names one block contributes to a plan: mesh + quantities.
std::vector<std::string> BlockDatasetNames(
    int32_t block_id, const std::vector<std::string>& fields) {
  std::vector<std::string> names;
  names.reserve(4 + fields.size());
  names.push_back(mesh::BlockDatasetName(block_id, "x"));
  names.push_back(mesh::BlockDatasetName(block_id, "y"));
  names.push_back(mesh::BlockDatasetName(block_id, "z"));
  names.push_back(mesh::BlockDatasetName(block_id, "conn"));
  for (const std::string& field : fields) {
    names.push_back(mesh::BlockDatasetName(block_id, field));
  }
  return names;
}

// Blocks of file `file_index` clipped to the query's block range.
std::vector<int32_t> BlocksInRange(const mesh::DatasetSpec& spec,
                                   int file_index, int block_begin,
                                   int block_end) {
  std::vector<int32_t> blocks;
  for (int32_t block_id : mesh::BlocksInFile(spec, file_index)) {
    if (block_id < block_begin) continue;
    if (block_end >= 0 && block_id >= block_end) continue;
    blocks.push_back(block_id);
  }
  return blocks;
}

// The query's effective field list: requested quantities plus every
// kernel input, deduplicated in first-mention order.
std::vector<std::string> EffectiveFields(const SnapshotQueryOptions& options) {
  std::vector<std::string> fields;
  auto add = [&fields](const std::string& field) {
    for (const std::string& have : fields) {
      if (have == field) return;
    }
    fields.push_back(field);
  };
  for (const std::string& field : options.fields) add(field);
  for (const viz::DerivedKernel& kernel : options.kernels) {
    for (const std::string& input : kernel.inputs) add(input);
  }
  return fields;
}

// Read function of one (snapshot, file) unit: creates the block records,
// gathers every dataset of the per-file plan into field buffers, and pulls
// the lot through one ReadBatch with the plan's own gap/transfer limits —
// so the runs the executor issues are exactly the runs the plan counted.
Gbo::ReadFn MakeFileBatchReadFn(PlatformRuntime* runtime, std::string path,
                                int snapshot, std::vector<int32_t> blocks,
                                std::vector<std::string> fields, bool verify,
                                PlanLimits limits) {
  return [runtime, path = std::move(path), snapshot,
          blocks = std::move(blocks), fields = std::move(fields), verify,
          limits](Gbo* db, const std::string&) -> Status {
    GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<gsdf::Reader> reader,
                            gsdf::Reader::Open(runtime->io_env(), path));
    gsdf::BatchOptions batch_options;
    batch_options.max_gap = limits.max_gap;
    batch_options.max_transfer = limits.max_transfer;
    batch_options.verify = verify;
    return LoadFileBatch(runtime, *reader, blocks, snapshot, fields,
                         batch_options, /*counters=*/nullptr, db);
  };
}

// Push-down closure over every kernel: parses (snapshot, file) back out of
// the unit name, walks the unit's blocks, and runs each kernel over spans
// taken straight from the committed field buffers (no copies).
QueryPushdownFn MakeKernelPushdown(mesh::DatasetSpec spec, int block_begin,
                                   int block_end,
                                   std::vector<viz::DerivedKernel> kernels) {
  return [spec, block_begin, block_end, kernels = std::move(kernels)](
             Gbo* db, const std::string& unit_name,
             std::vector<DerivedResult>* out) -> Status {
    int snapshot = -1;
    int file_index = -1;
    if (!ParseSnapshotFileUnit(unit_name, &snapshot, &file_index)) {
      return InvalidArgumentError(
          StrCat("push-down on a non-query unit: ", unit_name));
    }
    for (int32_t block_id :
         BlocksInRange(spec, file_index, block_begin, block_end)) {
      GODIVA_ASSIGN_OR_RETURN(
          Record * record,
          db->FindRecord(kBlockRecordType, BlockKey(block_id, snapshot)));
      for (const viz::DerivedKernel& kernel : kernels) {
        std::vector<std::span<const double>> inputs;
        inputs.reserve(kernel.inputs.size());
        for (const std::string& input : kernel.inputs) {
          GODIVA_ASSIGN_OR_RETURN(void* buffer, record->FieldBuffer(input));
          GODIVA_ASSIGN_OR_RETURN(int64_t size,
                                  record->FieldBufferSize(input));
          inputs.emplace_back(static_cast<const double*>(buffer),
                              static_cast<size_t>(size / 8));
        }
        DerivedResult result;
        result.unit = unit_name;
        result.field = kernel.name;
        result.key = block_id;
        result.values = kernel.fn(inputs);
        out->push_back(std::move(result));
      }
    }
    return Status::Ok();
  };
}

}  // namespace

std::string SnapshotFileUnitName(int snapshot, int file_index) {
  return StrFormat("snap_%04d/f%02d", snapshot, file_index);
}

bool ParseSnapshotFileUnit(const std::string& unit_name, int* snapshot,
                           int* file_index) {
  return std::sscanf(unit_name.c_str(), "snap_%d/f%d", snapshot,
                     file_index) == 2;
}

Result<GboQuery> BuildSnapshotQuery(PlatformRuntime* runtime,
                                    const mesh::SnapshotDataset* dataset,
                                    const SnapshotQueryOptions& options) {
  if (dataset == nullptr) return InvalidArgumentError("dataset is null");
  const mesh::DatasetSpec& spec = dataset->spec;
  if (options.snapshot_begin >= options.snapshot_end) {
    return InvalidArgumentError("empty snapshot window");
  }
  if (options.snapshot_begin < 0 ||
      options.snapshot_end > spec.num_snapshots) {
    return InvalidArgumentError(
        StrCat("snapshot window [", options.snapshot_begin, ", ",
               options.snapshot_end, ") outside the dataset's ",
               spec.num_snapshots, " snapshots"));
  }
  const std::vector<std::string> fields = EffectiveFields(options);

  GboQuery query;
  query.deadline = options.deadline;
  for (int snapshot = options.snapshot_begin;
       snapshot < options.snapshot_end; ++snapshot) {
    const std::vector<std::string> paths = dataset->SnapshotFiles(snapshot);
    for (int f = 0; f < spec.files_per_snapshot; ++f) {
      std::vector<int32_t> blocks = BlocksInRange(
          spec, f, options.block_begin, options.block_end);
      if (blocks.empty()) continue;
      const std::string& path = paths[static_cast<size_t>(f)];
      // Describe every extent the unit needs — directory arithmetic, no
      // payload reads — and lay out the file's transfer runs. A warm
      // extents-cache entry skips the file open entirely.
      std::vector<PlanExtentItem> items;
      SnapshotExtentsCache* cache = options.extents_cache;
      if (cache != nullptr) {
        auto hit = cache->by_path.find(path);
        if (hit != cache->by_path.end() &&
            hit->second.fields == fields &&
            hit->second.block_begin == options.block_begin &&
            hit->second.block_end == options.block_end) {
          items = hit->second.items;
        }
      }
      if (items.empty()) {
        GODIVA_ASSIGN_OR_RETURN(
            std::unique_ptr<gsdf::Reader> reader,
            gsdf::Reader::Open(runtime->io_env(), path));
        for (int32_t block_id : blocks) {
          GODIVA_ASSIGN_OR_RETURN(
              std::vector<gsdf::DatasetExtent> extents,
              reader->DescribeExtents(BlockDatasetNames(block_id, fields)));
          for (gsdf::DatasetExtent& extent : extents) {
            items.push_back({path, std::move(extent.name), extent.offset,
                             extent.nbytes, block_id});
          }
        }
        if (cache != nullptr) {
          cache->by_path[path] = {fields, options.block_begin,
                                  options.block_end, items};
        }
      }
      std::vector<FileBatchPlan> plans =
          PlanFileBatches(std::move(items), options.limits);

      QueryUnitSpec unit;
      unit.name = SnapshotFileUnitName(snapshot, f);
      for (const FileBatchPlan& plan : plans) {
        unit.bytes += plan.payload_bytes;
      }
      unit.read_fn = MakeFileBatchReadFn(runtime, path, snapshot,
                                         std::move(blocks), fields,
                                         options.verify_checksums,
                                         options.limits);
      unit.resources = {path};
      query.units.push_back(std::move(unit));
    }
  }
  if (query.units.empty()) {
    return InvalidArgumentError("query selects no blocks");
  }
  if (!options.kernels.empty()) {
    query.pushdown = MakeKernelPushdown(spec, options.block_begin,
                                        options.block_end, options.kernels);
  }
  return query;
}

}  // namespace godiva::workloads
