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

// Payload bytes of one (snapshot, file) unit: the directory sizes of every
// dataset of its blocks. Opens the file and reads no payload, unless the
// query's extents cache holds the total for the same fields and block
// range.
Result<int64_t> FileUnitBytes(PlatformRuntime* runtime,
                              const SnapshotQueryOptions& options,
                              const std::string& path,
                              const std::vector<int32_t>& blocks,
                              const std::vector<std::string>& fields) {
  SnapshotExtentsCache* cache = options.extents_cache;
  if (cache != nullptr) {
    auto hit = cache->by_path.find(path);
    if (hit != cache->by_path.end() && hit->second.fields == fields &&
        hit->second.block_begin == options.block_begin &&
        hit->second.block_end == options.block_end) {
      return hit->second.bytes;
    }
  }
  GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<gsdf::Reader> reader,
                          gsdf::Reader::Open(runtime->io_env(), path));
  const std::vector<std::string> datasets = BlockDatasets(fields);
  int64_t bytes = 0;
  for (int32_t block_id : blocks) {
    for (const std::string& field : datasets) {
      GODIVA_ASSIGN_OR_RETURN(
          const gsdf::DatasetInfo* info,
          reader->Find(mesh::BlockDatasetName(block_id, field)));
      bytes += info->nbytes;
    }
  }
  if (cache != nullptr) {
    cache->by_path[path] = {fields, options.block_begin, options.block_end,
                            bytes};
  }
  return bytes;
}

// Read function of one (snapshot, file) unit: loads its blocks through one
// ReadBatch with `batch_options` (LoadFileBatch).
Gbo::ReadFn MakeFileBatchReadFn(PlatformRuntime* runtime, std::string path,
                                int snapshot, std::vector<int32_t> blocks,
                                std::vector<std::string> fields,
                                gsdf::BatchOptions batch_options) {
  return [runtime, path = std::move(path), snapshot,
          blocks = std::move(blocks), fields = std::move(fields),
          batch_options](Gbo* db, const std::string&) -> Status {
    GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<gsdf::Reader> reader,
                            gsdf::Reader::Open(runtime->io_env(), path));
    return LoadFileBatch(runtime, *reader, blocks, snapshot, fields,
                         batch_options, /*counters=*/nullptr, db);
  };
}

// Push-down closure over every kernel: parses (snapshot, file) back out of
// the unit name, walks the unit's blocks, and runs each kernel over spans
// taken straight from the committed field buffers (no copies). A kernel
// indexes every input up to the first one's length, so DATA_LOSS unless
// they all have it.
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
          if (inputs.back().size() != inputs.front().size()) {
            return DataLossError(StrCat(
                unit_name, " block ", block_id, ": field ", input, " holds ",
                inputs.back().size(), " values, ", kernel.inputs.front(),
                " holds ", inputs.front().size()));
          }
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
      QueryUnitSpec unit;
      unit.name = SnapshotFileUnitName(snapshot, f);
      GODIVA_ASSIGN_OR_RETURN(
          unit.bytes, FileUnitBytes(runtime, options, path, blocks, fields));
      unit.read_fn = MakeFileBatchReadFn(
          runtime, path, snapshot, std::move(blocks), fields,
          gsdf::BatchOptions{options.limits, options.verify_checksums});
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
