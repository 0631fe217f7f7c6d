#include "workloads/snapshot_query.h"

#include <algorithm>
#include <atomic>
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

// The query's effective field list: requested fields plus every
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

// One (snapshot, file) unit as plan time sized it: its payload bytes and
// the reader whose directory they came from, which the unit's first load
// reads through.
struct SizedUnit {
  int64_t bytes = 0;
  std::shared_ptr<const gsdf::Reader> reader;
};

// Sizes one (snapshot, file) unit: the directory sizes of the `fields`
// datasets of its blocks, which is what the unit loads. Opens the file and
// reads no payload, unless the query's extents cache holds the file for
// the same fields, block range and io env; a fresh open is cached.
Result<SizedUnit> SizeFileUnit(PlatformRuntime* runtime,
                               const SnapshotQueryOptions& options,
                               const std::string& path,
                               const std::vector<int32_t>& blocks,
                               const std::vector<std::string>& fields) {
  SnapshotExtentsCache* cache = options.extents_cache;
  Env* env = runtime->io_env();
  if (cache != nullptr) {
    auto hit = cache->by_path.find(path);
    if (hit != cache->by_path.end() && hit->second.fields == fields &&
        hit->second.block_begin == options.block_begin &&
        hit->second.block_end == options.block_end &&
        hit->second.env == env) {
      return SizedUnit{hit->second.bytes, hit->second.reader};
    }
  }
  SizedUnit sized;
  GODIVA_ASSIGN_OR_RETURN(sized.reader, gsdf::Reader::Open(env, path));
  for (int32_t block_id : blocks) {
    for (const std::string& field : fields) {
      GODIVA_ASSIGN_OR_RETURN(
          const gsdf::DatasetInfo* info,
          sized.reader->Find(mesh::BlockDatasetName(block_id, field)));
      sized.bytes += info->nbytes;
    }
  }
  if (cache != nullptr) {
    cache->by_path[path] = {fields, options.block_begin, options.block_end,
                            sized.bytes, sized.reader, env};
  }
  return sized;
}

// Read function of one (snapshot, file) unit: loads its blocks through one
// ReadBatch with `batch_options` (LoadFileBatch). The first call, by this
// closure or any copy of it, takes `handed` (the reader that sized the
// unit) and drops it when the load returns; every later call opens the
// file again.
Gbo::ReadFn MakeFileBatchReadFn(PlatformRuntime* runtime, std::string path,
                                int snapshot, std::vector<int32_t> blocks,
                                std::vector<std::string> fields,
                                gsdf::BatchOptions batch_options,
                                std::shared_ptr<const gsdf::Reader> handed) {
  auto slot =
      std::make_shared<std::atomic<std::shared_ptr<const gsdf::Reader>>>(
          std::move(handed));
  return [runtime, path = std::move(path), snapshot,
          blocks = std::move(blocks), fields = std::move(fields),
          batch_options, slot = std::move(slot)](Gbo* db,
                                                 const std::string&)
             -> Status {
    std::shared_ptr<const gsdf::Reader> reader = slot->exchange(nullptr);
    if (reader == nullptr) {
      GODIVA_ASSIGN_OR_RETURN(reader,
                              gsdf::Reader::Open(runtime->io_env(), path));
    }
    return LoadFileBatch(runtime, *reader, blocks, snapshot, fields,
                         batch_options, /*counters=*/nullptr, db);
  };
}

// Consume-time closure of every snapshot query: parses (snapshot, file)
// back out of the unit name and walks the unit's blocks. It first looks up
// each of the query's `fields` in the block's record: dedup pins a
// resident unit by name alone, so a unit an earlier query loaded with
// other fields would otherwise settle OK and fail at the caller's first
// FieldBuffer; here it fails with FAILED_PRECONDITION naming the unit,
// block and field. Then it runs each kernel over spans taken straight
// from the committed field buffers (no copies). A kernel indexes every
// input up to the first one's length, so DATA_LOSS unless they all have
// it.
QueryPushdownFn MakeQueryPushdown(mesh::DatasetSpec spec, int block_begin,
                                  int block_end,
                                  std::vector<std::string> fields,
                                  std::vector<viz::DerivedKernel> kernels) {
  // Each kernel's inputs as positions in `fields`, which holds them all.
  std::vector<std::vector<size_t>> kernel_inputs;
  for (const viz::DerivedKernel& kernel : kernels) {
    std::vector<size_t>& positions = kernel_inputs.emplace_back();
    for (const std::string& input : kernel.inputs) {
      positions.push_back(static_cast<size_t>(
          std::find(fields.begin(), fields.end(), input) - fields.begin()));
    }
  }
  return [spec, block_begin, block_end, fields = std::move(fields),
          kernels = std::move(kernels),
          kernel_inputs = std::move(kernel_inputs)](
             Gbo* db, const std::string& unit_name,
             std::vector<DerivedResult>* out) -> Status {
    int snapshot = -1;
    int file_index = -1;
    if (!ParseSnapshotFileUnit(unit_name, &snapshot, &file_index)) {
      return InvalidArgumentError(
          StrCat("push-down on a non-query unit: ", unit_name));
    }
    // One block's field buffers, in `fields` order; only kernel inputs
    // are read, as the doubles a kernel takes.
    std::vector<std::span<const double>> loaded(fields.size());
    for (int32_t block_id :
         BlocksInRange(spec, file_index, block_begin, block_end)) {
      GODIVA_ASSIGN_OR_RETURN(
          Record * record,
          db->FindRecord(kBlockRecordType, BlockKey(block_id, snapshot)));
      for (size_t i = 0; i < fields.size(); ++i) {
        const int member = record->type().FindMemberIndex(fields[i]);
        if (member < 0 || !record->slot_allocated(member)) {
          return FailedPreconditionError(StrCat(unit_name, " block ",
                                                block_id, ": field ",
                                                fields[i], " is not loaded"));
        }
        loaded[i] = {static_cast<const double*>(record->slot_data(member)),
                     static_cast<size_t>(record->slot_size(member) / 8)};
      }
      for (size_t k = 0; k < kernels.size(); ++k) {
        std::vector<std::span<const double>> inputs;
        inputs.reserve(kernel_inputs[k].size());
        for (size_t position : kernel_inputs[k]) {
          inputs.push_back(loaded[position]);
          if (inputs.back().size() != inputs.front().size()) {
            return DataLossError(StrCat(
                unit_name, " block ", block_id, ": field ", fields[position],
                " holds ", inputs.back().size(), " values, ",
                kernels[k].inputs.front(), " holds ", inputs.front().size()));
          }
        }
        DerivedResult result;
        result.unit = unit_name;
        result.field = kernels[k].name;
        result.key = block_id;
        result.values = kernels[k].fn(inputs);
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
  if (fields.empty()) {
    return InvalidArgumentError("query names no field and no kernel input");
  }

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
          SizedUnit sized,
          SizeFileUnit(runtime, options, path, blocks, fields));
      unit.bytes = sized.bytes;
      unit.read_fn = MakeFileBatchReadFn(
          runtime, path, snapshot, std::move(blocks), fields,
          gsdf::BatchOptions{options.limits, options.verify_checksums},
          std::move(sized.reader));
      unit.resources = {path};
      query.units.push_back(std::move(unit));
    }
  }
  if (query.units.empty()) {
    return InvalidArgumentError("query selects no blocks");
  }
  query.pushdown = MakeQueryPushdown(spec, options.block_begin,
                                     options.block_end, fields,
                                     options.kernels);
  return query;
}

}  // namespace godiva::workloads
