#include "workloads/snapshot_io.h"

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "core/key_util.h"
#include "core/record.h"
#include "gsdf/reader.h"
#include "workloads/block_schema.h"

namespace godiva::workloads {
namespace {

// Reads dataset `name` into `out`, resized to hold it, charging decode
// CPU. DATA_LOSS before any read if the dataset is not a whole number of
// T elements, so the read never writes past the vector.
template <typename T>
Status ReadDatasetIntoVector(PlatformRuntime* runtime,
                             const gsdf::Reader& reader,
                             const std::string& name, std::vector<T>* out,
                             bool verify = false) {
  GODIVA_ASSIGN_OR_RETURN(const gsdf::DatasetInfo* info, reader.Find(name));
  if (info->nbytes % static_cast<int64_t>(sizeof(T)) != 0) {
    return DataLossError(StrCat(reader.path(), ": dataset ", name, " holds ",
                                info->nbytes,
                                " bytes, not a whole number of ", sizeof(T),
                                "-byte elements"));
  }
  out->resize(static_cast<size_t>(info->nbytes) / sizeof(T));
  const int64_t out_bytes = static_cast<int64_t>(out->size() * sizeof(T));
  GODIVA_RETURN_IF_ERROR(verify
                             ? reader.ReadVerified(name, out->data(), out_bytes)
                             : reader.Read(name, out->data(), out_bytes));
  runtime->ChargeDecode(info->nbytes);
  return Status::Ok();
}

// Opens `path`, falling back to a salvage scan when permitted and the
// structural open fails with DATA_LOSS (torn footer, directory CRC
// mismatch). A salvage open counts the torn write and the number of
// recovered datasets into `counters` (if any).
Result<std::unique_ptr<gsdf::Reader>> OpenSnapshotFile(
    PlatformRuntime* runtime, const std::string& path, bool salvage,
    SnapshotReadCounters* counters) {
  Result<std::unique_ptr<gsdf::Reader>> reader =
      gsdf::Reader::Open(runtime->io_env(), path);
  if (reader.ok() || !salvage ||
      reader.status().code() != StatusCode::kDataLoss) {
    return reader;
  }
  GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<gsdf::Reader> salvaged,
                          gsdf::Reader::OpenSalvage(runtime->io_env(), path));
  if (counters != nullptr) {
    counters->torn_writes.fetch_add(1, std::memory_order_relaxed);
    counters->salvaged_datasets.fetch_add(
        static_cast<int64_t>(salvaged->datasets().size()),
        std::memory_order_relaxed);
  }
  return salvaged;
}

}  // namespace

Status LoadFilePerDataset(PlatformRuntime* runtime,
                          const gsdf::Reader& reader,
                          const std::vector<int32_t>& blocks, int snapshot,
                          const std::vector<std::string>& datasets,
                          bool verify, Gbo* db) {
  for (int32_t block_id : blocks) {
    GODIVA_ASSIGN_OR_RETURN(Record * record,
                            NewBlockRecord(db, block_id, snapshot));
    for (const std::string& field : datasets) {
      GODIVA_ASSIGN_OR_RETURN(
          const gsdf::DatasetInfo* info,
          reader.Find(mesh::BlockDatasetName(block_id, field)));
      GODIVA_ASSIGN_OR_RETURN(
          void* buffer, db->AllocFieldBuffer(record, field, info->nbytes));
      GODIVA_RETURN_IF_ERROR(
          verify ? reader.ReadVerified(info->name, buffer, info->nbytes)
                 : reader.Read(info->name, buffer, info->nbytes));
      runtime->ChargeDecode(info->nbytes);
    }
    GODIVA_RETURN_IF_ERROR(db->CommitRecord(record));
  }
  return Status::Ok();
}

Status LoadFileBatch(PlatformRuntime* runtime, const gsdf::Reader& reader,
                     const std::vector<int32_t>& blocks, int snapshot,
                     const std::vector<std::string>& datasets,
                     const gsdf::BatchOptions& options,
                     SnapshotReadCounters* counters, Gbo* db) {
  std::vector<gsdf::BatchRequest> batch;
  batch.reserve(blocks.size() * datasets.size());
  std::vector<Record*> records;
  records.reserve(blocks.size());
  int64_t total_bytes = 0;
  // One block's datasets in file order, with the field each lands in.
  std::vector<std::pair<const gsdf::DatasetInfo*, std::string_view>> landing(
      datasets.size());
  std::vector<std::string_view> group_fields;
  std::vector<int64_t> group_sizes;
  for (int32_t block_id : blocks) {
    GODIVA_ASSIGN_OR_RETURN(Record * record,
                            NewBlockRecord(db, block_id, snapshot));
    for (size_t i = 0; i < datasets.size(); ++i) {
      GODIVA_ASSIGN_OR_RETURN(
          landing[i].first,
          reader.Find(mesh::BlockDatasetName(block_id, datasets[i])));
      landing[i].second = datasets[i];
    }
    std::sort(landing.begin(), landing.end(),
              [](const auto& a, const auto& b) {
                return a.first->offset < b.first->offset;
              });
    // Datasets that sit back to back in the file share one allocation in
    // the same order, so ReadBatch lands them with one read. A group
    // closes where the next payload would start off an 8-byte boundary,
    // which keeps every buffer aligned for any element type.
    for (size_t begin = 0; begin < landing.size();) {
      group_fields.clear();
      group_sizes.clear();
      int64_t group_end = landing[begin].first->offset;
      size_t end = begin;
      do {
        const gsdf::DatasetInfo* info = landing[end].first;
        group_fields.push_back(landing[end].second);
        group_sizes.push_back(info->nbytes);
        group_end += info->nbytes;
        ++end;
      } while (end < landing.size() &&
               landing[end].first->offset == group_end &&
               (group_end - landing[begin].first->offset) % 8 == 0);
      GODIVA_ASSIGN_OR_RETURN(
          void* buffer,
          db->AllocFieldBuffers(record, group_fields, group_sizes));
      auto* out = static_cast<uint8_t*>(buffer);
      for (size_t i = begin; i < end; ++i) {
        const gsdf::DatasetInfo* info = landing[i].first;
        batch.push_back({info->name, out, info->nbytes});
        out += info->nbytes;
        total_bytes += info->nbytes;
      }
      begin = end;
    }
    records.push_back(record);
  }
  GODIVA_ASSIGN_OR_RETURN(gsdf::BatchStats stats,
                          reader.ReadBatch(batch, options));
  runtime->ChargeDecode(total_bytes);
  if (counters != nullptr) {
    counters->coalesced_reads.fetch_add(stats.coalesced,
                                        std::memory_order_relaxed);
  }
  for (Record* record : records) {
    GODIVA_RETURN_IF_ERROR(db->CommitRecord(record));
  }
  return Status::Ok();
}

Gbo::ReadFn MakeSnapshotReadFn(PlatformRuntime* runtime,
                               const mesh::SnapshotDataset* dataset,
                               const std::vector<std::string>& quantities,
                               SnapshotReadOptions options) {
  return [runtime, dataset, datasets = BlockDatasets(quantities), options](
             Gbo* db, const std::string& unit_name) -> Status {
    int snapshot = SnapshotOfUnit(unit_name);
    if (snapshot < 0 || snapshot >= dataset->spec.num_snapshots) {
      return InvalidArgumentError(
          StrCat("bad snapshot unit name: ", unit_name));
    }
    const bool verify = options.verify_checksums;
    for (const std::string& path : dataset->SnapshotFiles(snapshot)) {
      GODIVA_ASSIGN_OR_RETURN(
          std::unique_ptr<gsdf::Reader> reader,
          OpenSnapshotFile(runtime, path, options.salvage, options.counters));
      std::vector<int32_t> blocks;
      GODIVA_RETURN_IF_ERROR(
          ReadDatasetIntoVector(runtime, *reader, "blocks", &blocks, verify));
      GODIVA_RETURN_IF_ERROR(
          options.coalesce
              ? LoadFileBatch(runtime, *reader, blocks, snapshot, datasets,
                              gsdf::BatchOptions{gsdf::BatchLimits{}, verify},
                              options.counters, db)
              : LoadFilePerDataset(runtime, *reader, blocks, snapshot,
                                   datasets, verify, db));
    }
    return Status::Ok();
  };
}

Result<std::vector<PlainBlock>> ReadPassDirect(
    PlatformRuntime* runtime, const mesh::SnapshotDataset& dataset,
    int snapshot, const std::vector<std::string>& quantities,
    bool include_conn) {
  std::vector<PlainBlock> out;
  for (const std::string& path : dataset.SnapshotFiles(snapshot)) {
    GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<gsdf::Reader> reader,
                            gsdf::Reader::Open(runtime->io_env(), path));
    std::vector<int32_t> blocks;
    GODIVA_RETURN_IF_ERROR(
        ReadDatasetIntoVector(runtime, *reader, "blocks", &blocks));
    for (int32_t block_id : blocks) {
      PlainBlock block;
      block.block_id = block_id;
      GODIVA_RETURN_IF_ERROR(ReadDatasetIntoVector(
          runtime, *reader, mesh::BlockDatasetName(block_id, "x"),
          &block.x));
      GODIVA_RETURN_IF_ERROR(ReadDatasetIntoVector(
          runtime, *reader, mesh::BlockDatasetName(block_id, "y"),
          &block.y));
      GODIVA_RETURN_IF_ERROR(ReadDatasetIntoVector(
          runtime, *reader, mesh::BlockDatasetName(block_id, "z"),
          &block.z));
      if (include_conn) {
        GODIVA_RETURN_IF_ERROR(ReadDatasetIntoVector(
            runtime, *reader, mesh::BlockDatasetName(block_id, "conn"),
            &block.conn));
      }
      for (const std::string& quantity : quantities) {
        GODIVA_RETURN_IF_ERROR(ReadDatasetIntoVector(
            runtime, *reader, mesh::BlockDatasetName(block_id, quantity),
            &block.fields[quantity]));
      }
      out.push_back(std::move(block));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const PlainBlock& a, const PlainBlock& b) {
              return a.block_id < b.block_id;
            });
  return out;
}

}  // namespace godiva::workloads
