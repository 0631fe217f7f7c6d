#include "workloads/snapshot_io.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/strings.h"
#include "core/key_util.h"
#include "core/record.h"
#include "gsdf/reader.h"
#include "workloads/block_schema.h"

namespace godiva::workloads {
namespace {

// Reads dataset `name` from `reader` into a fresh buffer of the record
// field `field`, charging decode CPU.
Status ReadDatasetIntoField(PlatformRuntime* runtime,
                            const gsdf::Reader& reader,
                            const std::string& name, Gbo* db, Record* record,
                            const std::string& field, bool verify = false) {
  GODIVA_ASSIGN_OR_RETURN(const gsdf::DatasetInfo* info, reader.Find(name));
  GODIVA_ASSIGN_OR_RETURN(void* buffer,
                          db->AllocFieldBuffer(record, field, info->nbytes));
  GODIVA_RETURN_IF_ERROR(verify
                             ? reader.ReadVerified(name, buffer, info->nbytes)
                             : reader.Read(name, buffer, info->nbytes));
  runtime->ChargeDecode(info->nbytes);
  return Status::Ok();
}

// Reads dataset `name` into `out` (resized), charging decode CPU.
template <typename T>
Status ReadDatasetIntoVector(PlatformRuntime* runtime,
                             const gsdf::Reader& reader,
                             const std::string& name, std::vector<T>* out,
                             bool verify = false) {
  GODIVA_ASSIGN_OR_RETURN(const gsdf::DatasetInfo* info, reader.Find(name));
  out->resize(static_cast<size_t>(info->nbytes) / sizeof(T));
  GODIVA_RETURN_IF_ERROR(
      verify ? reader.ReadVerified(name, out->data(), info->nbytes)
             : reader.Read(name, out->data(), info->nbytes));
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

Status LoadFileBatch(PlatformRuntime* runtime, const gsdf::Reader& reader,
                     const std::vector<int32_t>& blocks, int snapshot,
                     const std::vector<std::string>& fields,
                     const gsdf::BatchOptions& options,
                     SnapshotReadCounters* counters, Gbo* db) {
  std::vector<gsdf::BatchRequest> batch;
  std::vector<Record*> records;
  records.reserve(blocks.size());
  int64_t total_bytes = 0;
  for (int32_t block_id : blocks) {
    GODIVA_ASSIGN_OR_RETURN(Record * record, db->NewRecord(kBlockRecordType));
    std::memcpy(*record->FieldBuffer(kFieldBlockId), &block_id, 4);
    int32_t snapshot_id = snapshot;
    std::memcpy(*record->FieldBuffer(kFieldSnapshotId), &snapshot_id, 4);
    auto gather = [&](const std::string& name,
                      const std::string& field) -> Status {
      GODIVA_ASSIGN_OR_RETURN(const gsdf::DatasetInfo* info,
                              reader.Find(name));
      GODIVA_ASSIGN_OR_RETURN(
          void* buffer, db->AllocFieldBuffer(record, field, info->nbytes));
      batch.push_back({name, buffer, info->nbytes});
      total_bytes += info->nbytes;
      return Status::Ok();
    };
    GODIVA_RETURN_IF_ERROR(
        gather(mesh::BlockDatasetName(block_id, "x"), kFieldX));
    GODIVA_RETURN_IF_ERROR(
        gather(mesh::BlockDatasetName(block_id, "y"), kFieldY));
    GODIVA_RETURN_IF_ERROR(
        gather(mesh::BlockDatasetName(block_id, "z"), kFieldZ));
    GODIVA_RETURN_IF_ERROR(
        gather(mesh::BlockDatasetName(block_id, "conn"), kFieldConn));
    for (const std::string& field : fields) {
      GODIVA_RETURN_IF_ERROR(
          gather(mesh::BlockDatasetName(block_id, field), field));
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
                               std::vector<std::string> quantities,
                               SnapshotReadOptions options) {
  return [runtime, dataset, quantities = std::move(quantities), options](
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
      if (options.coalesce) {
        gsdf::BatchOptions batch_options;
        batch_options.verify = verify;
        GODIVA_RETURN_IF_ERROR(LoadFileBatch(runtime, *reader, blocks,
                                             snapshot, quantities,
                                             batch_options, options.counters,
                                             db));
        continue;
      }
      for (int32_t block_id : blocks) {
        GODIVA_ASSIGN_OR_RETURN(Record * record,
                                db->NewRecord(kBlockRecordType));
        std::memcpy(*record->FieldBuffer(kFieldBlockId), &block_id, 4);
        int32_t snapshot_id = snapshot;
        std::memcpy(*record->FieldBuffer(kFieldSnapshotId), &snapshot_id,
                    4);
        GODIVA_RETURN_IF_ERROR(ReadDatasetIntoField(
            runtime, *reader, mesh::BlockDatasetName(block_id, "x"), db,
            record, kFieldX, verify));
        GODIVA_RETURN_IF_ERROR(ReadDatasetIntoField(
            runtime, *reader, mesh::BlockDatasetName(block_id, "y"), db,
            record, kFieldY, verify));
        GODIVA_RETURN_IF_ERROR(ReadDatasetIntoField(
            runtime, *reader, mesh::BlockDatasetName(block_id, "z"), db,
            record, kFieldZ, verify));
        GODIVA_RETURN_IF_ERROR(ReadDatasetIntoField(
            runtime, *reader, mesh::BlockDatasetName(block_id, "conn"), db,
            record, kFieldConn, verify));
        for (const std::string& quantity : quantities) {
          GODIVA_RETURN_IF_ERROR(ReadDatasetIntoField(
              runtime, *reader, mesh::BlockDatasetName(block_id, quantity),
              db, record, quantity, verify));
        }
        GODIVA_RETURN_IF_ERROR(db->CommitRecord(record));
      }
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
