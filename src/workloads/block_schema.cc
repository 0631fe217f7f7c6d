#include "workloads/block_schema.h"

#include <cstdio>
#include <cstring>

#include "common/strings.h"
#include "common/types.h"
#include "core/key_util.h"
#include "core/record.h"
#include "mesh/quantities.h"

namespace godiva::workloads {

Status DefineBlockSchema(Gbo* db) {
  GODIVA_RETURN_IF_ERROR(
      db->DefineField(kFieldBlockId, DataType::kInt32, 4));
  GODIVA_RETURN_IF_ERROR(
      db->DefineField(kFieldSnapshotId, DataType::kInt32, 4));
  GODIVA_RETURN_IF_ERROR(
      db->DefineField(kFieldX, DataType::kFloat64, kUnknownSize));
  GODIVA_RETURN_IF_ERROR(
      db->DefineField(kFieldY, DataType::kFloat64, kUnknownSize));
  GODIVA_RETURN_IF_ERROR(
      db->DefineField(kFieldZ, DataType::kFloat64, kUnknownSize));
  GODIVA_RETURN_IF_ERROR(
      db->DefineField(kFieldConn, DataType::kInt32, kUnknownSize));
  for (const mesh::QuantityDef& quantity : mesh::kQuantities) {
    GODIVA_RETURN_IF_ERROR(db->DefineField(std::string(quantity.name),
                                           DataType::kFloat64,
                                           kUnknownSize));
  }

  GODIVA_RETURN_IF_ERROR(db->DefineRecord(kBlockRecordType, 2));
  GODIVA_RETURN_IF_ERROR(
      db->InsertField(kBlockRecordType, kFieldBlockId, true));
  GODIVA_RETURN_IF_ERROR(
      db->InsertField(kBlockRecordType, kFieldSnapshotId, true));
  for (const char* field : {kFieldX, kFieldY, kFieldZ, kFieldConn}) {
    GODIVA_RETURN_IF_ERROR(db->InsertField(kBlockRecordType, field, false));
  }
  for (const mesh::QuantityDef& quantity : mesh::kQuantities) {
    GODIVA_RETURN_IF_ERROR(db->InsertField(
        kBlockRecordType, std::string(quantity.name), false));
  }
  return db->CommitRecordType(kBlockRecordType);
}

std::vector<std::string> BlockKey(int32_t block_id, int32_t snapshot_id) {
  return {KeyBytes(block_id), KeyBytes(snapshot_id)};
}

Result<Record*> NewBlockRecord(Gbo* db, int32_t block_id,
                               int32_t snapshot_id) {
  GODIVA_ASSIGN_OR_RETURN(Record * record, db->NewRecord(kBlockRecordType));
  std::memcpy(*record->FieldBuffer(kFieldBlockId), &block_id, 4);
  std::memcpy(*record->FieldBuffer(kFieldSnapshotId), &snapshot_id, 4);
  return record;
}

std::vector<std::string> BlockDatasets(
    const std::vector<std::string>& quantities) {
  std::vector<std::string> datasets = {kFieldX, kFieldY, kFieldZ,
                                       kFieldConn};
  datasets.insert(datasets.end(), quantities.begin(), quantities.end());
  return datasets;
}

std::string SnapshotUnitName(int snapshot) {
  return StrFormat("snap_%04d", snapshot);
}

int SnapshotOfUnit(const std::string& unit_name) {
  int snapshot = -1;
  if (std::sscanf(unit_name.c_str(), "snap_%d", &snapshot) != 1) return -1;
  return snapshot;
}

}  // namespace godiva::workloads
