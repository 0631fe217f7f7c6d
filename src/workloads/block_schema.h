// The GODIVA schema Voyager uses for snapshot data: one "block" record per
// (mesh block, snapshot), keyed by the two ids, with coordinate,
// connectivity, and quantity fields — the unstructured-mesh analogue of
// the paper's Table 1 record type.
#ifndef GODIVA_WORKLOADS_BLOCK_SCHEMA_H_
#define GODIVA_WORKLOADS_BLOCK_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/gbo.h"

namespace godiva::workloads {

inline constexpr char kBlockRecordType[] = "block";

// Field names for the mesh geometry within a block record.
inline constexpr char kFieldBlockId[] = "block id";
inline constexpr char kFieldSnapshotId[] = "snapshot id";
inline constexpr char kFieldX[] = "x";
inline constexpr char kFieldY[] = "y";
inline constexpr char kFieldZ[] = "z";
inline constexpr char kFieldConn[] = "conn";

// Defines the block record type (keys + mesh fields + every quantity from
// mesh/quantities.h) on `db` and commits it.
Status DefineBlockSchema(Gbo* db);

// Key values for Gbo queries: {block id, snapshot id} as raw bytes.
std::vector<std::string> BlockKey(int32_t block_id, int32_t snapshot_id);

// A new, uncommitted block record with both key fields set.
Result<Record*> NewBlockRecord(Gbo* db, int32_t block_id,
                               int32_t snapshot_id);

// The datasets Voyager's read function (MakeSnapshotReadFn) loads per
// block, in load order: x, y, z, conn, which its views need, then
// `quantities`. Each lands in the record field of the same name; block
// b's dataset for field f is mesh::BlockDatasetName(b, f). The file
// loaders and the query layer load only the names they are given.
std::vector<std::string> BlockDatasets(
    const std::vector<std::string>& quantities);

// Unit naming: one processing unit per snapshot, like Voyager ("uses all
// the files in the same time-step snapshot as a processing unit").
std::string SnapshotUnitName(int snapshot);
// Parses the snapshot index back out of a unit name; -1 on mismatch.
int SnapshotOfUnit(const std::string& unit_name);

}  // namespace godiva::workloads

#endif  // GODIVA_WORKLOADS_BLOCK_SCHEMA_H_
