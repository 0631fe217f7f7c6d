#include "mesh/snapshot_writer.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/types.h"
#include "gsdf/writer.h"
#include "mesh/fields.h"
#include "mesh/quantities.h"
#include "mesh/tet_mesh.h"

namespace godiva::mesh {

std::string SnapshotFileName(const std::string& prefix, int snapshot,
                             int file_index) {
  return StrFormat("%s/snap_%04d_f%02d.gsdf", prefix.c_str(), snapshot,
                   file_index);
}

std::string BlockDatasetName(int32_t block_id, std::string_view field) {
  return StrFormat("block_%04d/%.*s", block_id,
                   static_cast<int>(field.size()), field.data());
}

std::vector<int32_t> BlocksInFile(const DatasetSpec& spec, int file_index) {
  std::vector<int32_t> out;
  for (int32_t b = file_index; b < spec.num_blocks;
       b += spec.files_per_snapshot) {
    out.push_back(b);
  }
  return out;
}

std::vector<std::string> SnapshotDataset::SnapshotFiles(int s) const {
  std::vector<std::string> out;
  for (int f = 0; f < spec.files_per_snapshot; ++f) {
    out.push_back(files[static_cast<size_t>(s) * spec.files_per_snapshot +
                        f]);
  }
  return out;
}

std::vector<MeshBlock> MakeBlocks(const DatasetSpec& spec) {
  TetMesh mesh = MakeBoxTetMesh(spec.nx, spec.ny, spec.nz, spec.lx, spec.ly,
                                spec.lz);
  return PartitionMesh(mesh, spec.num_blocks);
}

namespace {

// Writes one block's datasets (coordinates, connectivity, quantities) at
// time `t` into `writer`.
Status WriteBlock(gsdf::Writer* writer, const MeshBlock& block, double t) {
  int32_t id = block.block_id;
  auto add = [&](std::string_view field, DataType type, const void* data,
                 int64_t nbytes) {
    return writer->AddDataset(BlockDatasetName(id, field), type, data,
                              nbytes);
  };
  int64_t node_bytes = block.num_nodes() * 8;
  GODIVA_RETURN_IF_ERROR(
      add("x", DataType::kFloat64, block.x.data(), node_bytes));
  GODIVA_RETURN_IF_ERROR(
      add("y", DataType::kFloat64, block.y.data(), node_bytes));
  GODIVA_RETURN_IF_ERROR(
      add("z", DataType::kFloat64, block.z.data(), node_bytes));
  GODIVA_RETURN_IF_ERROR(add("conn", DataType::kInt32, block.tets.data(),
                             static_cast<int64_t>(block.tets.size()) * 4));
  std::vector<std::vector<double>> columns = SynthesizeBlock(block, t);
  for (int q = 0; q < kNumQuantities; ++q) {
    const std::vector<double>& values = columns[static_cast<size_t>(q)];
    GODIVA_RETURN_IF_ERROR(
        add(kQuantities[q].name, DataType::kFloat64, values.data(),
            static_cast<int64_t>(values.size()) * 8));
  }
  return Status::Ok();
}

}  // namespace

SnapshotDataset DescribeSnapshotDataset(const DatasetSpec& spec,
                                        const std::string& prefix) {
  SnapshotDataset out;
  out.spec = spec;
  out.prefix = prefix;
  for (int s = 0; s < spec.num_snapshots; ++s) {
    for (int f = 0; f < spec.files_per_snapshot; ++f) {
      out.files.push_back(SnapshotFileName(prefix, s, f));
    }
  }
  return out;
}

Result<int64_t> WriteOneSnapshot(Env* env, const DatasetSpec& spec,
                                 const std::string& prefix,
                                 const std::vector<MeshBlock>& blocks,
                                 int snapshot, double t,
                                 const SnapshotWriteOptions& options) {
  if (spec.num_blocks < spec.files_per_snapshot) {
    return InvalidArgumentError("fewer blocks than files per snapshot");
  }
  int64_t total_bytes = 0;
  for (int f = 0; f < spec.files_per_snapshot; ++f) {
    std::string path = SnapshotFileName(prefix, snapshot, f);
    gsdf::Writer::Options writer_options;
    writer_options.checksums = options.checksums;
    writer_options.atomic = options.atomic;
    GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<gsdf::Writer> writer,
                            gsdf::Writer::Create(env, path, writer_options));
    writer->SetFileAttribute("snapshot", StrCat(snapshot));
    writer->SetFileAttribute("time", StrFormat("%.9f", t));
    std::vector<int32_t> file_blocks = BlocksInFile(spec, f);
    writer->SetFileAttribute("num_blocks", StrCat(file_blocks.size()));
    GODIVA_RETURN_IF_ERROR(writer->AddDataset(
        "blocks", DataType::kInt32, file_blocks.data(),
        static_cast<int64_t>(file_blocks.size()) * 4));
    for (int32_t b : file_blocks) {
      GODIVA_RETURN_IF_ERROR(
          WriteBlock(writer.get(), blocks[static_cast<size_t>(b)], t));
    }
    GODIVA_RETURN_IF_ERROR(writer->Finish());
    GODIVA_ASSIGN_OR_RETURN(int64_t size, env->GetFileSize(path));
    total_bytes += size;
  }
  return total_bytes;
}

Result<SnapshotDataset> WriteSnapshotDataset(Env* env,
                                             const DatasetSpec& spec,
                                             const std::string& prefix) {
  if (spec.num_blocks < spec.files_per_snapshot) {
    return InvalidArgumentError("fewer blocks than files per snapshot");
  }
  SnapshotDataset out = DescribeSnapshotDataset(spec, prefix);

  std::vector<MeshBlock> blocks = MakeBlocks(spec);

  SnapshotWriteOptions write_options;
  write_options.checksums = spec.checksums;
  for (int s = 0; s < spec.num_snapshots; ++s) {
    GODIVA_ASSIGN_OR_RETURN(
        int64_t bytes,
        WriteOneSnapshot(env, spec, prefix, blocks, s, spec.TimeOf(s),
                         write_options));
    out.total_bytes += bytes;
  }
  return out;
}

}  // namespace godiva::mesh
