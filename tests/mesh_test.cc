// Tests for the synthetic dataset substrate: tet mesh generation,
// partitioning invariants, field synthesis determinism, and the snapshot
// file layout.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/status.h"
#include "gsdf/reader.h"
#include "mesh/dataset_spec.h"
#include "mesh/fields.h"
#include "mesh/partition.h"
#include "mesh/quantities.h"
#include "mesh/snapshot_writer.h"
#include "mesh/tet_mesh.h"
#include "sim/sim_env.h"

namespace godiva::mesh {
namespace {

TEST(TetMeshTest, NodeAndTetCounts) {
  TetMesh mesh = MakeBoxTetMesh(3, 4, 5, 1, 1, 1);
  EXPECT_EQ(mesh.num_nodes(), 3 * 4 * 5);
  EXPECT_EQ(mesh.num_tets(), 6 * 2 * 3 * 4);
}

TEST(TetMeshTest, AllTetsHavePositiveVolume) {
  TetMesh mesh = MakeBoxTetMesh(4, 4, 6, 1.0, 2.0, 3.0);
  for (int64_t t = 0; t < mesh.num_tets(); ++t) {
    EXPECT_GT(TetVolume(mesh, t), 0.0) << "tet " << t;
  }
}

TEST(TetMeshTest, VolumesSumToBoxVolume) {
  TetMesh mesh = MakeBoxTetMesh(5, 6, 7, 2.0, 3.0, 4.0);
  double total = 0;
  for (int64_t t = 0; t < mesh.num_tets(); ++t) total += TetVolume(mesh, t);
  EXPECT_NEAR(total, 2.0 * 3.0 * 4.0, 1e-9);
}

TEST(TetMeshTest, NodeIdsInRange) {
  TetMesh mesh = MakeBoxTetMesh(4, 4, 4, 1, 1, 1);
  for (int32_t node : mesh.tets) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, mesh.num_nodes());
  }
}

TEST(TetMeshTest, TitanIvScaleMatchesPaper) {
  DatasetSpec spec = DatasetSpec::TitanIV();
  // Paper: 120,481 nodes and 679,008 elements. Our generator should land
  // within a few percent.
  EXPECT_NEAR(static_cast<double>(spec.ExpectedNodes()), 120481.0,
              0.03 * 120481.0);
  EXPECT_NEAR(static_cast<double>(spec.ExpectedTets()), 679008.0,
              0.05 * 679008.0);
  EXPECT_EQ(spec.num_blocks, 120);
  EXPECT_EQ(spec.files_per_snapshot, 8);
  EXPECT_EQ(spec.num_snapshots, 32);
}

TEST(PartitionTest, EveryTetInExactlyOneBlock) {
  TetMesh mesh = MakeBoxTetMesh(5, 5, 9, 1, 1, 4);
  std::vector<MeshBlock> blocks = PartitionMesh(mesh, 7);
  ASSERT_EQ(blocks.size(), 7u);
  std::set<int32_t> seen;
  int64_t total = 0;
  for (const MeshBlock& block : blocks) {
    total += block.num_tets();
    for (int32_t g : block.global_tet) {
      EXPECT_TRUE(seen.insert(g).second) << "tet " << g << " duplicated";
    }
  }
  EXPECT_EQ(total, mesh.num_tets());
}

TEST(PartitionTest, LocalConnectivityMatchesGlobal) {
  TetMesh mesh = MakeBoxTetMesh(4, 4, 6, 1, 1, 2);
  std::vector<MeshBlock> blocks = PartitionMesh(mesh, 5);
  for (const MeshBlock& block : blocks) {
    for (int64_t t = 0; t < block.num_tets(); ++t) {
      int32_t global_tet = block.global_tet[t];
      for (int corner = 0; corner < 4; ++corner) {
        int32_t local = block.tets[t * 4 + corner];
        int32_t global = mesh.tets[static_cast<size_t>(global_tet) * 4 +
                                   corner];
        EXPECT_EQ(block.global_node[local], global);
        EXPECT_EQ(block.x[local], mesh.x[global]);
        EXPECT_EQ(block.y[local], mesh.y[global]);
        EXPECT_EQ(block.z[local], mesh.z[global]);
      }
    }
  }
}

TEST(PartitionTest, BoundaryNodesAreDuplicated) {
  TetMesh mesh = MakeBoxTetMesh(4, 4, 10, 1, 1, 4);
  std::vector<MeshBlock> blocks = PartitionMesh(mesh, 4);
  int64_t local_total = 0;
  for (const MeshBlock& block : blocks) local_total += block.num_nodes();
  // Duplication means the local sum exceeds the global count, but only by
  // a modest boundary fraction.
  EXPECT_GT(local_total, mesh.num_nodes());
  EXPECT_LT(local_total, mesh.num_nodes() * 2);
}

TEST(PartitionTest, SingleBlockIsWholeMesh) {
  TetMesh mesh = MakeBoxTetMesh(3, 3, 3, 1, 1, 1);
  std::vector<MeshBlock> blocks = PartitionMesh(mesh, 1);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].num_tets(), mesh.num_tets());
  EXPECT_EQ(blocks[0].num_nodes(), mesh.num_nodes());
}

TEST(FieldsTest, DeterministicAcrossCalls) {
  DatasetSpec spec = DatasetSpec::Tiny();
  std::vector<MeshBlock> blocks = MakeBlocks(spec);
  Result<std::vector<double>> a = SynthesizeQuantity(blocks[0], "velx", 0.125);
  Result<std::vector<double>> b = SynthesizeQuantity(blocks[0], "velx", 0.125);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(*a, *b);
}

TEST(FieldsTest, FieldsEvolveOverTime) {
  DatasetSpec spec = DatasetSpec::Tiny();
  std::vector<MeshBlock> blocks = MakeBlocks(spec);
  Result<std::vector<double>> t0 = SynthesizeQuantity(blocks[0], "szz", 0.0);
  Result<std::vector<double>> t1 = SynthesizeQuantity(blocks[0], "szz", 0.01);
  ASSERT_TRUE(t0.ok()) << t0.status();
  ASSERT_TRUE(t1.ok()) << t1.status();
  EXPECT_NE(*t0, *t1);
}

TEST(FieldsTest, NodeQuantitiesHaveNodeLength) {
  DatasetSpec spec = DatasetSpec::Tiny();
  std::vector<MeshBlock> blocks = MakeBlocks(spec);
  for (const QuantityDef& q : kQuantities) {
    Result<std::vector<double>> values =
        SynthesizeQuantity(blocks[1], q.name, 0.002);
    ASSERT_TRUE(values.ok()) << values.status();
    int64_t expected =
        q.node_based ? blocks[1].num_nodes() : blocks[1].num_tets();
    EXPECT_EQ(static_cast<int64_t>(values->size()), expected) << q.name;
    for (double v : *values) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(FieldsTest, UnknownQuantityIsNotFound) {
  DatasetSpec spec = DatasetSpec::Tiny();
  std::vector<MeshBlock> blocks = MakeBlocks(spec);
  Result<std::vector<double>> values =
      SynthesizeQuantity(blocks[0], "pressure", 0.002);
  ASSERT_FALSE(values.ok());
  EXPECT_EQ(values.status().code(), StatusCode::kNotFound);
  EXPECT_NE(values.status().message().find("pressure"), std::string::npos)
      << values.status();
}

TEST(FieldsTest, NodeQuantityAtIsNaNUnlessNodeBased) {
  EXPECT_TRUE(std::isnan(NodeQuantityAt("pressure", 0.2, 0.3, 4.0, 0.002)));
  EXPECT_TRUE(std::isnan(NodeQuantityAt("stress", 0.2, 0.3, 4.0, 0.002)));
  EXPECT_TRUE(std::isnan(NodeQuantityAt("", 0.2, 0.3, 4.0, 0.002)));
  for (const QuantityDef& q : kQuantities) {
    if (!q.node_based) continue;
    EXPECT_TRUE(std::isfinite(NodeQuantityAt(q.name, 0.2, 0.3, 4.0, 0.002)))
        << q.name;
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// SynthesizeBlock equals the pointwise definition bit for bit (memcmp, so
// -0.0 against 0.0 and NaN payloads count) on every block of a scaled
// TitanIV mesh at three snapshot times.
TEST(FieldsTest, BlockSynthesisMatchesPointwiseDefinition) {
  DatasetSpec spec = DatasetSpec::TitanIVScaled(0.1);
  std::vector<MeshBlock> blocks = MakeBlocks(spec);
  for (int snapshot : {0, 3, 31}) {
    const double t = spec.TimeOf(snapshot);
    for (const MeshBlock& block : blocks) {
      std::vector<std::vector<double>> columns = SynthesizeBlock(block, t);
      ASSERT_EQ(columns.size(), static_cast<size_t>(kNumQuantities));
      for (int q = 0; q < kNumQuantities; ++q) {
        const QuantityDef& def = kQuantities[q];
        const std::vector<double>& column = columns[static_cast<size_t>(q)];
        SCOPED_TRACE(testing::Message() << def.name << " of block "
                                        << block.block_id << " at t=" << t);
        if (def.node_based) {
          ASSERT_EQ(static_cast<int64_t>(column.size()), block.num_nodes());
          for (size_t i = 0; i < column.size(); ++i) {
            double expected = NodeQuantityAt(def.name, block.x[i],
                                             block.y[i], block.z[i], t);
            ASSERT_TRUE(SameBits(column[i], expected))
                << "node " << i << ": " << column[i] << " vs " << expected;
          }
          continue;
        }
        ASSERT_EQ(static_cast<int64_t>(column.size()), block.num_tets());
        for (size_t e = 0; e < column.size(); ++e) {
          double cx = 0, cy = 0, cz = 0;
          for (int corner = 0; corner < 4; ++corner) {
            int32_t n = block.tets[e * 4 + corner];
            cx += block.x[n];
            cy += block.y[n];
            cz += block.z[n];
          }
          cx *= 0.25;
          cy *= 0.25;
          cz *= 0.25;
          double expected = (NodeQuantityAt("sxx", cx, cy, cz, t) +
                             NodeQuantityAt("syy", cx, cy, cz, t) +
                             NodeQuantityAt("szz", cx, cy, cz, t)) /
                            3.0;
          ASSERT_TRUE(SameBits(column[e], expected))
              << "tet " << e << ": " << column[e] << " vs " << expected;
        }
      }
    }
  }
}

TEST(FieldsTest, FindQuantity) {
  EXPECT_EQ(FindQuantity("stress"), 0);
  EXPECT_GE(FindQuantity("energy"), 0);
  EXPECT_EQ(FindQuantity("nope"), -1);
}

TEST(SnapshotWriterTest, NamingScheme) {
  EXPECT_EQ(SnapshotFileName("data", 5, 3), "data/snap_0005_f03.gsdf");
  EXPECT_EQ(BlockDatasetName(7, "velx"), "block_0007/velx");
}

TEST(SnapshotWriterTest, RoundRobinBlockAssignment) {
  DatasetSpec spec = DatasetSpec::Tiny();  // 6 blocks over 2 files
  std::vector<int32_t> f0 = BlocksInFile(spec, 0);
  std::vector<int32_t> f1 = BlocksInFile(spec, 1);
  EXPECT_EQ(f0, (std::vector<int32_t>{0, 2, 4}));
  EXPECT_EQ(f1, (std::vector<int32_t>{1, 3, 5}));
}

TEST(SnapshotWriterTest, WritesAllFilesWithExpectedDatasets) {
  SimEnv env(SimEnv::Options{});
  DatasetSpec spec = DatasetSpec::Tiny();
  auto dataset = WriteSnapshotDataset(&env, spec, "data");
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->files.size(),
            static_cast<size_t>(spec.num_snapshots *
                                spec.files_per_snapshot));
  EXPECT_GT(dataset->total_bytes, 0);

  // Inspect one file: attribute metadata plus per-block datasets.
  auto reader = gsdf::Reader::Open(&env, dataset->files[0]);
  ASSERT_TRUE(reader.ok()) << reader.status();
  bool found_snapshot_attr = false;
  for (const auto& [key, value] : (*reader)->file_attributes()) {
    if (key == "snapshot") {
      EXPECT_EQ(value, "0");
      found_snapshot_attr = true;
    }
  }
  EXPECT_TRUE(found_snapshot_attr);
  // blocks 0,2,4 each with x/y/z/conn + all quantities, plus "blocks".
  EXPECT_EQ((*reader)->datasets().size(),
            1u + 3u * (4 + kNumQuantities));
  EXPECT_TRUE((*reader)->Find("block_0000/x").ok());
  EXPECT_TRUE((*reader)->Find("block_0004/stress").ok());
  EXPECT_FALSE((*reader)->Find("block_0001/x").ok());  // in file 1
}

TEST(SnapshotWriterTest, WrittenValuesMatchSynthesis) {
  SimEnv env(SimEnv::Options{});
  DatasetSpec spec = DatasetSpec::Tiny();
  auto dataset = WriteSnapshotDataset(&env, spec, "data");
  ASSERT_TRUE(dataset.ok());
  std::vector<MeshBlock> blocks = MakeBlocks(spec);

  int snapshot = 2;
  auto reader =
      gsdf::Reader::Open(&env, SnapshotFileName("data", snapshot, 1));
  ASSERT_TRUE(reader.ok());
  const MeshBlock& block = blocks[3];  // block 3 lives in file 1
  Result<std::vector<double>> expected =
      SynthesizeQuantity(block, "density", spec.TimeOf(snapshot));
  ASSERT_TRUE(expected.ok()) << expected.status();
  std::vector<double> got(expected->size());
  ASSERT_TRUE((*reader)
                  ->Read(BlockDatasetName(3, "density"), got.data(),
                         static_cast<int64_t>(got.size()) * 8)
                  .ok());
  EXPECT_EQ(got, *expected);
}

// Every byte the generator writes, pinned by the CRC-32 of each file of a
// small checksummed dataset: Tiny's layout over TitanIV's 22 × 22
// cross-section, so a product of x or y alone takes the 22 values it
// takes in the full mesh. The constants were recorded from the pointwise
// generator by an x86-64 GCC build with glibc's libm, the toolchain CI
// uses; a libm whose sin or cos rounds differently would change them.
TEST(SnapshotWriterTest, DatasetBytesArePinned) {
  SimEnv env(SimEnv::Options{});
  DatasetSpec spec = DatasetSpec::Tiny();
  spec.nx = 22;
  spec.ny = 22;
  spec.checksums = true;
  auto dataset = WriteSnapshotDataset(&env, spec, "data");
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  const uint32_t kFileCrcs[] = {0xD5FCE88Du, 0xD6E87768u, 0x6906AF0Du,
                                0x7A0FA4B6u, 0xD6241FC3u, 0xF0A17D26u,
                                0x772C88F3u, 0xC4EE401Fu};
  ASSERT_EQ(dataset->files.size(), std::size(kFileCrcs));
  for (size_t f = 0; f < dataset->files.size(); ++f) {
    auto file = env.NewRandomAccessFile(dataset->files[f]);
    ASSERT_TRUE(file.ok()) << file.status();
    std::vector<uint8_t> bytes(static_cast<size_t>((*file)->Size()));
    ASSERT_TRUE((*file)
                    ->Read(0, static_cast<int64_t>(bytes.size()),
                           bytes.data())
                    .ok());
    EXPECT_EQ(Crc32(bytes.data(), static_cast<int64_t>(bytes.size())),
              kFileCrcs[f])
        << dataset->files[f];
  }
}

TEST(SnapshotWriterTest, SnapshotFilesHelper) {
  SimEnv env(SimEnv::Options{});
  DatasetSpec spec = DatasetSpec::Tiny();
  auto dataset = WriteSnapshotDataset(&env, spec, "data");
  ASSERT_TRUE(dataset.ok());
  std::vector<std::string> snap1 = dataset->SnapshotFiles(1);
  ASSERT_EQ(snap1.size(), 2u);
  EXPECT_EQ(snap1[0], "data/snap_0001_f00.gsdf");
  EXPECT_EQ(snap1[1], "data/snap_0001_f01.gsdf");
}

TEST(DatasetSpecTest, ScaledSpecShrinks) {
  DatasetSpec full = DatasetSpec::TitanIV();
  DatasetSpec half = DatasetSpec::TitanIVScaled(0.25);
  EXPECT_LT(half.ExpectedNodes(), full.ExpectedNodes());
  EXPECT_GE(half.num_blocks, half.files_per_snapshot);
}

}  // namespace
}  // namespace godiva::mesh
