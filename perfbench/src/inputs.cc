#include <memory>
#include <string>
#include <utility>

#include "bench.h"
#include "common/random.h"
#include "gsdf/reader.h"
#include "mesh/snapshot_writer.h"

namespace perfbench {

godiva::mesh::DatasetSpec SeededTitanIV(uint64_t seed, int snapshots,
                                        double factor) {
  godiva::Random rng(seed ^ 0x7157A41FULL);
  godiva::mesh::DatasetSpec spec =
      factor >= 1.0 ? godiva::mesh::DatasetSpec::TitanIV()
                    : godiva::mesh::DatasetSpec::TitanIVScaled(factor);
  spec.nz += static_cast<int>(rng.NextBounded(5)) - 2;
  spec.dt *= rng.NextDouble(0.9, 1.1);
  spec.num_snapshots = snapshots;
  spec.checksums = true;
  return spec;
}

godiva::Result<DatasetInputs> WriteDataset(
    const godiva::mesh::DatasetSpec& spec) {
  DatasetInputs inputs;
  godiva::SimEnv::Options options;
  options.sim_mode = godiva::SimMode::kDiscreteEvent;
  inputs.env = std::make_unique<godiva::SimEnv>(options);
  {
    trace::Span span("mesh.write");
    GODIVA_ASSIGN_OR_RETURN(
        inputs.dataset,
        godiva::mesh::WriteSnapshotDataset(inputs.env.get(), spec, "dataset"));
  }
  // Nodes as stored: every block's coordinate array, over snapshot 0.
  for (const std::string& path : inputs.dataset.SnapshotFiles(0)) {
    GODIVA_ASSIGN_OR_RETURN(
        std::unique_ptr<godiva::gsdf::Reader> reader,
        godiva::gsdf::Reader::Open(inputs.env.get(), path));
    for (const godiva::gsdf::DatasetInfo& info : reader->datasets()) {
      const std::string suffix = "/x";
      if (info.name.size() > suffix.size() &&
          info.name.compare(info.name.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
        inputs.nodes_per_snapshot += info.num_elements();
      }
    }
  }
  return inputs;
}

}  // namespace perfbench
