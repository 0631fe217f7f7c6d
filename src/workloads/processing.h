// The data-processing stage shared by all Voyager variants: derived-field
// computation and feature extraction over block views, plus optional real
// rendering. Real extraction runs on a strided subset of blocks (enough to
// validate the pipeline end to end); the full processing cost is charged to
// the virtual CPU by the caller via VizTestSpec::compute_seconds_per_mib —
// see DESIGN.md §1 on the compute model.
#ifndef GODIVA_WORKLOADS_PROCESSING_H_
#define GODIVA_WORKLOADS_PROCESSING_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "viz/marching_tets.h"
#include "viz/rasterizer.h"
#include "workloads/test_spec.h"

namespace godiva::workloads {

// One block's data as spans over buffers owned elsewhere (GODIVA field
// buffers or PlainBlock vectors).
struct BlockView {
  int32_t block_id = 0;
  viz::BlockGeometry geometry;
  std::map<std::string, std::span<const double>> fields;
};

struct ProcessOptions {
  // Extract features for every Nth block (1 = all blocks).
  int real_work_stride = 16;
  // Rasterize extracted geometry into `rasterizer` when non-null.
  viz::Rasterizer* rasterizer = nullptr;
};

struct PassResult {
  int64_t bytes_processed = 0;  // mesh + quantity bytes over all blocks
  int64_t tets_visited = 0;
  int64_t triangles = 0;
  int64_t pixels = 0;
};

// Computes the pass's derived scalar over the sampled blocks, extracts
// every feature, optionally renders, and reports sizes. Without a
// rasterizer each block's triangles are counted and dropped, so at most
// one block's geometry is held at a time; with one, the whole pass's
// triangles are kept and drawn once over their common attribute range.
// Fails if a block view is missing a required quantity.
Result<PassResult> ProcessPass(const RenderPass& pass,
                               const std::vector<BlockView>& blocks,
                               const ProcessOptions& options);

}  // namespace godiva::workloads

#endif  // GODIVA_WORKLOADS_PROCESSING_H_
