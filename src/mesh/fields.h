// Synthesizes smooth, time-evolving physical fields over a mesh block —
// the stand-in for GENx's simulated solid-propellant state. Fields are
// analytic in (x, y, z, t), so any (block, snapshot) pair regenerates
// identical values, which the tests use to validate reads end-to-end.
// Every field is separable: travelling waves along the rocket axis, which
// depend on z and t alone, combined with factors in x and y such as a
// radial decay.
#ifndef GODIVA_MESH_FIELDS_H_
#define GODIVA_MESH_FIELDS_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "mesh/partition.h"

namespace godiva::mesh {

// The definition of node-based quantity `name` at position (x, y, z) and
// time t. Returns a quiet NaN when `name` is not a node-based quantity of
// kQuantities: an unknown name, or the element-based "stress".
double NodeQuantityAt(std::string_view name, double x, double y, double z,
                      double t);

// Every quantity of `block` at time t, one column per entry of kQuantities
// in that (on-disk) order. A node-based column holds one value per node,
// bit-identical to NodeQuantityAt at that node. "stress" holds one value
// per tet: the mean of sxx, syy and szz at the tet's centroid. Each axial
// wave is evaluated once per distinct z of the block.
std::vector<std::vector<double>> SynthesizeBlock(const MeshBlock& block,
                                                 double t);

// The column of quantity `name` in SynthesizeBlock(block, t); NOT_FOUND,
// naming `name`, if kQuantities has no such quantity.
Result<std::vector<double>> SynthesizeQuantity(const MeshBlock& block,
                                               std::string_view name,
                                               double t);

}  // namespace godiva::mesh

#endif  // GODIVA_MESH_FIELDS_H_
