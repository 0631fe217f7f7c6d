// Unindexed triangle lists with a per-vertex scalar attribute — the
// geometry interchange between extraction filters (isosurface, slice) and
// the rasterizer.
#ifndef GODIVA_VIZ_TRIANGLE_SOUP_H_
#define GODIVA_VIZ_TRIANGLE_SOUP_H_

#include <cstdint>
#include <vector>

#include "viz/vec.h"

namespace godiva::viz {

struct TriangleSoup {
  // 3 vertices per triangle, flattened.
  std::vector<Vec3> positions;
  // Scalar attribute per vertex (drives coloring).
  std::vector<double> attributes;

  int64_t num_triangles() const {
    return static_cast<int64_t>(positions.size()) / 3;
  }

  void AddTriangle(Vec3 a, Vec3 b, Vec3 c, double attr_a, double attr_b,
                   double attr_c) {
    positions.push_back(a);
    positions.push_back(b);
    positions.push_back(c);
    attributes.push_back(attr_a);
    attributes.push_back(attr_b);
    attributes.push_back(attr_c);
  }

  void Append(const TriangleSoup& other) {
    positions.insert(positions.end(), other.positions.begin(),
                     other.positions.end());
    attributes.insert(attributes.end(), other.attributes.begin(),
                      other.attributes.end());
  }

  // Empties the soup and keeps its capacity for the next batch.
  void Clear() {
    positions.clear();
    attributes.clear();
  }

  // Attribute min/max (for colormap ranges); {0,1} when empty.
  void AttributeRange(double* min_out, double* max_out) const;
};

}  // namespace godiva::viz

#endif  // GODIVA_VIZ_TRIANGLE_SOUP_H_
