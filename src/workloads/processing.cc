#include "workloads/processing.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "viz/camera.h"
#include "viz/colormap.h"
#include "viz/derived.h"
#include "viz/glyphs.h"

namespace godiva::workloads {
namespace {

// Computes the pass's derived node scalar for one block.
Result<std::vector<double>> DerivedScalar(const RenderPass& pass,
                                          const BlockView& block) {
  auto field = [&](const std::string& name)
      -> Result<std::span<const double>> {
    auto it = block.fields.find(name);
    if (it == block.fields.end()) {
      return NotFoundError(StrCat("block view missing quantity ", name));
    }
    return it->second;
  };
  switch (pass.derived) {
    case RenderPass::Derived::kFirst: {
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> f,
                              field(pass.quantities.at(0)));
      return std::vector<double>(f.begin(), f.end());
    }
    case RenderPass::Derived::kMagnitude: {
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> vx,
                              field(pass.quantities.at(0)));
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> vy,
                              field(pass.quantities.at(1)));
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> vz,
                              field(pass.quantities.at(2)));
      return viz::Magnitude(vx, vy, vz);
    }
    case RenderPass::Derived::kVonMises: {
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> sxx,
                              field(pass.quantities.at(0)));
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> syy,
                              field(pass.quantities.at(1)));
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> szz,
                              field(pass.quantities.at(2)));
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> sxy,
                              field(pass.quantities.at(3)));
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> syz,
                              field(pass.quantities.at(4)));
      GODIVA_ASSIGN_OR_RETURN(std::span<const double> szx,
                              field(pass.quantities.at(5)));
      return viz::VonMises(sxx, syy, szz, sxy, syz, szx);
    }
  }
  return InternalError("unknown derived kind");
}

}  // namespace

Result<PassResult> ProcessPass(const RenderPass& pass,
                               const std::vector<BlockView>& blocks,
                               const ProcessOptions& options) {
  PassResult result;
  // One block's triangles at a time, unless the pass is rasterized: then
  // the whole pass's, drawn once over their common attribute range.
  viz::TriangleSoup triangles;
  int stride = std::max(1, options.real_work_stride);

  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView& block = blocks[b];
    result.bytes_processed +=
        (block.geometry.x.size() + block.geometry.y.size() +
         block.geometry.z.size()) *
            8 +
        block.geometry.conn.size() * 4;
    for (const std::string& quantity : pass.quantities) {
      auto it = block.fields.find(quantity);
      if (it == block.fields.end()) {
        return NotFoundError(StrCat("block view missing quantity ",
                                    quantity));
      }
      result.bytes_processed += it->second.size() * 8;
    }
    if (b % static_cast<size_t>(stride) != 0) continue;

    GODIVA_ASSIGN_OR_RETURN(std::vector<double> scalar,
                            DerivedScalar(pass, block));
    double lo = scalar.empty() ? 0.0 : scalar[0];
    double hi = lo;
    for (double s : scalar) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    for (const Feature& feature : pass.features) {
      if (feature.kind == Feature::Kind::kIsosurface) {
        double isovalue = lo + feature.level_fraction * (hi - lo);
        result.tets_visited += viz::MarchTets(
            block.geometry, scalar, isovalue, scalar, &triangles);
      } else if (feature.kind == Feature::Kind::kGlyphs) {
        if (pass.quantities.size() < 3) {
          return InvalidArgumentError(
              "glyph feature requires three vector-component quantities");
        }
        viz::GlyphOptions glyph_options;
        viz::MakeVectorGlyphs(block.geometry,
                              block.fields.at(pass.quantities[0]),
                              block.fields.at(pass.quantities[1]),
                              block.fields.at(pass.quantities[2]),
                              glyph_options, &triangles);
      } else {
        // Slice offset as a fraction of the block's extent along the
        // normal.
        double dlo = 0, dhi = 0;
        bool first = true;
        for (size_t i = 0; i < block.geometry.x.size(); ++i) {
          double d = feature.slice_normal.x * block.geometry.x[i] +
                     feature.slice_normal.y * block.geometry.y[i] +
                     feature.slice_normal.z * block.geometry.z[i];
          if (first || d < dlo) dlo = d;
          if (first || d > dhi) dhi = d;
          first = false;
        }
        double offset = dlo + feature.level_fraction * (dhi - dlo);
        result.tets_visited +=
            viz::SlicePlane(block.geometry, feature.slice_normal, offset,
                            scalar, &triangles);
      }
    }
    if (options.rasterizer == nullptr) {
      result.triangles += triangles.num_triangles();
      triangles.Clear();
    }
  }
  if (options.rasterizer == nullptr) return result;

  result.triangles = triangles.num_triangles();
  if (result.triangles > 0) {
    double lo, hi;
    triangles.AttributeRange(&lo, &hi);
    viz::Colormap colormap(viz::ColormapKind::kViridis, lo, hi);
    viz::Camera camera(viz::Camera::Options{},
                       options.rasterizer->image().width(),
                       options.rasterizer->image().height());
    result.pixels =
        options.rasterizer->Draw(triangles, camera, colormap);
  }
  return result;
}

}  // namespace godiva::workloads
