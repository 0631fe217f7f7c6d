// Tests for the visualization substrate: math, camera projection, marching
// tetrahedra invariants, slicing, rasterization, colormaps, derived fields,
// and PPM output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mesh/dataset_spec.h"
#include "mesh/fields.h"
#include "mesh/snapshot_writer.h"
#include "sim/sim_env.h"
#include "viz/camera.h"
#include "viz/colormap.h"
#include "viz/cell_to_node.h"
#include "viz/derived.h"
#include "viz/glyphs.h"
#include "viz/image.h"
#include "viz/marching_tets.h"
#include "viz/rasterizer.h"
#include "viz/triangle_soup.h"
#include "viz/vec.h"

namespace godiva::viz {
namespace {

TEST(VecTest, BasicAlgebra) {
  Vec3 a{1, 2, 3};
  Vec3 b{4, 5, 6};
  Vec3 sum = a + b;
  EXPECT_EQ(sum.x, 5);
  EXPECT_EQ(sum.y, 7);
  EXPECT_EQ(sum.z, 9);
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  Vec3 cross = Cross(Vec3{1, 0, 0}, Vec3{0, 1, 0});
  EXPECT_DOUBLE_EQ(cross.z, 1.0);
  EXPECT_DOUBLE_EQ(Length(Vec3{3, 4, 0}), 5.0);
  Vec3 n = Normalized(Vec3{10, 0, 0});
  EXPECT_DOUBLE_EQ(n.x, 1.0);
  Vec3 mid = Lerp(a, b, 0.5);
  EXPECT_DOUBLE_EQ(mid.x, 2.5);
}

TEST(CameraTest, TargetProjectsToImageCenter) {
  Camera::Options options;
  options.position = {0, 0, -5};
  options.target = {0, 0, 0};
  Camera camera(options, 200, 100);
  ProjectedPoint p = camera.Project({0, 0, 0});
  ASSERT_TRUE(p.in_front);
  EXPECT_NEAR(p.x, 100.0, 1e-9);
  EXPECT_NEAR(p.y, 50.0, 1e-9);
  EXPECT_NEAR(p.depth, 5.0, 1e-9);
}

TEST(CameraTest, PointsBehindCameraAreCulled) {
  Camera::Options options;
  options.position = {0, 0, -5};
  options.target = {0, 0, 0};
  Camera camera(options, 200, 100);
  EXPECT_FALSE(camera.Project({0, 0, -10}).in_front);
}

TEST(CameraTest, UpIsUpOnScreen) {
  Camera::Options options;
  options.position = {0, 0, -5};
  options.target = {0, 0, 0};
  Camera camera(options, 200, 200);
  ProjectedPoint above = camera.Project({0, 1, 0});
  ProjectedPoint below = camera.Project({0, -1, 0});
  EXPECT_LT(above.y, below.y);  // screen y grows downward
}

TEST(ColormapTest, EndpointsAndMidpoints) {
  Colormap cm(ColormapKind::kGray, 0.0, 10.0);
  EXPECT_EQ(cm.Map(0.0).r, 0);
  EXPECT_EQ(cm.Map(10.0).r, 255);
  EXPECT_NEAR(cm.Map(5.0).r, 128, 1);
  // Clamping.
  EXPECT_EQ(cm.Map(-5.0).r, 0);
  EXPECT_EQ(cm.Map(99.0).r, 255);
}

TEST(ColormapTest, CoolWarmIsBlueToRed) {
  Colormap cm(ColormapKind::kCoolWarm, 0.0, 1.0);
  Rgb cold = cm.Map(0.0);
  Rgb hot = cm.Map(1.0);
  EXPECT_GT(cold.b, cold.r);
  EXPECT_GT(hot.r, hot.b);
}

TEST(ColormapTest, DegenerateRangeIsSafe) {
  Colormap cm(ColormapKind::kViridis, 3.0, 3.0);
  Rgb mid = cm.Map(3.0);
  (void)mid;  // must not crash or divide by zero
}

// One unit tet: nodes 0..3 at origin + axes.
BlockGeometry UnitTet(std::vector<double>* x, std::vector<double>* y,
                      std::vector<double>* z, std::vector<int32_t>* conn) {
  *x = {0, 1, 0, 0};
  *y = {0, 0, 1, 0};
  *z = {0, 0, 0, 1};
  *conn = {0, 1, 2, 3};
  return BlockGeometry{*x, *y, *z, *conn};
}

TEST(MarchingTetsTest, OneIsolatedNodeYieldsOneTriangle) {
  std::vector<double> x, y, z;
  std::vector<int32_t> conn;
  BlockGeometry g = UnitTet(&x, &y, &z, &conn);
  std::vector<double> scalar = {1.0, 0.0, 0.0, 0.0};  // node 0 above
  std::vector<double> attr = {10, 20, 30, 40};
  TriangleSoup soup;
  int64_t visited = MarchTets(g, scalar, 0.5, attr, &soup);
  EXPECT_EQ(visited, 1);
  EXPECT_EQ(soup.num_triangles(), 1);
  // All crossing points at midpoints of edges from node 0.
  for (const Vec3& p : soup.positions) {
    EXPECT_NEAR(p.x + p.y + p.z, 0.5, 1e-12);
  }
}

TEST(MarchingTetsTest, TwoTwoSplitYieldsTwoTriangles) {
  std::vector<double> x, y, z;
  std::vector<int32_t> conn;
  BlockGeometry g = UnitTet(&x, &y, &z, &conn);
  std::vector<double> scalar = {1.0, 1.0, 0.0, 0.0};
  std::vector<double> attr = {0, 0, 0, 0};
  TriangleSoup soup;
  MarchTets(g, scalar, 0.5, attr, &soup);
  EXPECT_EQ(soup.num_triangles(), 2);
}

TEST(MarchingTetsTest, NoCrossingYieldsNothing) {
  std::vector<double> x, y, z;
  std::vector<int32_t> conn;
  BlockGeometry g = UnitTet(&x, &y, &z, &conn);
  std::vector<double> scalar = {1, 2, 3, 4};
  std::vector<double> attr = {0, 0, 0, 0};
  TriangleSoup soup;
  MarchTets(g, scalar, 9.0, attr, &soup);
  EXPECT_EQ(soup.num_triangles(), 0);
  MarchTets(g, scalar, 0.5, attr, &soup);
  EXPECT_EQ(soup.num_triangles(), 0);  // all above
}

TEST(MarchingTetsTest, AttributeInterpolatesAlongEdges) {
  std::vector<double> x, y, z;
  std::vector<int32_t> conn;
  BlockGeometry g = UnitTet(&x, &y, &z, &conn);
  std::vector<double> scalar = {1.0, 0.0, 0.0, 0.0};
  std::vector<double> attr = {100.0, 0.0, 0.0, 0.0};
  TriangleSoup soup;
  MarchTets(g, scalar, 0.5, attr, &soup);
  ASSERT_EQ(soup.attributes.size(), 3u);
  for (double a : soup.attributes) EXPECT_NEAR(a, 50.0, 1e-12);
}

TEST(MarchingTetsTest, IsosurfaceOfLinearFieldIsPlanar) {
  // On a real block, the level set of the scalar field f = z should lie
  // exactly on the plane z = isovalue.
  mesh::DatasetSpec spec = mesh::DatasetSpec::Tiny();
  std::vector<mesh::MeshBlock> blocks = mesh::MakeBlocks(spec);
  const mesh::MeshBlock& block = blocks[2];
  BlockGeometry g{block.x, block.y, block.z, block.tets};
  std::vector<double> scalar(block.z.begin(), block.z.end());
  TriangleSoup soup;
  double isovalue = 0.5 * (block.z.front() + block.z.back());
  MarchTets(g, scalar, isovalue, scalar, &soup);
  ASSERT_GT(soup.num_triangles(), 0);
  for (const Vec3& p : soup.positions) {
    EXPECT_NEAR(p.z, isovalue, 1e-9);
  }
  // And the carried attribute (same field) equals the isovalue.
  for (double a : soup.attributes) EXPECT_NEAR(a, isovalue, 1e-9);
}

TEST(MarchingTetsTest, SlicePlaneLiesOnPlane) {
  mesh::DatasetSpec spec = mesh::DatasetSpec::Tiny();
  std::vector<mesh::MeshBlock> blocks = mesh::MakeBlocks(spec);
  const mesh::MeshBlock& block = blocks[0];
  BlockGeometry g{block.x, block.y, block.z, block.tets};
  std::vector<double> attr(static_cast<size_t>(block.num_nodes()), 1.0);
  TriangleSoup soup;
  Vec3 normal{1, 0, 0};
  SlicePlane(g, normal, 0.4, attr, &soup);
  ASSERT_GT(soup.num_triangles(), 0);
  for (const Vec3& p : soup.positions) {
    EXPECT_NEAR(p.x, 0.4, 1e-9);
  }
}

TEST(DerivedTest, VonMisesOfHydrostaticStressIsZero) {
  std::vector<double> s(5, 7.0e6);
  std::vector<double> zero(5, 0.0);
  std::vector<double> vm = VonMises(s, s, s, zero, zero, zero);
  for (double v : vm) EXPECT_NEAR(v, 0.0, 1e-6);
}

TEST(DerivedTest, VonMisesUniaxial) {
  // Uniaxial stress: von Mises equals the applied stress.
  std::vector<double> sxx = {2.0e6};
  std::vector<double> zero = {0.0};
  std::vector<double> vm = VonMises(sxx, zero, zero, zero, zero, zero);
  EXPECT_NEAR(vm[0], 2.0e6, 1.0);
}

// Scalar references for the derived-field kernels. derived.cc is compiled
// without errno (src/viz/CMakeLists.txt), so an optimized build packs its
// square roots into sqrtpd; this file keeps the default flags, so these
// loops take one scalar square root per value. Sums in the kernels' order.
std::vector<double> ScalarMagnitude(const std::vector<double>& vx,
                                    const std::vector<double>& vy,
                                    const std::vector<double>& vz) {
  std::vector<double> out(vx.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = std::sqrt(vx[i] * vx[i] + vy[i] * vy[i] + vz[i] * vz[i]);
  }
  return out;
}

std::vector<double> ScalarVonMises(const std::vector<std::vector<double>>& s) {
  std::vector<double> out(s[0].size());
  for (size_t i = 0; i < out.size(); ++i) {
    double dxy = s[0][i] - s[1][i];
    double dyz = s[1][i] - s[2][i];
    double dzx = s[2][i] - s[0][i];
    out[i] = std::sqrt(0.5 * (dxy * dxy + dyz * dyz + dzx * dzx) +
                       3.0 * (s[3][i] * s[3][i] + s[4][i] * s[4][i] +
                              s[5][i] * s[5][i]));
  }
  return out;
}

// Component `component` of a kernel input of `n` values: every few values
// a special one (±0, subnormals, 1e±300, whose squares overflow to inf,
// ±inf, NaN, negatives), at a different stride per component so they meet
// each other, and seeded values of mixed sign and magnitude in between,
// whose squares round differently when summed in another order.
std::vector<double> KernelInput(size_t n, int component) {
  const double kSpecial[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -2.5e-310,
                             1e300,
                             -1e300,
                             1e-300,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -1.5,
                             -3.0e6};
  const size_t stride = 3 + static_cast<size_t>(component);
  Random rng(1000 + static_cast<uint64_t>(component));
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % stride == 0) {
      values[i] = kSpecial[(i / stride + static_cast<size_t>(component)) %
                           std::size(kSpecial)];
    } else {
      values[i] = std::ldexp(rng.NextDouble(-1.0, 1.0),
                             static_cast<int>(rng.NextBounded(80)) - 40);
    }
  }
  return values;
}

// Byte-for-byte equality, naming the first value that differs.
void ExpectSameBytes(const std::vector<double>& got,
                     const std::vector<double>& want, const char* kernel) {
  ASSERT_EQ(got.size(), want.size()) << kernel;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      ADD_FAILURE() << kernel << " of " << got.size() << " values differs at "
                    << i << ": " << std::hexfloat << got[i] << " vs "
                    << want[i];
      return;
    }
  }
}

TEST(DerivedTest, KernelsMatchAScalarLoopBitForBit) {
  // 1,255 is a window_query block: an odd tail after every packed pair.
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{1255}}) {
    SCOPED_TRACE(n);
    std::vector<std::vector<double>> in;
    for (int c = 0; c < 6; ++c) in.push_back(KernelInput(n, c));
    ExpectSameBytes(Magnitude(in[0], in[1], in[2]),
                    ScalarMagnitude(in[0], in[1], in[2]), "Magnitude");
    ExpectSameBytes(VonMises(in[0], in[1], in[2], in[3], in[4], in[5]),
                    ScalarVonMises(in), "VonMises");
  }
}

TEST(DerivedTest, MagnitudeOfUnitAxes) {
  std::vector<double> vx = {1, 0, 3};
  std::vector<double> vy = {0, 2, 4};
  std::vector<double> vz = {0, 0, 0};
  std::vector<double> m = Magnitude(vx, vy, vz);
  EXPECT_DOUBLE_EQ(m[0], 1.0);
  EXPECT_DOUBLE_EQ(m[1], 2.0);
  EXPECT_DOUBLE_EQ(m[2], 5.0);
}

TEST(RasterizerTest, DrawsVisibleTriangle) {
  Camera::Options options;
  options.position = {0.5, 0.5, -3};
  options.target = {0.5, 0.5, 0};
  Camera camera(options, 64, 64);
  TriangleSoup soup;
  soup.AddTriangle({0, 0, 0}, {1, 0, 0}, {0.5, 1, 0}, 0, 0.5, 1.0);
  Rasterizer raster(64, 64);
  Colormap cm(ColormapKind::kViridis, 0, 1);
  int64_t written = raster.Draw(soup, camera, cm);
  EXPECT_GT(written, 10);
  EXPECT_GT(raster.image().CountNonBackground(), 10);
}

TEST(RasterizerTest, ZBufferKeepsNearSurface) {
  Camera::Options options;
  options.position = {0.5, 0.5, -3};
  options.target = {0.5, 0.5, 0};
  Camera camera(options, 64, 64);
  Colormap cm(ColormapKind::kGray, 0, 1);
  Rasterizer raster(64, 64);
  // Far triangle: white (attr 1). Near triangle: black (attr 0).
  TriangleSoup far_soup;
  far_soup.AddTriangle({-2, -2, 2}, {3, -2, 2}, {0.5, 3, 2}, 1, 1, 1);
  TriangleSoup near_soup;
  near_soup.AddTriangle({-2, -2, 1}, {3, -2, 1}, {0.5, 3, 1}, 0, 0, 0);
  raster.Draw(far_soup, camera, cm);
  raster.Draw(near_soup, camera, cm);
  // Center pixel must come from the near (dark) triangle.
  Rgb center = raster.image().Get(32, 32);
  EXPECT_LT(center.r, 64);
}

TEST(RasterizerTest, BehindCameraTrianglesCulled) {
  Camera::Options options;
  options.position = {0, 0, 0};
  options.target = {0, 0, 1};
  Camera camera(options, 32, 32);
  TriangleSoup soup;
  soup.AddTriangle({0, 0, -2}, {1, 0, -2}, {0, 1, -2}, 0, 0, 0);
  Rasterizer raster(32, 32);
  Colormap cm(ColormapKind::kGray, 0, 1);
  EXPECT_EQ(raster.Draw(soup, camera, cm), 0);
}

TEST(RasterizerTest, ClearResetsImageAndDepth) {
  Camera::Options options;
  options.position = {0.5, 0.5, -3};
  options.target = {0.5, 0.5, 0};
  Camera camera(options, 32, 32);
  TriangleSoup soup;
  soup.AddTriangle({-2, -2, 1}, {3, -2, 1}, {0.5, 3, 1}, 1, 1, 1);
  Rasterizer raster(32, 32);
  Colormap cm(ColormapKind::kGray, 0, 1);
  raster.Draw(soup, camera, cm);
  raster.Clear();
  EXPECT_EQ(raster.image().CountNonBackground(), 0);
  // Depth buffer cleared too: drawing again writes pixels again.
  EXPECT_GT(raster.Draw(soup, camera, cm), 0);
}

TEST(ImageTest, PpmRoundTripHeaderAndSize) {
  SimEnv env{SimEnv::Options{}};
  Image image(8, 4);
  image.Set(3, 2, Rgb{255, 0, 0});
  ASSERT_TRUE(image.WritePpm(&env, "out.ppm").ok());
  auto size = env.GetFileSize("out.ppm");
  ASSERT_TRUE(size.ok());
  // "P6\n8 4\n255\n" = 11 bytes + 8*4*3 payload.
  EXPECT_EQ(*size, 11 + 96);
}

TEST(TriangleSoupTest, AttributeRange) {
  TriangleSoup soup;
  double lo, hi;
  soup.AttributeRange(&lo, &hi);
  EXPECT_EQ(lo, 0.0);
  EXPECT_EQ(hi, 1.0);
  soup.AddTriangle({}, {}, {}, -3.0, 5.0, 1.0);
  soup.AttributeRange(&lo, &hi);
  EXPECT_EQ(lo, -3.0);
  EXPECT_EQ(hi, 5.0);
}

TEST(TriangleSoupTest, AppendConcatenates) {
  TriangleSoup a;
  a.AddTriangle({}, {}, {}, 1, 1, 1);
  TriangleSoup b;
  b.AddTriangle({}, {}, {}, 2, 2, 2);
  b.AddTriangle({}, {}, {}, 3, 3, 3);
  a.Append(b);
  EXPECT_EQ(a.num_triangles(), 3);
}

TEST(GlyphsTest, EmitsTwoTrianglesPerSampledNode) {
  std::vector<double> x, y, z;
  std::vector<int32_t> conn;
  BlockGeometry g = UnitTet(&x, &y, &z, &conn);
  std::vector<double> vx = {1, 0, 0, 2};
  std::vector<double> vy = {0, 1, 0, 0};
  std::vector<double> vz = {0, 0, 1, 0};
  TriangleSoup soup;
  GlyphOptions options;
  options.node_stride = 1;
  int64_t glyphs = MakeVectorGlyphs(g, vx, vy, vz, options, &soup);
  EXPECT_EQ(glyphs, 4);
  EXPECT_EQ(soup.num_triangles(), 8);
  // Attribute carries the magnitude.
  double lo, hi;
  soup.AttributeRange(&lo, &hi);
  EXPECT_DOUBLE_EQ(lo, 1.0);
  EXPECT_DOUBLE_EQ(hi, 2.0);
}

TEST(GlyphsTest, ZeroVectorsAreSkipped) {
  std::vector<double> x, y, z;
  std::vector<int32_t> conn;
  BlockGeometry g = UnitTet(&x, &y, &z, &conn);
  std::vector<double> zero(4, 0.0);
  std::vector<double> vx = {1, 0, 0, 0};
  TriangleSoup soup;
  GlyphOptions options;
  options.node_stride = 1;
  EXPECT_EQ(MakeVectorGlyphs(g, vx, zero, zero, options, &soup), 1);
  EXPECT_EQ(MakeVectorGlyphs(g, zero, zero, zero, options, &soup), 0);
}

TEST(GlyphsTest, StrideSamplesNodes) {
  mesh::DatasetSpec spec = mesh::DatasetSpec::Tiny();
  std::vector<mesh::MeshBlock> blocks = mesh::MakeBlocks(spec);
  const mesh::MeshBlock& block = blocks[0];
  BlockGeometry g{block.x, block.y, block.z, block.tets};
  std::vector<double> ones(static_cast<size_t>(block.num_nodes()), 1.0);
  TriangleSoup every;
  TriangleSoup sampled;
  GlyphOptions dense;
  dense.node_stride = 1;
  GlyphOptions sparse;
  sparse.node_stride = 4;
  MakeVectorGlyphs(g, ones, ones, ones, dense, &every);
  MakeVectorGlyphs(g, ones, ones, ones, sparse, &sampled);
  EXPECT_GT(every.num_triangles(), sampled.num_triangles() * 3);
}

TEST(GlyphsTest, GlyphLengthScalesWithMagnitude) {
  std::vector<double> x = {0, 10};
  std::vector<double> y = {0, 0};
  std::vector<double> z = {0, 0};
  std::vector<int32_t> conn;  // no tets needed for glyphs
  BlockGeometry g{x, y, z, conn};
  std::vector<double> vx = {1.0, 2.0};
  std::vector<double> zero = {0.0, 0.0};
  TriangleSoup soup;
  GlyphOptions options;
  options.node_stride = 1;
  options.max_length = 1.0;
  MakeVectorGlyphs(g, vx, zero, zero, options, &soup);
  // Tips are vertices 2 and 5 (third vertex of each node's first fin):
  // node 0 tip at x=0.5, node 1 tip at x=11.0.
  ASSERT_EQ(soup.num_triangles(), 4);
  EXPECT_NEAR(soup.positions[2].x, 0.5, 1e-12);
  EXPECT_NEAR(soup.positions[8].x, 11.0, 1e-12);
}

TEST(CellToNodeTest, ConstantFieldStaysConstant) {
  mesh::DatasetSpec spec = mesh::DatasetSpec::Tiny();
  std::vector<mesh::MeshBlock> blocks = mesh::MakeBlocks(spec);
  const mesh::MeshBlock& block = blocks[1];
  BlockGeometry g{block.x, block.y, block.z, block.tets};
  std::vector<double> element_values(
      static_cast<size_t>(block.num_tets()), 7.25);
  std::vector<double> node_values = CellToNode(g, element_values);
  ASSERT_EQ(static_cast<int64_t>(node_values.size()), block.num_nodes());
  for (double v : node_values) EXPECT_NEAR(v, 7.25, 1e-12);
}

TEST(CellToNodeTest, AveragePreservesBounds) {
  mesh::DatasetSpec spec = mesh::DatasetSpec::Tiny();
  std::vector<mesh::MeshBlock> blocks = mesh::MakeBlocks(spec);
  const mesh::MeshBlock& block = blocks[0];
  BlockGeometry g{block.x, block.y, block.z, block.tets};
  Result<std::vector<double>> element_values =
      mesh::SynthesizeQuantity(block, "stress", 1e-4);
  ASSERT_TRUE(element_values.ok()) << element_values.status();
  double lo = *std::min_element(element_values->begin(),
                                element_values->end());
  double hi = *std::max_element(element_values->begin(),
                                element_values->end());
  std::vector<double> node_values = CellToNode(g, *element_values);
  for (double v : node_values) {
    EXPECT_GE(v, lo - 1e-9);
    EXPECT_LE(v, hi + 1e-9);
  }
}

TEST(CellToNodeTest, SingleTetAveragesToItsValue) {
  std::vector<double> x, y, z;
  std::vector<int32_t> conn;
  BlockGeometry g = UnitTet(&x, &y, &z, &conn);
  std::vector<double> element_values = {3.5};
  std::vector<double> node_values = CellToNode(g, element_values);
  for (double v : node_values) EXPECT_DOUBLE_EQ(v, 3.5);
}

// Property sweep: isosurfaces of the synthetic von Mises field at several
// isovalues are watertight-ish (every triangle has finite, in-bounds
// vertices) and non-empty for mid-range isovalues.
class IsosurfaceSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(IsosurfaceSweepTest, TrianglesAreFiniteAndInsideBlockBounds) {
  double fraction = GetParam();
  mesh::DatasetSpec spec = mesh::DatasetSpec::Tiny();
  std::vector<mesh::MeshBlock> blocks = mesh::MakeBlocks(spec);
  for (const mesh::MeshBlock& block : blocks) {
    BlockGeometry g{block.x, block.y, block.z, block.tets};
    std::vector<std::vector<double>> s;
    for (const char* name : {"sxx", "syy", "szz", "sxy", "syz", "szx"}) {
      Result<std::vector<double>> column =
          mesh::SynthesizeQuantity(block, name, 1e-4);
      ASSERT_TRUE(column.ok()) << column.status();
      s.push_back(std::move(column).value());
    }
    std::vector<double> vm = VonMises(s[0], s[1], s[2], s[3], s[4], s[5]);
    double lo = *std::min_element(vm.begin(), vm.end());
    double hi = *std::max_element(vm.begin(), vm.end());
    double isovalue = lo + fraction * (hi - lo);
    TriangleSoup soup;
    MarchTets(g, vm, isovalue, vm, &soup);
    for (const Vec3& p : soup.positions) {
      EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y) &&
                  std::isfinite(p.z));
      EXPECT_GE(p.z, -1e-9);
      EXPECT_LE(p.z, spec.lz + 1e-9);
    }
    for (double a : soup.attributes) {
      EXPECT_NEAR(a, isovalue, 1e-6 * (1.0 + std::abs(isovalue)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, IsosurfaceSweepTest,
                         ::testing::Values(0.2, 0.35, 0.5, 0.65, 0.8));

}  // namespace
}  // namespace godiva::viz
