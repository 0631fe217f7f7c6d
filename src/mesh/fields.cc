#include "mesh/fields.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/strings.h"
#include "mesh/quantities.h"

namespace godiva::mesh {
namespace {

constexpr double kTwoPi = 6.283185307179586;

// A travelling pressure wave along the rocket axis (z): the basis for all
// synthetic quantities.
double Wave(double z, double t, double phase) {
  return std::sin(kTwoPi * (0.35 * z - 40.0 * t) + phase);
}

double CosWave(double z, double t, double phase) {
  return std::cos(kTwoPi * (0.35 * z - 40.0 * t) + phase);
}

double RadialDecay(double x, double y) {
  double r2 = (x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5);
  return 1.0 / (1.0 + 2.0 * r2);
}

// Every axial wave a quantity uses, at one (z, t); each member is named
// after its phase.
struct AxialWaves {
  double sin0, sin04, sin07, sin13, sin19, sin21, sin29;
  double cos0, cos07;
};

AxialWaves WavesAt(double z, double t) {
  return {Wave(z, t, 0.0), Wave(z, t, 0.4), Wave(z, t, 0.7),
          Wave(z, t, 1.3), Wave(z, t, 1.9), Wave(z, t, 2.1),
          Wave(z, t, 2.9), CosWave(z, t, 0.0), CosWave(z, t, 0.7)};
}

// Where a quantity is evaluated: a node, or a tet's centroid.
struct FieldPoint {
  double x, y, z;
  double decay;  // RadialDecay(x, y)
  AxialWaves w;  // WavesAt(z, t)
};

FieldPoint PointAt(double x, double y, double z, const AxialWaves& w) {
  return {x, y, z, RadialDecay(x, y), w};
}

// An exact memo of WavesAt(z, t) for one t, keyed by z's bit pattern, in
// a fixed open-addressed table. A block spans a few axial layers, so its
// nodes and centroids take a few dozen distinct z values and each is
// evaluated once; past that, a full probe window evicts its first entry.
class WaveMemo {
 public:
  explicit WaveMemo(double t) : t_(t) {}

  // Returns a copy: a later lookup may overwrite the entry.
  AxialWaves At(double z) {
    const uint64_t bits = std::bit_cast<uint64_t>(z);
    const size_t home = (bits * 0x9E3779B97F4A7C15u) >> (64 - kLogSize);
    for (size_t probe = 0; probe < kProbes; ++probe) {
      Entry& entry = entries_[(home + probe) % entries_.size()];
      if (!entry.filled) return Fill(&entry, bits, z);
      if (entry.bits == bits) return entry.waves;
    }
    return Fill(&entries_[home], bits, z);
  }

 private:
  static constexpr int kLogSize = 6;
  static constexpr size_t kProbes = 8;
  struct Entry {
    bool filled = false;
    uint64_t bits = 0;
    AxialWaves waves{};
  };

  const AxialWaves& Fill(Entry* entry, uint64_t bits, double z) {
    *entry = {true, bits, WavesAt(z, t_)};
    return entry->waves;
  }

  double t_;
  std::array<Entry, size_t{1} << kLogSize> entries_{};
};

// kQuantities index of `name`; a name that is not there fails the build.
consteval int Q(std::string_view name) {
  for (int i = 0; i < kNumQuantities; ++i) {
    if (kQuantities[i].name == name) return i;
  }
  throw "not a quantity";
}

// The value of node-based quantity kQuantities[q] at `p`, or NaN if q
// names no node-based quantity: the one definition of each of them.
double NodeFormula(int q, const FieldPoint& p) {
  const double x = p.x, y = p.y, z = p.z, decay = p.decay;
  const AxialWaves& w = p.w;
  switch (q) {
    // Stress tensor components: phase-shifted waves with distinct spatial
    // couplings so the von Mises surface is non-trivial.
    case Q("sxx"): return 1e6 * decay * (1.0 + 0.5 * w.sin0) + 1e4 * x * y;
    case Q("syy"): return 1e6 * decay * (1.0 - 0.5 * w.sin0) + 1e4 * y * z;
    case Q("szz"): return 2e6 * decay * w.sin13;
    case Q("sxy"): return 2e5 * decay * w.sin04 * (x - y);
    case Q("syz"): return 2e5 * decay * w.sin21 * (y - 0.5);
    case Q("szx"): return 2e5 * decay * w.sin29 * (x - 0.5);
    // Kinematics: displacement is an axial compression wave; velocity and
    // acceleration are its analytic time derivatives.
    case Q("dispx"): return 1e-3 * (x - 0.5) * w.sin0;
    case Q("dispy"): return 1e-3 * (y - 0.5) * w.sin0;
    case Q("dispz"): return 5e-3 * w.sin07;
    case Q("velx"): return -1e-3 * (x - 0.5) * kTwoPi * 40.0 * w.cos0;
    case Q("vely"): return -1e-3 * (y - 0.5) * kTwoPi * 40.0 * w.cos0;
    case Q("velz"): return -5e-3 * kTwoPi * 40.0 * w.cos07;
    case Q("accx"):
      return -1e-3 * (x - 0.5) * std::pow(kTwoPi * 40.0, 2) * w.sin0;
    case Q("accy"):
      return -1e-3 * (y - 0.5) * std::pow(kTwoPi * 40.0, 2) * w.sin0;
    case Q("accz"): return -5e-3 * std::pow(kTwoPi * 40.0, 2) * w.sin07;
    case Q("density"): return 1800.0 * (1.0 + 0.01 * w.sin0 * decay);
    case Q("energy"): return 2.4e5 * (1.0 + 0.05 * w.sin19 * decay);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// The element-based "stress" (average stress) at a tet's centroid `p`:
// the mean normal stress.
double AverageStress(const FieldPoint& p) {
  return (NodeFormula(Q("sxx"), p) + NodeFormula(Q("syy"), p) +
          NodeFormula(Q("szz"), p)) /
         3.0;
}

// SynthesizeBlock fills "stress" at tet centroids and every other column
// at nodes.
static_assert([] {
  for (int q = 0; q < kNumQuantities; ++q) {
    if (kQuantities[q].node_based == (q == Q("stress"))) return false;
  }
  return true;
}());

}  // namespace

double NodeQuantityAt(std::string_view name, double x, double y, double z,
                      double t) {
  return NodeFormula(FindQuantity(name), PointAt(x, y, z, WavesAt(z, t)));
}

std::vector<std::vector<double>> SynthesizeBlock(const MeshBlock& block,
                                                 double t) {
  std::vector<std::vector<double>> columns(kNumQuantities);
  for (int q = 0; q < kNumQuantities; ++q) {
    columns[q].resize(static_cast<size_t>(
        kQuantities[q].node_based ? block.num_nodes() : block.num_tets()));
  }
  WaveMemo memo(t);
  for (size_t i = 0; i < block.x.size(); ++i) {
    const FieldPoint p =
        PointAt(block.x[i], block.y[i], block.z[i], memo.At(block.z[i]));
    for (int q = 0; q < kNumQuantities; ++q) {
      if (kQuantities[q].node_based) columns[q][i] = NodeFormula(q, p);
    }
  }
  std::vector<double>& stress = columns[Q("stress")];
  for (size_t e = 0; e < stress.size(); ++e) {
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
    stress[e] = AverageStress(PointAt(cx, cy, cz, memo.At(cz)));
  }
  return columns;
}

Result<std::vector<double>> SynthesizeQuantity(const MeshBlock& block,
                                               std::string_view name,
                                               double t) {
  const int q = FindQuantity(name);
  if (q < 0) return NotFoundError(StrCat("no quantity named \"", name, "\""));
  return std::move(SynthesizeBlock(block, t)[static_cast<size_t>(q)]);
}

int FindQuantity(std::string_view name) {
  for (int i = 0; i < kNumQuantities; ++i) {
    if (kQuantities[i].name == name) return i;
  }
  return -1;
}

}  // namespace godiva::mesh
