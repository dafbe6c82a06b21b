// Tests for the particle<->voxel pipeline: SPH/Shepard deposition, the
// 8-channel log encoding, and the Gibbs-sampling particle regeneration with
// exact mass conservation (paper §3.3).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/units.hpp"
#include "voxel/voxel.hpp"

namespace {

using asura::fdps::Particle;
using asura::fdps::Species;
using asura::util::Pcg32;
using asura::util::Vec3d;
using asura::voxel::VoxelGrid;
using asura::voxel::VoxelParams;

Particle gasParticle(Vec3d pos, double mass, double h, Vec3d vel = {}, double T = 1e4) {
  Particle p;
  p.type = Species::Gas;
  p.pos = pos;
  p.mass = mass;
  p.h = h;
  p.vel = vel;
  p.u = asura::units::temperature_to_u(T, 0.6);
  return p;
}

TEST(VoxelGridTest, GeometryHelpers) {
  VoxelGrid g(4, 8.0, {-4, -4, -4});
  EXPECT_DOUBLE_EQ(g.cellSize(), 2.0);
  EXPECT_DOUBLE_EQ(g.cellVolume(), 8.0);
  EXPECT_EQ(g.cellCenter(0, 0, 0), Vec3d(-3, -3, -3));
  EXPECT_EQ(g.cellCenter(3, 3, 3), Vec3d(3, 3, 3));
}

TEST(VoxelGridTest, TrilinearSampleReproducesLinearField) {
  VoxelGrid g(8, 8.0, {0, 0, 0});
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      for (int k = 0; k < 8; ++k) {
        const Vec3d c = g.cellCenter(i, j, k);
        g.rho[g.idx(i, j, k)] = 2.0 * c.x + 3.0 * c.y - c.z + 10.0;
      }
    }
  }
  // Interior points: trilinear interpolation is exact for linear fields.
  Pcg32 rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec3d p{rng.uniform(1.0, 7.0), rng.uniform(1.0, 7.0), rng.uniform(1.0, 7.0)};
    const double expect = 2.0 * p.x + 3.0 * p.y - p.z + 10.0;
    EXPECT_NEAR(g.sample(g.rho, p), expect, 1e-9);
  }
}

TEST(Deposit, SingleParticleMassConserved) {
  std::vector<Particle> gas{gasParticle({0, 0, 0}, 5.0, 6.0)};
  VoxelParams vp;
  vp.grid_n = 32;
  const VoxelGrid g = asura::voxel::depositParticles(gas, {0, 0, 0}, 60.0, vp);
  // Total grid mass ~ particle mass (kernel normalization on the grid).
  EXPECT_NEAR(g.totalMass(), 5.0, 0.5);
}

TEST(Deposit, UniformLatticeIsUniform) {
  // Regular 18^3 lattice of equal-mass particles with overlapping kernels.
  std::vector<Particle> gas;
  const int npd = 18;
  const double spacing = 60.0 / npd;
  for (int i = 0; i < npd; ++i) {
    for (int j = 0; j < npd; ++j) {
      for (int k = 0; k < npd; ++k) {
        gas.push_back(gasParticle({-30.0 + (i + 0.5) * spacing,
                                   -30.0 + (j + 0.5) * spacing,
                                   -30.0 + (k + 0.5) * spacing},
                                  1.0, 2.5 * spacing));
      }
    }
  }
  VoxelParams vp;
  vp.grid_n = 16;
  const VoxelGrid g = asura::voxel::depositParticles(gas, {0, 0, 0}, 60.0, vp);
  const double n_total = static_cast<double>(gas.size());
  EXPECT_NEAR(g.totalMass(), n_total, 0.1 * n_total);
  // Interior cells near the mean density.
  const double rho0 = n_total / (60.0 * 60.0 * 60.0);
  for (int i = 4; i < 12; ++i) {
    for (int j = 4; j < 12; ++j) {
      EXPECT_NEAR(g.rho[g.idx(i, j, 8)], rho0, 0.25 * rho0);
    }
  }
}

TEST(Deposit, ShepardAveragesIntensiveFields) {
  // Two co-located particle groups with different velocities: cell velocity
  // must be the mass-weighted mean, not the sum.
  std::vector<Particle> gas;
  for (int i = 0; i < 10; ++i) {
    gas.push_back(gasParticle({0.1 * i, 0, 0}, 1.0, 8.0, {10.0, 0, 0}));
    gas.push_back(gasParticle({0.1 * i, 0.1, 0}, 1.0, 8.0, {-4.0, 0, 0}));
  }
  VoxelParams vp;
  vp.grid_n = 8;
  const VoxelGrid g = asura::voxel::depositParticles(gas, {0, 0, 0}, 40.0, vp);
  const double v_center = g.sample(g.vx, {0.5, 0.0, 0.0});
  EXPECT_NEAR(v_center, 3.0, 1.0);  // mean of +10 and -4
}

TEST(Deposit, EmptyCellsGetFloors) {
  std::vector<Particle> gas{gasParticle({-25, -25, -25}, 1.0, 2.0)};
  VoxelParams vp;
  vp.grid_n = 8;
  const VoxelGrid g = asura::voxel::depositParticles(gas, {0, 0, 0}, 60.0, vp);
  // Far corner cell is empty -> floors.
  EXPECT_DOUBLE_EQ(g.rho[g.idx(7, 7, 7)], asura::voxel::kRhoFloor);
  EXPECT_DOUBLE_EQ(g.temp[g.idx(7, 7, 7)], asura::voxel::kTempFloor);
}

TEST(Encode, EightChannelsWithVelocitySplit) {
  VoxelGrid g(4, 8.0, {0, 0, 0});
  for (std::size_t c = 0; c < g.rho.size(); ++c) {
    g.rho[c] = 1e-2;
    g.temp[c] = 1e4;
    g.vx[c] = 7.0;   // positive
    g.vy[c] = -3.0;  // negative
    g.vz[c] = 0.0;
  }
  const auto t = asura::voxel::encodeGrid(g);
  ASSERT_EQ(t.dim(0), 8);
  EXPECT_NEAR(t.at(0, 1, 1, 1), std::log10(1e-2), 1e-5);
  EXPECT_NEAR(t.at(1, 1, 1, 1), 4.0, 1e-5);
  // vx+ channel carries log10(7) - log10(floor); vx- is at zero offset.
  EXPECT_NEAR(t.at(2, 1, 1, 1), std::log10(7.0) - std::log10(asura::voxel::kVelFloor), 1e-4);
  EXPECT_NEAR(t.at(3, 1, 1, 1), 0.0, 1e-5);
  // vy mirrored.
  EXPECT_NEAR(t.at(4, 1, 1, 1), 0.0, 1e-5);
  EXPECT_GT(t.at(5, 1, 1, 1), 2.0);
}

TEST(Encode, DecodeRoundTrip) {
  VoxelGrid g(8, 16.0, {0, 0, 0});
  Pcg32 rng(17);
  for (std::size_t c = 0; c < g.rho.size(); ++c) {
    g.rho[c] = std::pow(10.0, rng.uniform(-6, 2));
    g.temp[c] = std::pow(10.0, rng.uniform(1, 7));
    g.vx[c] = rng.uniform(-50, 50);
    g.vy[c] = rng.uniform(-50, 50);
    g.vz[c] = rng.uniform(-50, 50);
  }
  const auto t = asura::voxel::encodeGrid(g);
  const VoxelGrid back = asura::voxel::decodeGrid(t, 16.0, {0, 0, 0});
  constexpr double kVelFloor = asura::voxel::kVelFloor;
  for (std::size_t c = 0; c < g.rho.size(); ++c) {
    EXPECT_NEAR(back.rho[c] / g.rho[c], 1.0, 1e-4);
    EXPECT_NEAR(back.temp[c] / g.temp[c], 1.0, 1e-4);
    // Velocity reconstruction error bounded by the split floor.
    EXPECT_NEAR(back.vx[c], g.vx[c], 2.0 * kVelFloor + 1e-3 * std::abs(g.vx[c]));
    EXPECT_NEAR(back.vz[c], g.vz[c], 2.0 * kVelFloor + 1e-3 * std::abs(g.vz[c]));
  }
}

TEST(Gibbs, MassAndCountExactlyConserved) {
  VoxelGrid g(8, 16.0, {0, 0, 0});
  for (std::size_t c = 0; c < g.rho.size(); ++c) g.rho[c] = 1.0;
  std::vector<Particle> originals;
  for (int i = 0; i < 200; ++i) {
    auto p = gasParticle({1, 1, 1}, 2.5, 1.0);
    p.id = static_cast<std::uint64_t>(i) + 1;
    originals.push_back(p);
  }
  Pcg32 rng(31);
  const auto out = asura::voxel::gridToParticles(g, originals, rng);
  ASSERT_EQ(out.size(), originals.size());
  double m_in = 0.0, m_out = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    m_in += originals[i].mass;
    m_out += out[i].mass;
    EXPECT_EQ(out[i].id, originals[i].id);
  }
  EXPECT_DOUBLE_EQ(m_in, m_out);
}

TEST(Gibbs, SamplesFollowDensityField) {
  // Two-blob density: 3/4 of the mass on the +x half, 1/4 on -x.
  VoxelGrid g(8, 16.0, {-8, -8, -8});
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      for (int k = 0; k < 8; ++k) {
        g.rho[g.idx(i, j, k)] = i >= 4 ? 3.0 : 1.0;
      }
    }
  }
  std::vector<Particle> originals(3000, gasParticle({0, 0, 0}, 1.0, 1.0));
  Pcg32 rng(37);
  const auto out = asura::voxel::gridToParticles(g, originals, rng);
  int plus = 0;
  for (const auto& p : out) plus += p.pos.x > 0.0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(plus) / out.size(), 0.75, 0.03);
}

TEST(Gibbs, FieldsInterpolatedFromGrid) {
  VoxelGrid g(8, 16.0, {-8, -8, -8});
  for (std::size_t c = 0; c < g.rho.size(); ++c) {
    g.rho[c] = 1.0;
    g.vx[c] = 12.0;
    g.temp[c] = 5.0e5;
  }
  std::vector<Particle> originals(50, gasParticle({0, 0, 0}, 1.0, 1.0));
  Pcg32 rng(41);
  const auto out = asura::voxel::gridToParticles(g, originals, rng);
  for (const auto& p : out) {
    EXPECT_NEAR(p.vel.x, 12.0, 1e-6);
    EXPECT_NEAR(asura::units::u_to_temperature(p.u, asura::units::mu_gas), 5.0e5, 1.0e3);
    EXPECT_GT(p.h, 0.0);
    EXPECT_EQ(p.frozen, 0);
  }
}

TEST(Gibbs, RoundTripPreservesBulkStatistics) {
  // particles -> grid -> particles: density PDF and bulk velocity survive.
  Pcg32 rng(53);
  std::vector<Particle> gas;
  for (int i = 0; i < 4000; ++i) {
    gas.push_back(gasParticle(
        {rng.normal(0.0, 8.0), rng.normal(0.0, 8.0), rng.normal(0.0, 8.0)}, 1.0, 4.0,
        {5.0, 0.0, 0.0}));
  }
  VoxelParams vp;
  vp.grid_n = 16;
  const VoxelGrid g = asura::voxel::depositParticles(gas, {0, 0, 0}, 60.0, vp);
  const auto out = asura::voxel::gridToParticles(g, gas, rng);

  // Bulk velocity preserved.
  Vec3d v_mean{};
  for (const auto& p : out) v_mean += p.vel;
  v_mean /= static_cast<double>(out.size());
  EXPECT_NEAR(v_mean.x, 5.0, 0.5);
  // Mass concentration: the central 15 pc sphere holds most of the mass
  // before and after.
  auto central_fraction = [](const std::vector<Particle>& ps) {
    int n = 0;
    for (const auto& p : ps) n += p.pos.norm() < 15.0 ? 1 : 0;
    return static_cast<double>(n) / ps.size();
  };
  EXPECT_NEAR(central_fraction(out), central_fraction(gas), 0.1);
}

// ---------------------------------------------------------------------------
// ROI projection: the scenario service's read-only query path
// ---------------------------------------------------------------------------

std::vector<Particle> roiCloud(int n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Particle> gas;
  gas.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    gas.push_back(gasParticle(
        {rng.normal(0.0, 8.0), rng.normal(0.0, 8.0), rng.normal(0.0, 8.0)}, 1.0,
        rng.uniform(2.0, 5.0), {rng.normal(0.0, 3.0), 0.0, 0.0}));
  }
  return gas;
}

TEST(Roi, WholeDomainRoiMatchesFullDepositBitwise) {
  const auto gas = roiCloud(600, 91);
  VoxelParams vp;
  vp.grid_n = 16;
  const VoxelGrid full = asura::voxel::depositParticles(gas, {0, 0, 0}, 60.0, vp);

  asura::voxel::RoiSpec spec;
  spec.center = {0, 0, 0};
  spec.box_size = 60.0;
  spec.grid_n = 16;
  const VoxelGrid roi = asura::voxel::projectRoi(gas, spec);

  // The conservative prefilter must not change the deposit: covering the
  // whole domain, the ROI grid is the full deposit, bitwise.
  ASSERT_EQ(roi.rho.size(), full.rho.size());
  for (std::size_t i = 0; i < full.rho.size(); ++i) {
    EXPECT_EQ(roi.rho[i], full.rho[i]) << "rho cell " << i;
    EXPECT_EQ(roi.temp[i], full.temp[i]) << "temp cell " << i;
    EXPECT_EQ(roi.vx[i], full.vx[i]) << "vx cell " << i;
    EXPECT_EQ(roi.vy[i], full.vy[i]) << "vy cell " << i;
    EXPECT_EQ(roi.vz[i], full.vz[i]) << "vz cell " << i;
  }
}

TEST(Roi, RepeatedQueriesArePureAndInputUntouched) {
  const auto gas = roiCloud(300, 17);
  const auto before = gas;
  asura::voxel::RoiSpec spec;
  spec.center = {4.0, -2.0, 1.0};
  spec.box_size = 20.0;
  spec.grid_n = 8;
  const VoxelGrid a = asura::voxel::projectRoi(gas, spec);
  const VoxelGrid b = asura::voxel::projectRoi(gas, spec);
  EXPECT_EQ(a.rho, b.rho);
  EXPECT_EQ(a.temp, b.temp);
  for (std::size_t i = 0; i < gas.size(); ++i) {
    EXPECT_EQ(gas[i].pos.x, before[i].pos.x);
    EXPECT_EQ(gas[i].mass, before[i].mass);
  }
}

TEST(Roi, InvalidSpecRejected) {
  const auto gas = roiCloud(10, 3);
  asura::voxel::RoiSpec spec;
  spec.box_size = -1.0;
  EXPECT_THROW(asura::voxel::projectRoi(gas, spec), std::invalid_argument);
  spec.box_size = 60.0;
  spec.grid_n = 0;
  EXPECT_THROW(asura::voxel::projectRoi(gas, spec), std::invalid_argument);
}

}  // namespace
