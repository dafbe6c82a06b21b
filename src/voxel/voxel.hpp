#pragma once
/// \file voxel.hpp
/// \brief Particle <-> voxel conversion for the surrogate model (paper §3.3).
///
/// Forward: "mapping gas particles into voxels using the SPH kernel
/// convolution and the Shepard algorithm"; the (60 pc)^3 cube becomes 64^3
/// voxels of five physical fields (density, temperature, velocity xyz).
/// Channels: logarithms are taken, and each velocity component is split into
/// positive/negative parts before the log — 8 data cubes total.
///
/// Backward: "we convert it back to particle data using Gibbs sampling" —
/// a genuine MCMC sweep over per-axis conditional densities; "mass
/// conservation is ensured by making the number of created particles the
/// same as the number of particles in the input data" (we additionally
/// preserve ids and per-particle masses).

#include <span>
#include <vector>

#include "fdps/particle.hpp"
#include "ml/tensor.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace asura::voxel {

using fdps::Particle;
using util::Vec3d;

struct VoxelGrid {
  int n = 0;              ///< cells per side
  double box_size = 0.0;  ///< physical side length [pc]
  Vec3d origin{};         ///< lower corner
  std::vector<double> rho, temp, vx, vy, vz;  ///< n^3 each, C-order (x,y,z)

  VoxelGrid() = default;
  VoxelGrid(int n_, double box, Vec3d orig);

  [[nodiscard]] std::size_t idx(int i, int j, int k) const {
    return (static_cast<std::size_t>(i) * n + j) * static_cast<std::size_t>(n) + k;
  }
  [[nodiscard]] double cellSize() const { return box_size / n; }
  [[nodiscard]] double cellVolume() const {
    const double a = cellSize();
    return a * a * a;
  }
  [[nodiscard]] Vec3d cellCenter(int i, int j, int k) const {
    const double a = cellSize();
    return origin + Vec3d{(i + 0.5) * a, (j + 0.5) * a, (k + 0.5) * a};
  }
  [[nodiscard]] double totalMass() const;

  /// Trilinear interpolation of a field at a position (clamped to the box).
  [[nodiscard]] double sample(const std::vector<double>& field, const Vec3d& p) const;
};

/// Fixed conversion settings (every run uses these values); u <-> T at
/// units::mu_gas.
inline constexpr double kRhoFloor = 1e-10;  ///< [Msun/pc^3] for empty cells / log encode
inline constexpr double kTempFloor = 1.0;   ///< [K]
inline constexpr double kVelFloor = 1e-3;   ///< [pc/Myr] log-split floor
inline constexpr int kGibbsSweeps = 4;      ///< Gibbs sweeps per sampled particle

struct VoxelParams {
  int grid_n = 64;  ///< cells per side
};

/// Cubic-spline SPH-kernel deposition with Shepard normalization of the
/// intensive fields.
VoxelGrid depositParticles(std::span<const Particle> gas, const Vec3d& center,
                           double box_size, const VoxelParams& params);

/// 8-channel log encoding: [log rho, log T, log v_x^+, log v_x^-, ... z].
ml::Tensor encodeGrid(const VoxelGrid& g);

/// Inverse of encodeGrid (velocities recombined as 10^{c+} - 10^{c-}).
VoxelGrid decodeGrid(const ml::Tensor& t, double box_size, const Vec3d& origin);

/// Gibbs-sample particle positions from the grid density and interpolate
/// velocities/temperature; returns one particle per `originals` entry with
/// id and mass preserved (exact mass conservation).
std::vector<Particle> gridToParticles(const VoxelGrid& g,
                                      std::span<const Particle> originals,
                                      util::Pcg32& rng);

/// Region-of-interest projection query: the cube a scenario-service client
/// asks for (density / temperature / velocity fields sampled on a small
/// grid) without ever mutating — or even needing mutable access to — the
/// particle state.
struct RoiSpec {
  Vec3d center{};          ///< cube center [pc]
  double box_size = 60.0;  ///< physical side length [pc]
  int grid_n = 16;         ///< cells per side of the returned cubes
};

/// Deposit only the particles whose SPH support can overlap the ROI cube
/// onto a grid_n^3 grid (same SPH-kernel + Shepard scheme as
/// depositParticles, so an ROI covering the whole domain is bitwise
/// identical to a full deposit). Pure and read-only: repeated queries over
/// a live instance's particles return identical grids and leave the
/// trajectory untouched. Throws std::invalid_argument on a non-positive
/// grid_n or box_size.
VoxelGrid projectRoi(std::span<const Particle> parts, const RoiSpec& spec);

}  // namespace asura::voxel
