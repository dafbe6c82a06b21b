#pragma once
/// \file sph.hpp
/// \brief SPH passes: variable-smoothing-length density and hydro force.
///
/// These are the paper's "1st Calc_Kernel_Size_and_Density" (an iterative
/// solve — "usually twice if we can set the initial guess of the kernel size
/// properly", §5.2.5) and "2nd Calc_Force" phases. The working array is the
/// concatenation of local particles followed by ghost particles imported by
/// fdps::exchangeHydroGhostsCached. Each pass updates only its targets, a
/// list of local gas indices: every local gas particle on a full pass
/// (fdps::targetIndices), the closing set on a block-timestep sub-step.
/// Every gas particle in the working array is a neighbour; the ones that
/// are not targets contribute with their held state, as in standard
/// individual-timestep SPH.
///
/// FLOP accounting matches Table 4: 73 operations per density/pressure
/// interaction, 101 per hydro-force interaction.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "fdps/context.hpp"
#include "fdps/particle.hpp"
#include "pikg/isa.hpp"
#include "sph/kernels.hpp"

namespace asura::sph {

using fdps::Particle;

/// Saitoh & Makino (2009) timestep-limiter gap: an interacting pair's rungs
/// may differ by at most this many levels (dt ratio <= 2^kLimiterGap = 4).
/// The hydro force pass reports pairs that exceed it as wake requests.
inline constexpr int kLimiterGap = 2;

/// Wake request recorded by the hydro force pass: an *active* target whose
/// current rung exceeds an (inactive) neighbour's by more than kLimiterGap.
/// Packed (neighbour << 32 | target) so sorting the request list groups the
/// lagging neighbours — the integrator resolves each neighbour's new rung
/// from the max of its requesters, order-independently.
inline std::uint64_t packWake(std::uint32_t target, std::uint32_t neighbour) {
  return (static_cast<std::uint64_t>(neighbour) << 32) | target;
}
inline std::uint32_t wakeNeighbour(std::uint64_t w) {
  return static_cast<std::uint32_t>(w >> 32);
}
inline std::uint32_t wakeTarget(std::uint64_t w) {
  return static_cast<std::uint32_t>(w & 0xffffffffu);
}

struct SphParams {
  Kernel kernel{};
  int n_ngb = 64;            ///< neighbour-count closure target
  double alpha_visc = 1.0;   ///< Monaghan viscosity alpha
  double beta_visc = 2.0;    ///< Monaghan viscosity beta
  double cfl = 0.3;          ///< Courant factor
  int group_size = 64;       ///< n_g for target grouping
  int leaf_size = 16;
  int max_h_iterations = 30;
  double h_tolerance = 1e-3;
  /// PIKG-generated kernel backend for the density/hydro inner loops
  /// (kernels/registry.hpp; Auto = widest the host supports).
  pikg::Isa isa = pikg::Isa::Auto;
};

struct DensityStats {
  int max_iterations = 0;             ///< worst-case Newton iterations
  std::uint64_t interactions = 0;     ///< kernel evaluations (73 flops each)
  int tree_builds = 0;   ///< gas trees actually (re)built (0 = cache hit)
  double t_build = 0.0;  ///< seconds: tree + group construction
  double t_walk = 0.0;   ///< seconds: neighbour gathering, summed over threads
  double t_kernel = 0.0; ///< seconds: closure + kernel sums, summed over threads
  [[nodiscard]] double flops() const { return 73.0 * static_cast<double>(interactions); }
};

struct ForceStats {
  std::uint64_t interactions = 0;     ///< pair evaluations (101 flops each)
  int tree_builds = 0;   ///< gas trees actually (re)built (0 = cache hit)
  double t_build = 0.0;  ///< seconds: tree + group construction
  double t_walk = 0.0;   ///< seconds: neighbour gathering, summed over threads
  double t_kernel = 0.0; ///< seconds: force kernel, summed over threads
  /// Minimum CFL timestep over the evaluated targets, folded into the force
  /// pass (cfl * (h/2) / vsig) so the adaptive baseline no longer needs a
  /// separate full-particle cflTimestep sweep per step. +inf when no gas
  /// target was evaluated.
  double dt_cfl_min = std::numeric_limits<double>::infinity();
  [[nodiscard]] double flops() const { return 101.0 * static_cast<double>(interactions); }
};

/// Solve for h (support radius), rho, nngb, divv, curlv, pres, cs of the
/// gas particles named by `targets` (indices into `work`). Targets must
/// carry a positive initial h guess. The gas tree and the targets' Morton
/// groups live in `ctx` (see fdps/context.hpp); on return the cached tree's
/// smoothing lengths have been refreshed to the converged h, so a following
/// hydro-force call on the same context reuses the tree without a rebuild.
DensityStats solveDensity(fdps::StepContext& ctx, std::span<Particle> work,
                          std::span<const std::uint32_t> targets, const SphParams& params);

/// Accumulate hydrodynamic accelerations and du/dt into the gas particles
/// named by `targets`; also records the max signal velocity (Particle::vsig)
/// for the CFL clock and the deepest neighbour rung (Particle::rung_ngb) for
/// the limiter. Requires density/pressure fields to be current on targets
/// AND neighbours (ghosts included), and shares the gas tree solveDensity
/// left in `ctx`. When `wake_out` is non-null the pass also collects
/// Saitoh–Makino wake requests (cleared at entry): one packWake(target,
/// neighbour) per evaluated pair whose rung gap exceeds kLimiterGap. The
/// request multiset depends only on particle state, never on thread count
/// or scheduling.
ForceStats accumulateHydroForce(fdps::StepContext& ctx, std::span<Particle> work,
                                std::span<const std::uint32_t> targets,
                                const SphParams& params,
                                std::vector<std::uint64_t>* wake_out = nullptr);

/// Minimum CFL timestep over local gas: dt = cfl * (h/2) / vsig. Note the
/// same minimum now also falls out of the force pass (ForceStats::dt_cfl_min)
/// — prefer that in step loops; this standalone sweep remains for tests and
/// cold starts.
double cflTimestep(std::span<const Particle> gas, const SphParams& params);

/// Largest gather support among local gas (ghost-exchange margin).
double maxGatherRadius(std::span<const Particle> particles, std::size_t n_local);

}  // namespace asura::sph
