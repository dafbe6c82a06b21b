#pragma once
/// \file gravity.hpp
/// \brief Softened tree gravity with the paper's mixed-precision scheme.
///
/// Particle-particle force (paper Eq. 1):
///   F_ij = -G m_i m_j r_ij / (r_ij^2 + eps_i^2 + eps_j^2)^{3/2}
///
/// Mixed precision (§4.3): "positions ... are first converted to the values
/// relative to the representative value of the particles that receive the
/// force and then converted to single precision" — implemented by
/// Kernel::MixedF32, which subtracts the target-group centre in double and
/// accumulates the interaction in float. The MixedF32 inner loop is a
/// PIKG-generated kernel selected by runtime ISA dispatch
/// (kernels/registry.hpp; override with GravityParams::isa).
/// Kernel::ScalarF64 is the hand-written double-precision conformance
/// reference and bypasses the generated backends.
///
/// FLOP accounting matches Table 4: 27 operations per gravity interaction.

#include <cstdint>
#include <span>
#include <vector>

#include "fdps/context.hpp"
#include "fdps/particle.hpp"
#include "fdps/tree.hpp"
#include "pikg/isa.hpp"
#include "util/units.hpp"

namespace asura::gravity {

using fdps::Monopole;
using fdps::Particle;
using fdps::SourceEntry;
using util::Vec3d;

/// n_g: targets sharing an interaction list (every run uses 64).
inline constexpr int kGroupSize = 64;

/// The gravity settings callers vary (the gravitational constant is
/// units::G).
struct GravityParams {
  double theta = 0.5;    ///< multipole acceptance s/d
  int leaf_size = 16;    ///< source tree leaf size
  enum class Kernel { ScalarF64, MixedF32 } kernel = Kernel::MixedF32;
  /// Generated-kernel backend for the MixedF32 path (Auto = widest the host
  /// supports; requests wider than the host clamp down).
  pikg::Isa isa = pikg::Isa::Auto;
};

struct GravityStats {
  std::uint64_t ep_interactions = 0;  ///< particle-particle pairs evaluated
  std::uint64_t sp_interactions = 0;  ///< particle-monopole pairs evaluated
  /// Target particles evaluated by this pass. On block-timestep sub-steps
  /// this is the rung-decomposed work unit the scheme saves: summing it over
  /// sub-steps must equal StepStats::rung_force_evals.
  std::uint64_t targets = 0;
  int tree_builds = 0;   ///< trees actually (re)built by this call (0 = cached)
  double t_build = 0.0;  ///< seconds: tree + target-group construction (~0 when cached)
  double t_walk = 0.0;   ///< seconds: interaction-list gathering, summed over threads
  double t_kernel = 0.0; ///< seconds: force kernel evaluation, summed over threads
  /// Table 4 convention: 27 flops per interaction.
  [[nodiscard]] double flops() const {
    return 27.0 * static_cast<double>(ep_interactions + sp_interactions);
  }
};

/// O(N^2) reference: adds accelerations & potentials from `sources` to all
/// `targets`. Self-pairs (zero distance) are skipped.
void accumulateDirect(std::span<Particle> targets, std::span<const SourceEntry> sources,
                      double G);

/// Barnes-Hut tree force on the particles named by `targets` (indices into
/// `particles`) from every particle in `particles` plus the imported LET
/// entries.
/// Adds into Particle::acc and Particle::pot; callers zero both on the
/// targets beforehand. The source tree and the targets' Morton groups live
/// in `ctx` and are reused while valid (see fdps/context.hpp), so a pass
/// whose positions did not change since the last build pays for the walk
/// and the kernel only. A full pass names every particle
/// (fdps::targetIndices); a block-timestep sub-step names its closing set
/// and pairs the call with StepContext::refreshGravityPositions after each
/// drift, so the moments match the drifted sources without a rebuild.
GravityStats accumulateTreeGravity(fdps::StepContext& ctx, std::span<Particle> particles,
                                   std::span<const SourceEntry> let_entries,
                                   std::span<const std::uint32_t> targets,
                                   const GravityParams& params);

/// Hand-written double-precision SoA conformance kernel (absolute
/// positions, `#pragma omp simd` wide loop, branch-free self-pair mask).
/// This is the reference the PIKG-generated MixedF32 backends are measured
/// against; the generated kernels themselves live in the build-time
/// pikg_kernels.hpp and are reached through kernels/registry.hpp.
void evalGroupSoaF64(const Vec3d* target_pos, const double* target_eps, int n_targets,
                     const double* sx, const double* sy, const double* sz,
                     const double* sm, const double* se2, std::size_t ns, double G,
                     Vec3d* acc_out, double* pot_out);

}  // namespace asura::gravity
