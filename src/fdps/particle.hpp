#pragma once
/// \file particle.hpp
/// \brief The full particle type shared by all subsystems.
///
/// ASURA models three species (§1, §4.2): dark matter and stars as
/// collisionless N-body particles, interstellar gas as SPH particles. FDPS
/// proper templates the particle type; this reproduction uses one concrete
/// trivially-copyable struct so particles can travel through the comm layer
/// (domain exchange, LET exchange, SN-region shipping to pool nodes) with
/// plain memcpy semantics.
///
/// Positions/velocities are double precision (the paper stores them in
/// double to cover >5 decades of dynamic range, §4.3); interaction kernels
/// downcast *relative* positions to float in the mixed-precision path.

#include <cstdint>

#include "util/vec3.hpp"

namespace asura::fdps {

using util::Vec3d;

enum class Species : std::uint8_t { Gas = 0, Star = 1, DarkMatter = 2 };

struct Particle {
  // --- identity ---
  std::uint64_t id = 0;
  Species type = Species::Gas;

  // --- dynamics (all species) ---
  double mass = 0.0;
  Vec3d pos{};
  Vec3d vel{};
  Vec3d acc{};        ///< total acceleration (gravity + hydro)
  double pot = 0.0;   ///< gravitational potential (for energy diagnostics)
  double eps = 1.0;   ///< gravitational softening [pc]

  // --- SPH state (gas only) ---
  double u = 0.0;      ///< specific internal energy [pc^2/Myr^2]
  /// Predicted u at the current simulation time, for *neighbour* lookups
  /// while the particle itself is inactive between block-timestep kicks:
  /// advanced by du_dt with every sub-step drift and re-synced to u whenever
  /// the particle is kicked (FAST-style prediction — without it, active
  /// particles read pressures frozen at the neighbour's last closing, which
  /// dominates the energy drift once rung_safety relaxes).
  double u_pred = 0.0;
  double du_dt = 0.0;  ///< adiabatic + viscous heating rate
  double h = 1.0;      ///< kernel support radius H [pc]
  double rho = 0.0;    ///< mass density [Msun/pc^3]
  double pres = 0.0;   ///< pressure
  double cs = 0.0;     ///< sound speed
  double divv = 0.0;   ///< velocity divergence (for Balsara switch)
  double curlv = 0.0;  ///< |curl v|
  double vsig = 0.0;   ///< max signal velocity seen this step (CFL)
  int nngb = 0;        ///< neighbour count of the last density pass

  // --- stellar state (stars only) ---
  double t_form = 0.0;    ///< formation time [Myr]
  double t_sn = -1.0;     ///< supernova epoch [Myr]; <0 means no SN
  double star_mass = 0.0; ///< individual stellar mass drawn from the IMF
  double metal = 0.0;     ///< metal mass fraction

  // --- bookkeeping ---
  std::uint8_t frozen = 0;  ///< inside a pending surrogate region
  std::uint8_t rung = 0;    ///< block-timestep rung k: dt = dt_global / 2^k
  /// Deepest rung among this particle's SPH neighbours, recorded by the most
  /// recent hydro force pass that evaluated it as a target. Feeds the
  /// Saitoh & Makino (2009) timestep limiter: the rung criteria floor a gas
  /// particle's next rung at rung_ngb - 2 so it can never be assigned a step
  /// more than 4x longer than an interacting neighbour's.
  std::uint8_t rung_ngb = 0;
  /// Decayed per-particle work counter mirroring this particle's share of
  /// the step's force-pass target evaluations: a static per-step charge for
  /// the two full passes (2, or 4 for gas which also pays density + hydro)
  /// plus 1 per closing kick (2 for gas), the whole multiplied by
  /// a fixed decay (0.75) at every step start so quiet particles forget old
  /// storms. Never read by physics — it only weights the domain
  /// decomposition's samples (1 + work) when weighted decomposition is on,
  /// so balancing cannot perturb trajectories. Travels with the particle
  /// through migration/capture.
  double work = 0.0;

  [[nodiscard]] bool isGas() const { return type == Species::Gas; }
  [[nodiscard]] bool isStar() const { return type == Species::Star; }
  [[nodiscard]] bool isDm() const { return type == Species::DarkMatter; }
};

static_assert(std::is_trivially_copyable_v<Particle>,
              "particles must be shippable through the comm layer");

}  // namespace asura::fdps
