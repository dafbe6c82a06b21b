#pragma once
/// \file sedov.hpp
/// \brief Sedov-Taylor blast wave and supernova-remnant phase model.
///
/// This is the physics oracle of the reproduction: where the paper generates
/// U-Net training data with 1 M_sun-resolution SN simulations, we use the
/// self-similar Sedov-Taylor solution (exact dimensional scaling, strong
/// shock jump conditions, and mass/energy-conserving interior profiles) plus
/// the standard radiative snowplow transition. It serves as (a) the training
/// oracle for the surrogate, (b) a drop-in surrogate backend, and (c) the
/// reference the U-Net is validated against (paper §3.3 validation).

#include <span>

#include "fdps/particle.hpp"
#include "util/units.hpp"
#include "util/vec3.hpp"

namespace asura::sn {

using fdps::Particle;
using util::Vec3d;

/// Self-similar point explosion in a uniform medium (gamma = 5/3).
class SedovSolution {
 public:
  /// \param energy  explosion energy [Msun pc^2/Myr^2]
  /// \param rho0    ambient density [Msun/pc^3]
  /// \param t       age [Myr]
  SedovSolution(double energy, double rho0, double t);

  [[nodiscard]] double shockRadius() const { return R_; }
  [[nodiscard]] double shockVelocity() const { return vs_; }

  /// Interior profile at radius r < R: density, radial velocity, pressure.
  /// Shape: rho = 4 rho0 x^9 (exact swept-mass closure for gamma=5/3),
  /// v = v2 x, P = P2 (0.306 + 0.694 x^4) scaled so the total (kinetic +
  /// thermal) energy integral equals the input energy.
  void profile(double r, double& rho, double& vr, double& P) const;

  /// Total energy from the radial quadrature (test hook; ~= input energy).
  [[nodiscard]] double integratedEnergy() const;

  static constexpr double kXi0 = 1.15167;  ///< gamma=5/3 similarity constant

 private:
  double E_, rho0_, t_;
  double R_, vs_, v2_, P2_;
  double pressure_scale_ = 1.0;
};

/// Remnant phases: free expansion -> Sedov-Taylor -> pressure-driven
/// snowplow (radiative). Gives R(t) and the retained energy fraction.
struct RemnantModel {
  double energy = units::E_SN;  ///< [code units]
  double rho0 = 1.0;            ///< ambient [Msun/pc^3]
  double ejecta_mass = 5.0;     ///< [Msun]

  /// Sedov onset: swept mass = ejecta mass.
  [[nodiscard]] double sedovOnsetTime() const;
  /// Radiative transition t_rad [Myr] ~ 0.044 E51^0.22 nH^-0.55 (standard).
  [[nodiscard]] double radiativeTime() const;
  /// Shell radius at time t across all phases.
  [[nodiscard]] double shellRadius(double t) const;
  /// Fraction of the initial energy still in the remnant at time t.
  [[nodiscard]] double retainedEnergyFraction(double t) const;
};

/// The oracle surrogate: evolve the gas particles around an SN by `dt`
/// (default 0.1 Myr in the paper) using the Sedov/remnant model. Particles
/// within the shock radius are radially remapped (mass-conservation CDF
/// matching), kicked and heated; outside particles are untouched. No
/// particle's u gains more than the retained SN energy over its mass, also
/// at the remnant's centre, where the profile's u diverges.
/// Returns the shock radius actually applied.
double applySedovOracle(std::span<Particle> region, const Vec3d& sn_pos, double energy,
                        double dt, double mu = 0.6);

}  // namespace asura::sn
