#pragma once
/// \file stellar.hpp
/// \brief Star-by-star stellar physics: IMF sampling, lifetimes, star
/// formation, SN identification and radiative cooling/heating.
///
/// ASURA's star-by-star model (paper §1, §3.2): each star particle is an
/// individual star drawn from the initial mass function; stars above
/// 8 M_sun end their lives as core-collapse supernovae, which the scheme
/// detects *one global step ahead* ("Identify stars exploding between the
/// current time t and t + dt_global") so that the affected regions can be
/// shipped to the surrogate pool nodes.

#include <span>
#include <vector>

#include "fdps/particle.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace asura::stellar {

using fdps::Particle;
using fdps::Species;

// ---------------------------------------------------------------------------
// IMF
// ---------------------------------------------------------------------------

/// Kroupa (2001) two-part IMF on [0.08, 120] M_sun:
/// dN/dm ∝ m^-1.3 (0.08..0.5), ∝ m^-2.3 (0.5..120), continuous at 0.5.
class KroupaImf {
 public:
  KroupaImf(double m_min = 0.08, double m_max = 120.0);

  /// Draw one stellar mass [Msun].
  [[nodiscard]] double sample(util::Pcg32& rng) const;

  /// Mean stellar mass <m> of the IMF.
  [[nodiscard]] double meanMass() const { return mean_mass_; }

  /// Fraction of stars (by number) above m_thresh.
  [[nodiscard]] double numberFractionAbove(double m_thresh) const;

 private:
  double m_min_, m_break_ = 0.5, m_max_;
  double w1_;  ///< number weight of the low-mass segment
  double mean_mass_;
};

/// Main-sequence lifetime [Myr]; calibrated so a 1 M_sun star lives
/// ~10 Gyr and the least massive SN progenitors (8 M_sun) ~40 Myr.
double stellarLifetime(double m_star);

/// Core-collapse SN progenitor threshold.
inline constexpr double kSnMassThreshold = 8.0;

// ---------------------------------------------------------------------------
// Star formation
// ---------------------------------------------------------------------------

/// Star-formation eligibility (every run uses these values): converging gas
/// at least this dense and at most this cold, its temperature taken at
/// units::mu_neutral.
inline constexpr double kSfRhoThreshold = 3.2;     ///< [Msun/pc^3] ~ n_H = 100 cm^-3
inline constexpr double kSfTempThreshold = 100.0;  ///< [K]

struct StarFormationParams {
  double efficiency = 0.02;  ///< per free-fall time
};

/// Convert eligible gas particles into star particles (probabilistically,
/// p = 1 - exp(-eps dt / t_ff)). Each new star samples an individual stellar
/// mass from the IMF (stored in star_mass); progenitors above the SN
/// threshold get a t_sn. Returns the number of stars formed.
int formStars(std::span<Particle> particles, double t, double dt,
              const StarFormationParams& params, const KroupaImf& imf,
              util::Pcg32& rng);

/// Free-fall time sqrt(3 pi / (32 G rho)) [Myr].
double freeFallTime(double rho);

// ---------------------------------------------------------------------------
// SN identification (step 1 of the paper's scheme)
// ---------------------------------------------------------------------------

struct SnEvent {
  std::uint64_t star_id = 0;
  util::Vec3d pos{};
  double t_explode = 0.0;
  double energy = units::E_SN;
};

/// Stars with t_sn in (t, t + dt]; their t_sn is cleared so each SN fires
/// exactly once.
std::vector<SnEvent> identifySupernovae(std::span<Particle> particles, double t,
                                        double dt);

// ---------------------------------------------------------------------------
// Cooling & heating
// ---------------------------------------------------------------------------

/// Cooling/heating settings (every run uses these values); u <-> T at
/// units::mu_gas.
inline constexpr double kCoolingTempFloor = 10.0;  ///< [K]
inline constexpr double kCoolingTempCeil = 1.0e9;  ///< [K]
inline constexpr double kHeatingGamma = 2e-26;     ///< photoelectric heating [erg/s] per H atom

/// Interstellar cooling function Lambda(T) [erg cm^3 / s]: Koyama-Inutsuka
/// (2002) fit below 1e4 K, a CIE-like peak/decline above, free-free at the
/// hot end.
double lambdaCooling(double T);

/// Integrate du/dt = heating - cooling for one particle over dt with
/// adaptive subcycling; returns the new specific internal energy.
double integrateCooling(double u, double rho, double dt);

/// Apply cooling/heating to all local gas particles.
void coolAndHeat(std::span<Particle> particles, double dt);

}  // namespace asura::stellar
