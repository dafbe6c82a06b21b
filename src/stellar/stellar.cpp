#include "stellar/stellar.hpp"

#include <algorithm>
#include <cmath>

namespace asura::stellar {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// Unit conversions for the cooling/heating integration (see units.hpp):
/// 1 erg g^-1 s^-1 in code specific-energy per Myr.
constexpr double kCgsSpecificRateToCode = 3300.7;
/// n_H [cm^-3] per code density, divided by rho_cgs per code density:
/// (Gamma n_H)/rho -> Gamma * kNhOverRho [erg/g/s].
constexpr double kNhOverRho = 4.557e23;
/// (Lambda n_H^2)/rho -> Lambda * rho_code * kNh2OverRho [erg/g/s].
constexpr double kNh2OverRho = 1.4058e25;
}  // namespace

// ---------------------------------------------------------------------------
// IMF
// ---------------------------------------------------------------------------

KroupaImf::KroupaImf(double m_min, double m_max) : m_min_(m_min), m_max_(m_max) {
  // Continuity at the break: A2 = A1 * m_break (with alpha 1.3 -> 2.3).
  const double a1 = 1.0;
  const double a2 = a1 * m_break_;
  const double i1 = a1 * (std::pow(m_min_, -0.3) - std::pow(m_break_, -0.3)) / 0.3;
  const double i2 = a2 * (std::pow(m_break_, -1.3) - std::pow(m_max_, -1.3)) / 1.3;
  w1_ = i1 / (i1 + i2);
  const double mm1 = a1 * (std::pow(m_break_, 0.7) - std::pow(m_min_, 0.7)) / 0.7;
  const double mm2 = a2 * (std::pow(m_break_, -0.3) - std::pow(m_max_, -0.3)) / 0.3;
  mean_mass_ = (mm1 + mm2) / (i1 + i2);
}

double KroupaImf::sample(util::Pcg32& rng) const {
  const double u = rng.uniform();
  auto invert = [](double lo, double hi, double alpha, double v) {
    const double e = 1.0 - alpha;
    const double a = std::pow(lo, e);
    const double b = std::pow(hi, e);
    return std::pow(a + v * (b - a), 1.0 / e);
  };
  if (rng.uniform() < w1_) return invert(m_min_, m_break_, 1.3, u);
  return invert(m_break_, m_max_, 2.3, u);
}

double KroupaImf::numberFractionAbove(double m_thresh) const {
  const double a1 = 1.0;
  const double a2 = a1 * m_break_;
  const double i1 = a1 * (std::pow(m_min_, -0.3) - std::pow(m_break_, -0.3)) / 0.3;
  const double i2 = a2 * (std::pow(m_break_, -1.3) - std::pow(m_max_, -1.3)) / 1.3;
  double above = 0.0;
  if (m_thresh <= m_break_) {
    above = a1 * (std::pow(m_thresh, -0.3) - std::pow(m_break_, -0.3)) / 0.3 + i2;
  } else if (m_thresh < m_max_) {
    above = a2 * (std::pow(m_thresh, -1.3) - std::pow(m_max_, -1.3)) / 1.3;
  }
  return above / (i1 + i2);
}

double stellarLifetime(double m_star) {
  // t = 1e4 Myr * m^-2.5, floored at 3 Myr (most massive stars).
  return std::max(3.0, 1.0e4 * std::pow(std::max(m_star, 0.08), -2.5));
}

// ---------------------------------------------------------------------------
// Star formation
// ---------------------------------------------------------------------------

double freeFallTime(double rho) {
  return std::sqrt(3.0 * kPi / (32.0 * units::G * std::max(rho, 1e-30)));
}

int formStars(std::span<Particle> particles, double t, double dt,
              const StarFormationParams& params, const KroupaImf& imf,
              util::Pcg32& rng) {
  int formed = 0;
  for (auto& p : particles) {
    if (!p.isGas() || p.frozen) continue;
    if (p.rho < kSfRhoThreshold) continue;
    const double T = units::u_to_temperature(p.u, units::mu_neutral);
    if (T > kSfTempThreshold) continue;
    if (p.divv >= 0.0) continue;  // only converging flows

    const double p_sf = 1.0 - std::exp(-params.efficiency * dt / freeFallTime(p.rho));
    if (rng.uniform() >= p_sf) continue;

    p.type = Species::Star;
    p.t_form = t;
    p.star_mass = imf.sample(rng);
    p.t_sn = p.star_mass >= kSnMassThreshold ? t + stellarLifetime(p.star_mass) : -1.0;
    p.du_dt = 0.0;
    p.divv = p.curlv = 0.0;
    ++formed;
  }
  return formed;
}

std::vector<SnEvent> identifySupernovae(std::span<Particle> particles, double t,
                                        double dt) {
  std::vector<SnEvent> events;
  for (auto& p : particles) {
    if (!p.isStar() || p.t_sn < 0.0) continue;
    if (p.t_sn > t && p.t_sn <= t + dt) {
      events.push_back({p.id, p.pos, p.t_sn, units::E_SN});
      p.t_sn = -1.0;  // fire exactly once
    }
  }
  return events;
}

// ---------------------------------------------------------------------------
// Cooling & heating
// ---------------------------------------------------------------------------

double lambdaCooling(double T) {
  if (T <= 0.0) return 0.0;
  if (T < 1.0e4) {
    // Koyama & Inutsuka (2002) fit.
    return 2.0e-26 * (1.0e7 * std::exp(-1.184e5 / (T + 1000.0)) +
                      1.4e-2 * std::sqrt(T) * std::exp(-92.0 / T));
  }
  if (T < 1.0e5) {
    // Rise to the CIE peak (~2.1e-22 at 1e5 K).
    return 4.2e-24 * std::pow(T / 1.0e4, 1.7);
  }
  if (T < 2.0e7) {
    // Line-cooling decline.
    return 2.1e-22 * std::pow(T / 1.0e5, -0.7);
  }
  // Free-free.
  const double lam_knee = 2.1e-22 * std::pow(2.0e7 / 1.0e5, -0.7);
  return lam_knee * std::sqrt(T / 2.0e7);
}

double integrateCooling(double u, double rho, double dt) {
  const double u_floor = units::temperature_to_u(kCoolingTempFloor, units::mu_gas);
  const double u_ceil = units::temperature_to_u(kCoolingTempCeil, units::mu_gas);
  double t = 0.0;
  int guard = 0;
  while (t < dt && ++guard < 256) {
    const double T = units::u_to_temperature(u, units::mu_gas);
    // Photoelectric heating is a cold-phase process; fade it out above 2e4 K.
    const double heat = kHeatingGamma * kNhOverRho * std::exp(-T / 2.0e4);
    const double cool = lambdaCooling(T) * kNh2OverRho * rho;
    const double rate = kCgsSpecificRateToCode * (heat - cool);
    if (rate == 0.0) break;
    double dt_sub = std::min(dt - t, 0.1 * u / std::abs(rate));
    dt_sub = std::max(dt_sub, 1e-9 * dt);
    u = std::clamp(u + rate * dt_sub, u_floor, u_ceil);
    t += dt_sub;
    if (u == u_floor && rate < 0.0) break;
    if (u == u_ceil && rate > 0.0) break;
  }
  return u;
}

void coolAndHeat(std::span<Particle> particles, double dt) {
#pragma omp parallel for schedule(dynamic, 64)
  for (std::size_t i = 0; i < particles.size(); ++i) {
    auto& p = particles[i];
    if (!p.isGas() || p.frozen) continue;
    p.u = integrateCooling(p.u, p.rho, dt);
  }
}

}  // namespace asura::stellar
