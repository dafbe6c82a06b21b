#include "sn/sedov.hpp"

#include <algorithm>
#include <cmath>

namespace asura::sn {

namespace {
constexpr double kGamma = 5.0 / 3.0;
constexpr double kPi = 3.14159265358979323846;
}  // namespace

SedovSolution::SedovSolution(double energy, double rho0, double t)
    : E_(energy), rho0_(rho0), t_(t) {
  R_ = kXi0 * std::pow(E_ * t_ * t_ / rho0_, 0.2);
  vs_ = 0.4 * R_ / t_;  // dR/dt = (2/5) R/t
  // Strong-shock jump conditions.
  v2_ = 2.0 / (kGamma + 1.0) * vs_;
  P2_ = 2.0 / (kGamma + 1.0) * rho0_ * vs_ * vs_;

  // Scale the pressure profile so the energy integral is exactly E.
  // Kinetic part: rho = 4 rho0 x^9, v = v2 x:
  //   E_kin = \int 1/2 rho v^2 4 pi r^2 dr = 8 pi rho0 v2^2 R^3 / 14.
  const double e_kin = 8.0 * kPi * rho0_ * v2_ * v2_ * R_ * R_ * R_ / 14.0;
  // Thermal shape integral: \int (0.306 + 0.694 x^4) x^2 dx = 0.306/3+0.694/7.
  const double shape = 0.306 / 3.0 + 0.694 / 7.0;
  const double e_th_unscaled = 4.0 * kPi * P2_ * shape * R_ * R_ * R_ / (kGamma - 1.0);
  pressure_scale_ = std::max(0.0, (E_ - e_kin)) / e_th_unscaled;
}

void SedovSolution::profile(double r, double& rho, double& vr, double& P) const {
  const double x = std::clamp(r / R_, 0.0, 1.0);
  const double x2 = x * x;
  rho = 4.0 * rho0_ * std::pow(x, 9.0);
  vr = v2_ * x;
  P = P2_ * pressure_scale_ * (0.306 + 0.694 * x2 * x2);
}

double SedovSolution::integratedEnergy() const {
  const int n = 4000;
  double e = 0.0;
  for (int i = 0; i < n; ++i) {
    const double r = (i + 0.5) * R_ / n;
    double rho, vr, P;
    profile(r, rho, vr, P);
    e += (0.5 * rho * vr * vr + P / (kGamma - 1.0)) * 4.0 * kPi * r * r * (R_ / n);
  }
  return e;
}

double RemnantModel::sedovOnsetTime() const {
  // Swept mass (4/3 pi R^3 rho0) equals ejecta mass at R_on; free expansion
  // at v_ej = sqrt(2E/M_ej) reaches it at t_on.
  const double R_on = std::cbrt(3.0 * ejecta_mass / (4.0 * kPi * rho0));
  const double v_ej = std::sqrt(2.0 * energy / ejecta_mass);
  return R_on / v_ej;
}

double RemnantModel::radiativeTime() const {
  const double e51 = energy / units::E_SN;
  const double nH = units::nH_per_density * rho0;
  return 0.044 * std::pow(e51, 0.22) * std::pow(std::max(nH, 1e-6), -0.55);
}

double RemnantModel::shellRadius(double t) const {
  const double t_on = sedovOnsetTime();
  const double t_rad = radiativeTime();
  if (t <= t_on) {
    const double v_ej = std::sqrt(2.0 * energy / ejecta_mass);
    return v_ej * t;
  }
  if (t <= t_rad) {
    return SedovSolution(energy, rho0, t).shockRadius();
  }
  // Pressure-driven snowplow: R ∝ t^{2/7} beyond the radiative transition.
  const double R_rad = SedovSolution(energy, rho0, t_rad).shockRadius();
  return R_rad * std::pow(t / t_rad, 2.0 / 7.0);
}

double RemnantModel::retainedEnergyFraction(double t) const {
  const double t_rad = radiativeTime();
  if (t <= t_rad) return 1.0;
  // Post-radiative: thermal energy drains; standard scaling ~ (t/t_rad)^-1.
  return std::max(0.1, std::pow(t / t_rad, -1.0));
}

double applySedovOracle(std::span<Particle> region, const Vec3d& sn_pos, double energy,
                        double dt) {
  // Ambient density: mean SPH density of gas near the SN if available,
  // otherwise mass / volume of a 15 pc sphere.
  double rho_sum = 0.0;
  int rho_cnt = 0;
  double mass_near = 0.0;
  const double r_probe = 15.0;
  for (const auto& p : region) {
    if (!p.isGas()) continue;
    const double d = (p.pos - sn_pos).norm();
    if (d < r_probe) {
      mass_near += p.mass;
      if (p.rho > 0.0) {
        rho_sum += p.rho;
        ++rho_cnt;
      }
    }
  }
  double rho0 = rho_cnt > 3 ? rho_sum / rho_cnt
                            : mass_near / (4.0 / 3.0 * kPi * r_probe * r_probe * r_probe);
  rho0 = std::max(rho0, 1e-8);

  RemnantModel rem;
  rem.energy = energy;
  rem.rho0 = rho0;
  const double R_apply = rem.shellRadius(dt);
  const double retained = rem.retainedEnergyFraction(dt);
  // Interior profile consistent with the CURRENT shell radius and the
  // retained energy: pick the effective age t_eff at which a Sedov solution
  // of energy E*retained reaches R_apply. In the energy-conserving phase
  // this is exactly t; in the snowplow phase it slows the shell down so the
  // velocity/pressure structure integrates to the retained energy instead
  // of over-injecting the early-Sedov speeds across the larger radius.
  const double E_eff = std::max(energy * retained, 1e-12 * energy);
  const double t_eff = std::sqrt(
      rho0 * std::pow(R_apply / SedovSolution::kXi0, 5.0) / E_eff);
  const SedovSolution sol(E_eff, rho0, t_eff);

  double m_in = 0.0;  // gas mass the interior holds
  for (const auto& p : region) {
    if (p.isGas() && (p.pos - sn_pos).norm() < R_apply) m_in += p.mass;
  }

  for (auto& p : region) {
    if (!p.isGas()) continue;
    const Vec3d dr = p.pos - sn_pos;
    const double r = dr.norm();
    if (r >= R_apply || R_apply <= 0.0) continue;
    const Vec3d rhat = r > 0.0 ? dr / r : Vec3d{1.0, 0.0, 0.0};

    // Mass-conservation CDF remap: initial uniform medium (M ∝ r^3) onto the
    // x^9-density interior (M ∝ x^12)  =>  x_new = (r/R)^{1/4}.
    const double x_new = std::pow(std::max(r / R_apply, 1e-12), 0.25);
    const double r_new = x_new * R_apply;

    // sol.shockRadius() == R_apply by the t_eff construction.
    double rho, vr, P;
    sol.profile(r_new, rho, vr, P);
    p.pos = sn_pos + r_new * rhat;
    // The kick k raises the kinetic energy by m(|k|^2/2 + v.k). Where that
    // exceeds E_eff, k shrinks by the positive root s of
    // (m|k|^2/2) s^2 + (m v.k) s = E_eff, so the gain is exactly E_eff.
    const Vec3d kick = vr * rhat;
    const double ka = 0.5 * p.mass * kick.norm2();
    const double kb = p.mass * p.vel.dot(kick);
    if (ka + kb > E_eff) {
      const double disc = std::sqrt(kb * kb + 4.0 * ka * E_eff);
      const double s = kb >= 0.0 ? 2.0 * E_eff / (kb + disc) : (disc - kb) / (2.0 * ka);
      p.vel += s * kick;
    } else {
      p.vel += kick;
    }
    // The x^9 density vanishes at the centre, where u = P/((gamma-1) rho)
    // diverges. A particle of mass m holds at least the innermost interval
    // [0, m] of the interior's mass, so the density that sets its u is
    // floored at that interval's midpoint: (M/M_in) = x^12 = m/(2 M_in).
    // Nor may one particle's thermal energy gain more than the retained
    // energy, a bound that binds only when it outweighs the swept mass.
    double rho_core, vr_core, P_core;
    sol.profile(R_apply * std::pow(0.5 * p.mass / m_in, 1.0 / 12.0), rho_core, vr_core,
                P_core);
    const double u_new = std::min(P / ((kGamma - 1.0) * std::max(rho, rho_core)),
                                  p.u + E_eff / p.mass);
    p.u = std::max(p.u, u_new);
    p.rho = std::max(rho, 1e-10);
  }
  return R_apply;
}

}  // namespace asura::sn
