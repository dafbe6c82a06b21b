// Tests for the supernova substrate: FFT correctness, k^-4 turbulence
// statistics, Sedov-Taylor self-similarity and conservation, remnant phases,
// and the particle-level oracle the surrogate is trained on / validated
// against.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "sn/fft.hpp"
#include "sn/sedov.hpp"
#include "sn/turbulence.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using asura::fdps::Particle;
using asura::fdps::Species;
using asura::sn::SedovSolution;
using asura::util::Pcg32;
using asura::util::Vec3d;

// ---------------------------------------------------------------------------
// FFT
// ---------------------------------------------------------------------------

TEST(Fft, DeltaHasFlatSpectrum) {
  std::vector<std::complex<double>> d(8, 0.0);
  d[0] = 1.0;
  asura::sn::fft1d(d.data(), 8, false);
  for (const auto& c : d) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleModeLandsInOneBin) {
  const int n = 16;
  std::vector<std::complex<double>> d(n);
  for (int i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] = std::cos(2.0 * std::numbers::pi * 3.0 * i / n);
  }
  asura::sn::fft1d(d.data(), n, false);
  for (int k = 0; k < n; ++k) {
    const double mag = std::abs(d[static_cast<std::size_t>(k)]);
    if (k == 3 || k == n - 3) {
      EXPECT_NEAR(mag, n / 2.0, 1e-9);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-9);
    }
  }
}

TEST(Fft, RoundTripIdentity) {
  Pcg32 rng(1);
  const int n = 64;
  std::vector<std::complex<double>> d(n), orig;
  for (auto& c : d) c = {rng.normal(), rng.normal()};
  orig = d;
  asura::sn::fft1d(d.data(), n, false);
  asura::sn::fft1d(d.data(), n, true);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(d[static_cast<std::size_t>(i)].real(), orig[static_cast<std::size_t>(i)].real(), 1e-10);
    EXPECT_NEAR(d[static_cast<std::size_t>(i)].imag(), orig[static_cast<std::size_t>(i)].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Pcg32 rng(2);
  const int n = 32;
  std::vector<std::complex<double>> d(n);
  for (auto& c : d) c = {rng.normal(), 0.0};
  double e_real = 0.0;
  for (const auto& c : d) e_real += std::norm(c);
  asura::sn::fft1d(d.data(), n, false);
  double e_freq = 0.0;
  for (const auto& c : d) e_freq += std::norm(c);
  EXPECT_NEAR(e_freq / n, e_real, 1e-9 * e_real);
}

TEST(Fft, NonPowerOfTwoThrows) {
  std::vector<std::complex<double>> d(6);
  EXPECT_THROW(asura::sn::fft1d(d.data(), 6, false), std::invalid_argument);
}

TEST(Fft, Cube3dMatchesBruteForceDft) {
  const int n = 4;
  Pcg32 rng(3);
  std::vector<std::complex<double>> cube(n * n * n);
  for (auto& c : cube) c = {rng.normal(), 0.0};
  auto idx = [n](int i, int j, int k) {
    return (static_cast<std::size_t>(i) * n + j) * static_cast<std::size_t>(n) + k;
  };
  auto brute = cube;
  std::vector<std::complex<double>> out(cube.size());
  for (int ki = 0; ki < n; ++ki) {
    for (int kj = 0; kj < n; ++kj) {
      for (int kk = 0; kk < n; ++kk) {
        std::complex<double> acc = 0.0;
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < n; ++j) {
            for (int k = 0; k < n; ++k) {
              const double ph = -2.0 * std::numbers::pi *
                                (static_cast<double>(ki * i + kj * j + kk * k)) / n;
              acc += brute[idx(i, j, k)] * std::complex<double>(std::cos(ph), std::sin(ph));
            }
          }
        }
        out[idx(ki, kj, kk)] = acc;
      }
    }
  }
  asura::sn::fft3d(cube, n, false);
  for (std::size_t c = 0; c < cube.size(); ++c) {
    EXPECT_NEAR(cube[c].real(), out[c].real(), 1e-9);
    EXPECT_NEAR(cube[c].imag(), out[c].imag(), 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Turbulence
// ---------------------------------------------------------------------------

TEST(Turbulence, FieldIsZeroMeanUnitRmsAndReal) {
  asura::sn::TurbulenceParams tp;
  tp.n = 32;
  tp.seed = 5;
  const auto f = asura::sn::gaussianRandomField(tp, 0);
  double mean = 0.0, var = 0.0;
  for (double v : f) mean += v;
  mean /= static_cast<double>(f.size());
  for (double v : f) var += (v - mean) * (v - mean);
  var /= static_cast<double>(f.size());
  EXPECT_NEAR(mean, 0.0, 1e-10);
  EXPECT_NEAR(std::sqrt(var), 1.0, 1e-10);
}

TEST(Turbulence, SpectrumFollowsKMinus4) {
  asura::sn::TurbulenceParams tp;
  tp.n = 32;
  tp.seed = 7;
  tp.spectral_index = -4.0;
  const auto f = asura::sn::gaussianRandomField(tp, 1);
  // Measure P(k) by transforming back to k-space.
  const int n = tp.n;
  std::vector<std::complex<double>> cube(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) cube[i] = f[i];
  asura::sn::fft3d(cube, n, false);
  auto kof = [n](int i) { return i <= n / 2 ? i : i - n; };
  // Bin the power in |k| and fit a log-log slope over the inertial range.
  std::vector<double> psum(static_cast<std::size_t>(n), 0.0);
  std::vector<int> pcnt(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        const double kk = std::sqrt(static_cast<double>(kof(i) * kof(i) + kof(j) * kof(j) +
                                                        kof(k) * kof(k)));
        const int b = static_cast<int>(kk + 0.5);
        if (b >= 1 && b < n) {
          psum[static_cast<std::size_t>(b)] +=
              std::norm(cube[(static_cast<std::size_t>(i) * n + j) * n + k]);
          pcnt[static_cast<std::size_t>(b)]++;
        }
      }
    }
  }
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int m = 0;
  for (int b = 2; b <= 10; ++b) {
    if (pcnt[static_cast<std::size_t>(b)] == 0) continue;
    const double x = std::log(static_cast<double>(b));
    const double y = std::log(psum[static_cast<std::size_t>(b)] / pcnt[static_cast<std::size_t>(b)]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++m;
  }
  const double slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
  EXPECT_NEAR(slope, -4.0, 0.7);
}

TEST(Turbulence, VelocityComponentsIndependentAndScaled) {
  asura::sn::TurbulenceParams tp;
  tp.n = 16;
  tp.v_rms = 7.0;
  tp.seed = 11;
  const auto v = asura::sn::turbulentVelocityField(tp);
  double cross = 0.0, rms0 = 0.0;
  for (std::size_t i = 0; i < v[0].size(); ++i) {
    cross += v[0][i] * v[1][i];
    rms0 += v[0][i] * v[0][i];
  }
  rms0 = std::sqrt(rms0 / static_cast<double>(v[0].size()));
  cross /= static_cast<double>(v[0].size());
  EXPECT_NEAR(rms0, 7.0, 1e-9);
  EXPECT_LT(std::abs(cross) / (7.0 * 7.0), 0.2);
}

TEST(Turbulence, LognormalDensityPositiveWithContrast) {
  asura::sn::TurbulenceParams tp;
  tp.n = 16;
  tp.seed = 13;
  const auto rho = asura::sn::lognormalDensityField(tp, 2.0, 1.0);
  double mn = 1e300, mx = 0.0, mean = 0.0;
  for (double r : rho) {
    mn = std::min(mn, r);
    mx = std::max(mx, r);
    mean += r;
  }
  mean /= static_cast<double>(rho.size());
  EXPECT_GT(mn, 0.0);
  EXPECT_GT(mx / mn, 10.0);       // real contrast
  EXPECT_NEAR(mean, 2.0, 1.0);    // mean preserved-ish
}

// ---------------------------------------------------------------------------
// Sedov-Taylor
// ---------------------------------------------------------------------------

TEST(Sedov, SelfSimilarScaling) {
  const double E = asura::units::E_SN, rho0 = 1.0;
  const SedovSolution s1(E, rho0, 0.01), s4(E, rho0, 0.04);
  EXPECT_NEAR(s4.shockRadius() / s1.shockRadius(), std::pow(4.0, 0.4), 1e-9);
  // dR/dt = 2/5 R/t.
  EXPECT_NEAR(s1.shockVelocity(), 0.4 * s1.shockRadius() / 0.01, 1e-9);
}

TEST(Sedov, ShockRadiusMagnitudeMatchesTextbook) {
  // E=1e51 erg, n_H = 1 cm^-3 (rho ~ 0.0324 Msun/pc^3), t = 1e4 yr
  // -> R ~ 12.7 pc; consistent with Cioffi et al.'s R_PDS ~ 19 pc when
  // extrapolated to t_rad ~ 3e4 yr. "SN shell scale is a few pc" (paper §1).
  const double rho0 = 1.0 / asura::units::nH_per_density;
  const SedovSolution s(asura::units::E_SN, rho0, 0.01);
  EXPECT_GT(s.shockRadius(), 8.0);
  EXPECT_LT(s.shockRadius(), 18.0);
  // And at the 0.1 Myr surrogate horizon in denser gas the shell stays
  // inside the (60 pc)^3 surrogate box.
  const SedovSolution s2(asura::units::E_SN, 1.0, 0.1);
  EXPECT_LT(s2.shockRadius(), 30.0);
}

TEST(Sedov, EnergyIntegralMatchesInput) {
  const SedovSolution s(asura::units::E_SN, 0.5, 0.02);
  EXPECT_NEAR(s.integratedEnergy() / asura::units::E_SN, 1.0, 0.02);
}

TEST(Sedov, InteriorMassEqualsSweptMass) {
  const double rho0 = 0.7;
  const SedovSolution s(asura::units::E_SN, rho0, 0.03);
  const double R = s.shockRadius();
  const int n = 2000;
  double m = 0.0;
  for (int i = 0; i < n; ++i) {
    const double r = (i + 0.5) * R / n;
    double rho, vr, P;
    s.profile(r, rho, vr, P);
    m += rho * 4.0 * std::numbers::pi * r * r * (R / n);
  }
  const double swept = 4.0 / 3.0 * std::numbers::pi * R * R * R * rho0;
  EXPECT_NEAR(m / swept, 1.0, 1e-3);
}

TEST(Sedov, StrongShockJumpAtFront) {
  const SedovSolution s(asura::units::E_SN, 1.0, 0.02);
  double rho, vr, P;
  s.profile(s.shockRadius() * 0.999999, rho, vr, P);
  EXPECT_NEAR(rho, 4.0, 0.01);  // (gamma+1)/(gamma-1) * rho0
  EXPECT_NEAR(vr, 0.75 * s.shockVelocity(), 0.01 * s.shockVelocity());
}

TEST(Remnant, PhasesAreOrderedAndMonotonic) {
  asura::sn::RemnantModel rem;
  rem.rho0 = 1.0;
  const double t_on = rem.sedovOnsetTime();
  const double t_rad = rem.radiativeTime();
  EXPECT_LT(t_on, t_rad);
  double prev = 0.0;
  for (double t = 1e-4; t < 1.0; t *= 1.5) {
    const double R = rem.shellRadius(t);
    EXPECT_GT(R, prev);
    prev = R;
  }
  EXPECT_DOUBLE_EQ(rem.retainedEnergyFraction(0.5 * t_rad), 1.0);
  EXPECT_LT(rem.retainedEnergyFraction(4.0 * t_rad), 0.5);
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

std::vector<Particle> uniformBall(int n, double radius, double rho, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Particle> parts;
  const double total_mass = 4.0 / 3.0 * std::numbers::pi * radius * radius * radius * rho;
  for (int i = 0; i < n; ++i) {
    Particle p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.type = Species::Gas;
    p.mass = total_mass / n;
    const double r = radius * std::cbrt(rng.uniform());
    p.pos = r * rng.isotropic();
    p.u = asura::units::temperature_to_u(100.0, 1.27);
    p.rho = rho;
    p.h = 2.0;
    parts.push_back(p);
  }
  return parts;
}

/// uniformBall with its first two particles moved onto the SN at the
/// origin and 1e-3 pc from it: the remap's core, where the x^9 interior
/// density vanishes.
std::vector<Particle> ballWithCoreParticles(int n, double radius, std::uint64_t seed) {
  auto parts = uniformBall(n, radius, 1.0, seed);
  parts[0].pos = {0.0, 0.0, 0.0};
  parts[1].pos = {1e-3, 0.0, 0.0};
  return parts;
}

/// No particle may gain more specific energy than the whole SN gives it.
void expectNoParticleGainsMoreThanTheSn(const std::vector<Particle>& before,
                                        const std::vector<Particle>& after) {
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_LE(after[i].u - before[i].u, asura::units::E_SN / after[i].mass)
        << "particle " << i << " at r = " << before[i].pos.norm() << " pc";
  }
}

TEST(Oracle, InjectsTheSedovEnergyInTheEnergyConservingPhase) {
  auto parts = ballWithCoreParticles(4000, 30.0, 61);
  const auto before = parts;
  double e_before = 0.0;
  for (const auto& p : parts) e_before += p.mass * (p.u + 0.5 * p.vel.norm2());

  // 0.004 Myr < t_rad(rho=1) ~ 0.0067 Myr: full energy retained.
  const double R =
      asura::sn::applySedovOracle(parts, {0, 0, 0}, asura::units::E_SN, 0.004);
  EXPECT_GT(R, 1.0);
  EXPECT_LT(R, 30.0);

  double e_after = 0.0;
  for (const auto& p : parts) e_after += p.mass * (p.u + 0.5 * p.vel.norm2());
  EXPECT_NEAR((e_after - e_before) / asura::units::E_SN, 1.0, 0.35);
  expectNoParticleGainsMoreThanTheSn(before, parts);
}

TEST(Oracle, RadiativePhaseInjectsOnlyRetainedEnergy) {
  // At the paper's 0.1 Myr horizon in rho = 1 gas the remnant is deep in
  // the snowplow phase: most of the 1e51 erg has been radiated away, and
  // the oracle must NOT dump the full energy over the larger shell.
  auto parts = uniformBall(4000, 30.0, 1.0, 66);
  double e_before = 0.0;
  for (const auto& p : parts) e_before += p.mass * (p.u + 0.5 * p.vel.norm2());
  asura::sn::applySedovOracle(parts, {0, 0, 0}, asura::units::E_SN, 0.1);
  double e_after = 0.0;
  for (const auto& p : parts) e_after += p.mass * (p.u + 0.5 * p.vel.norm2());
  const double injected = (e_after - e_before) / asura::units::E_SN;
  EXPECT_GT(injected, 0.01);
  EXPECT_LT(injected, 0.5);
}

TEST(Oracle, MomentumRemainsNearZeroBySymmetry) {
  auto parts = uniformBall(4000, 30.0, 1.0, 62);
  asura::sn::applySedovOracle(parts, {0, 0, 0}, asura::units::E_SN, 0.01);
  Vec3d ptot{};
  double pscale = 0.0;
  for (const auto& p : parts) {
    ptot += p.mass * p.vel;
    pscale += p.mass * p.vel.norm();
  }
  ASSERT_GT(pscale, 0.0);
  EXPECT_LT(ptot.norm() / pscale, 0.1);
}

TEST(Oracle, OutsideParticlesUntouchedAndShellForms) {
  auto parts = uniformBall(6000, 30.0, 1.0, 63);
  auto before = parts;
  const double R = asura::sn::applySedovOracle(parts, {0, 0, 0}, asura::units::E_SN, 0.01);

  int shell = 0, inner = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const double r0 = before[i].pos.norm();
    const double r1 = parts[i].pos.norm();
    if (r0 >= R) {
      EXPECT_EQ(parts[i].pos, before[i].pos);
      EXPECT_EQ(parts[i].vel, before[i].vel);
    } else {
      EXPECT_GE(r1, r0 - 1e-9);  // matter only moves outward
      if (r1 > 0.8 * R) ++shell;
      if (r1 < 0.5 * R) ++inner;
    }
  }
  // x^9 interior density: ~94% of the swept mass sits beyond 0.8 R.
  EXPECT_GT(shell, 10 * std::max(inner, 1));
}

TEST(Oracle, LoneHeavyParticleGainsAtMostTheSnAsKineticEnergy) {
  // MW-mini resolution: a 4.8e4-Msun gas particle 0.15 pc from the SN,
  // alone inside the ~3.4-pc shell and already moving outward at ~44 km/s.
  // The profile's kick points along its motion, so unbounded it adds
  // m v.k on top of m|k|^2/2 — several E_SN for one particle.
  Particle p;
  p.id = 1;
  p.type = Species::Gas;
  p.mass = 4.8e4;
  p.pos = {0.15, 0.0, 0.0};
  p.vel = {asura::units::kms_to_code(43.3), 0.0, 0.0};
  p.u = asura::units::temperature_to_u(1.0e4, 0.6);
  p.h = 20.0;
  std::vector<Particle> region{p};
  const auto before = region;
  const double R = asura::sn::applySedovOracle(region, {0, 0, 0}, asura::units::E_SN, 0.004);
  ASSERT_GT(R, 0.15);  // the particle is inside the applied shell
  const double dke = 0.5 * p.mass * (region[0].vel.norm2() - before[0].vel.norm2());
  EXPECT_GT(dke, 0.0);
  EXPECT_LE(dke, asura::units::E_SN) << dke / asura::units::E_SN << " E_SN";
  expectNoParticleGainsMoreThanTheSn(before, region);
}

TEST(Oracle, HeatedInteriorReachesMillionsOfKelvin) {
  auto parts = ballWithCoreParticles(4000, 30.0, 64);
  const auto before = parts;
  asura::sn::applySedovOracle(parts, {0, 0, 0}, asura::units::E_SN, 0.01);
  double t_max = 0.0;
  for (const auto& p : parts) {
    t_max = std::max(t_max, asura::units::u_to_temperature(p.u, 0.6));
  }
  // The paper's Fig. 1: SN-heated gas ~ 1e7 K.
  EXPECT_GT(t_max, 1.0e6);
  EXPECT_LT(t_max, 1.0e10);
  expectNoParticleGainsMoreThanTheSn(before, parts);
}

}  // namespace
