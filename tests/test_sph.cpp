// SPH tests: kernel identities (normalization, derivatives, support),
// the variable-smoothing-length density solve, conservation properties of
// the force pass, and the CFL clock.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "fdps/context.hpp"
#include "fdps/particle.hpp"
#include "fdps/tree.hpp"
#include "sph/eos.hpp"
#include "sph/kernels.hpp"
#include "sph/sph.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using asura::fdps::Particle;
using asura::fdps::Species;
using asura::fdps::StepContext;
using asura::fdps::targetIndices;
using asura::sph::Kernel;
using asura::sph::KernelType;
using asura::sph::SphParams;
using asura::util::Pcg32;
using asura::util::Vec3d;

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

class KernelCase : public ::testing::TestWithParam<std::tuple<KernelType, double>> {};

TEST_P(KernelCase, NormalizationIntegralIsOne) {
  const auto [type, H] = GetParam();
  const Kernel k{type};
  // Radial quadrature of 4 pi r^2 W(r).
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double r = (i + 0.5) * H / n;
    sum += 4.0 * std::numbers::pi * r * r * k.w(r, H) * (H / n);
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST_P(KernelCase, CompactSupport) {
  const auto [type, H] = GetParam();
  const Kernel k{type};
  EXPECT_EQ(k.w(H, H), 0.0);
  EXPECT_EQ(k.w(1.5 * H, H), 0.0);
  EXPECT_EQ(k.dwdr(1.5 * H, H), 0.0);
  EXPECT_GT(k.w(0.0, H), 0.0);
}

TEST_P(KernelCase, MonotoneDecreasing) {
  const auto [type, H] = GetParam();
  const Kernel k{type};
  double prev = k.w(0.0, H);
  for (int i = 1; i <= 50; ++i) {
    const double r = i * H / 50.0;
    const double cur = k.w(r, H);
    EXPECT_LE(cur, prev + 1e-14);
    EXPECT_LE(k.dwdr(r * 0.999, H), 1e-14);
    prev = cur;
  }
}

TEST_P(KernelCase, RadialDerivativeMatchesFiniteDifference) {
  const auto [type, H] = GetParam();
  const Kernel k{type};
  for (double q : {0.1, 0.3, 0.55, 0.7, 0.9}) {
    const double r = q * H;
    const double dr = 1e-6 * H;
    const double fd = (k.w(r + dr, H) - k.w(r - dr, H)) / (2.0 * dr);
    EXPECT_NEAR(k.dwdr(r, H), fd, 1e-4 * std::abs(fd) + 1e-10);
  }
}

TEST_P(KernelCase, SupportDerivativeMatchesFiniteDifference) {
  const auto [type, H] = GetParam();
  const Kernel k{type};
  for (double q : {0.1, 0.35, 0.6, 0.85}) {
    const double r = q * H;
    const double dH = 1e-6 * H;
    const double fd = (k.w(r, H + dH) - k.w(r, H - dH)) / (2.0 * dH);
    EXPECT_NEAR(k.dwdH(r, H), fd, 1e-4 * std::abs(fd) + 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelCase,
    ::testing::Combine(::testing::Values(KernelType::CubicSpline, KernelType::WendlandC2),
                       ::testing::Values(0.5, 1.0, 3.0, 60.0)));

TEST(KernelClosure, SupportDensityRoundTrip) {
  for (int n_ngb : {32, 64, 128}) {
    const double m = 1.0, rho = 0.7;
    const double H = asura::sph::supportFromDensity(m, rho, n_ngb);
    EXPECT_NEAR(asura::sph::densityFromSupport(m, H, n_ngb), rho, 1e-12);
  }
}

TEST(Eos, IdealGasRelations) {
  const double rho = 2.0, u = 3.0;
  const double P = asura::sph::pressure(rho, u);
  EXPECT_NEAR(P, (5.0 / 3.0 - 1.0) * rho * u, 1e-14);
  const double cs = asura::sph::soundSpeed(u);
  EXPECT_NEAR(cs * cs, 5.0 / 3.0 * P / rho, 1e-12);
  EXPECT_EQ(asura::sph::soundSpeed(-1.0), 0.0);
}

// ---------------------------------------------------------------------------
// Density solve
// ---------------------------------------------------------------------------

/// Perturbed cubic lattice of gas particles with uniform density rho0.
std::vector<Particle> latticeGas(int npd, double spacing, double jitter,
                                 std::uint64_t seed, double u0 = 1.0) {
  Pcg32 rng(seed);
  std::vector<Particle> parts;
  parts.reserve(static_cast<std::size_t>(npd) * npd * npd);
  std::uint64_t id = 1;
  for (int i = 0; i < npd; ++i) {
    for (int j = 0; j < npd; ++j) {
      for (int k = 0; k < npd; ++k) {
        Particle p;
        p.id = id++;
        p.type = Species::Gas;
        p.mass = 1.0;
        p.u = u0;
        p.pos = {(i + 0.5 + jitter * rng.normal()) * spacing,
                 (j + 0.5 + jitter * rng.normal()) * spacing,
                 (k + 0.5 + jitter * rng.normal()) * spacing};
        p.eps = 0.1 * spacing;
        p.h = 2.2 * spacing;  // decent initial guess
        parts.push_back(p);
      }
    }
  }
  return parts;
}

TEST(Density, UniformLatticeRecovered) {
  const double spacing = 1.0;
  auto parts = latticeGas(12, spacing, 0.05, 21);
  SphParams sp;
  sp.n_ngb = 40;
  StepContext ctx;
  const auto stats =
      asura::sph::solveDensity(ctx, parts, targetIndices(parts, /*gas_only=*/true), sp);
  EXPECT_GT(stats.interactions, 0u);

  // Interior particles (avoid edges of the finite lattice).
  const double rho0 = 1.0 / (spacing * spacing * spacing);
  int interior = 0;
  for (const auto& p : parts) {
    if (p.pos.x < 3 || p.pos.x > 9 || p.pos.y < 3 || p.pos.y > 9 || p.pos.z < 3 ||
        p.pos.z > 9) {
      continue;
    }
    ++interior;
    EXPECT_NEAR(p.rho, rho0, 0.12 * rho0);
    EXPECT_NEAR(p.nngb, sp.n_ngb, sp.n_ngb * 0.5);
    EXPECT_GT(p.pres, 0.0);
    EXPECT_GT(p.cs, 0.0);
  }
  EXPECT_GT(interior, 100);
}

TEST(Density, NewtonConvergesFast) {
  auto parts = latticeGas(10, 1.0, 0.02, 22);
  SphParams sp;
  sp.n_ngb = 40;
  StepContext ctx;
  const auto stats =
      asura::sph::solveDensity(ctx, parts, targetIndices(parts, /*gas_only=*/true), sp);
  // Paper: "The iterations are usually twice, if we can set the initial
  // guess of the kernel size properly." Allow slack for edge particles.
  EXPECT_LE(stats.max_iterations, 12);
}

TEST(Density, BadInitialGuessStillConverges) {
  auto parts = latticeGas(8, 1.0, 0.02, 23);
  for (auto& p : parts) p.h = 0.3;  // far too small
  SphParams sp;
  sp.n_ngb = 40;
  StepContext ctx;
  asura::sph::solveDensity(ctx, parts, targetIndices(parts, /*gas_only=*/true), sp);
  const double rho0 = 1.0;
  for (const auto& p : parts) {
    if (p.pos.x < 2.5 || p.pos.x > 5.5 || p.pos.y < 2.5 || p.pos.y > 5.5 ||
        p.pos.z < 2.5 || p.pos.z > 5.5) {
      continue;
    }
    EXPECT_NEAR(p.rho, rho0, 0.2 * rho0);
  }
}

TEST(Density, DivergenceOfHubbleFlow) {
  // v = H0 * r has div v = 3 H0 and zero curl.
  auto parts = latticeGas(12, 1.0, 0.0, 24);
  const double H0 = 0.1;
  for (auto& p : parts) p.vel = H0 * p.pos;
  SphParams sp;
  sp.n_ngb = 40;
  StepContext ctx;
  asura::sph::solveDensity(ctx, parts, targetIndices(parts, /*gas_only=*/true), sp);
  for (const auto& p : parts) {
    if (p.pos.x < 4 || p.pos.x > 8 || p.pos.y < 4 || p.pos.y > 8 || p.pos.z < 4 ||
        p.pos.z > 8) {
      continue;
    }
    EXPECT_NEAR(p.divv, 3.0 * H0, 0.05 * 3.0 * H0);
    EXPECT_NEAR(p.curlv, 0.0, 0.03);
  }
}

TEST(Density, RigidRotationCurl) {
  // v = Omega x r: div v = 0, |curl v| = 2 Omega.
  auto parts = latticeGas(12, 1.0, 0.0, 25);
  const Vec3d omega{0.0, 0.0, 0.2};
  for (auto& p : parts) p.vel = omega.cross(p.pos);
  SphParams sp;
  sp.n_ngb = 40;
  StepContext ctx;
  asura::sph::solveDensity(ctx, parts, targetIndices(parts, /*gas_only=*/true), sp);
  for (const auto& p : parts) {
    if (p.pos.x < 4 || p.pos.x > 8 || p.pos.y < 4 || p.pos.y > 8 || p.pos.z < 4 ||
        p.pos.z > 8) {
      continue;
    }
    EXPECT_NEAR(p.divv, 0.0, 0.02);
    EXPECT_NEAR(p.curlv, 2.0 * omega.z, 0.05 * 2.0 * omega.z);
  }
}

// ---------------------------------------------------------------------------
// Hydro force
// ---------------------------------------------------------------------------

TEST(HydroForce, PressureGradientPushesApart) {
  // Dense hot centre, cold sparse envelope: central particles accelerate
  // outward.
  auto parts = latticeGas(10, 1.0, 0.03, 26, /*u0=*/1.0);
  const Vec3d centre{5.0, 5.0, 5.0};
  for (auto& p : parts) {
    if ((p.pos - centre).norm() < 2.0) p.u = 20.0;
  }
  SphParams sp;
  sp.n_ngb = 40;
  StepContext ctx;
  const auto gas = targetIndices(parts, /*gas_only=*/true);
  asura::sph::solveDensity(ctx, parts, gas, sp);
  for (auto& p : parts) p.acc = Vec3d{};
  asura::sph::accumulateHydroForce(ctx, parts, gas, sp);

  double outward = 0.0;
  int n = 0;
  for (const auto& p : parts) {
    const Vec3d r = p.pos - centre;
    const double d = r.norm();
    if (d > 1.5 && d < 3.0) {
      outward += p.acc.dot(r / d);
      ++n;
    }
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(outward / n, 0.0);
}

TEST(HydroForce, MomentumConserved) {
  auto parts = latticeGas(9, 1.0, 0.05, 27);
  Pcg32 rng(70);
  for (auto& p : parts) {
    p.u = rng.uniform(0.5, 5.0);
    p.vel = {rng.normal(), rng.normal(), rng.normal()};
  }
  SphParams sp;
  sp.n_ngb = 40;
  StepContext ctx;
  const auto gas = targetIndices(parts, /*gas_only=*/true);
  asura::sph::solveDensity(ctx, parts, gas, sp);
  for (auto& p : parts) p.acc = Vec3d{};
  asura::sph::accumulateHydroForce(ctx, parts, gas, sp);

  Vec3d ptot{};
  double scale = 0.0;
  for (const auto& p : parts) {
    ptot += p.mass * p.acc;
    scale += p.mass * p.acc.norm();
  }
  ASSERT_GT(scale, 0.0);
  EXPECT_LT(ptot.norm() / scale, 1e-10);
}

TEST(HydroForce, EnergyConserved) {
  // Sum of m*(du/dt + v . a_hydro) vanishes for the pairwise-symmetric
  // scheme (viscous heating exactly balances kinetic dissipation).
  auto parts = latticeGas(9, 1.0, 0.05, 28);
  Pcg32 rng(71);
  for (auto& p : parts) {
    p.u = rng.uniform(0.5, 5.0);
    p.vel = {rng.normal(), rng.normal(), rng.normal()};
  }
  SphParams sp;
  sp.n_ngb = 40;
  StepContext ctx;
  const auto gas = targetIndices(parts, /*gas_only=*/true);
  asura::sph::solveDensity(ctx, parts, gas, sp);
  for (auto& p : parts) p.acc = Vec3d{};
  asura::sph::accumulateHydroForce(ctx, parts, gas, sp);

  double de = 0.0, scale = 0.0;
  for (const auto& p : parts) {
    de += p.mass * (p.du_dt + p.vel.dot(p.acc));
    scale += p.mass * (std::abs(p.du_dt) + std::abs(p.vel.dot(p.acc)));
  }
  ASSERT_GT(scale, 0.0);
  EXPECT_LT(std::abs(de) / scale, 1e-10);
}

TEST(HydroForce, CompressionHeats) {
  // Two streams colliding: head-on compression must heat (du/dt > 0) at the
  // interface via PdV work + viscosity.
  auto parts = latticeGas(10, 1.0, 0.02, 29);
  for (auto& p : parts) {
    p.vel = {p.pos.x < 5.0 ? 2.0 : -2.0, 0.0, 0.0};
  }
  SphParams sp;
  sp.n_ngb = 40;
  StepContext ctx;
  const auto gas = targetIndices(parts, /*gas_only=*/true);
  asura::sph::solveDensity(ctx, parts, gas, sp);
  for (auto& p : parts) p.acc = Vec3d{};
  asura::sph::accumulateHydroForce(ctx, parts, gas, sp);

  double dudt_interface = 0.0;
  int n = 0;
  for (const auto& p : parts) {
    if (std::abs(p.pos.x - 5.0) < 1.0) {
      dudt_interface += p.du_dt;
      ++n;
    }
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(dudt_interface / n, 0.0);
}

TEST(HydroForce, ExpansionCools) {
  auto parts = latticeGas(10, 1.0, 0.02, 30);
  const Vec3d centre{5.0, 5.0, 5.0};
  for (auto& p : parts) p.vel = 0.5 * (p.pos - centre);
  SphParams sp;
  sp.n_ngb = 40;
  StepContext ctx;
  const auto gas = targetIndices(parts, /*gas_only=*/true);
  asura::sph::solveDensity(ctx, parts, gas, sp);
  for (auto& p : parts) p.acc = Vec3d{};
  asura::sph::accumulateHydroForce(ctx, parts, gas, sp);

  double dudt = 0.0;
  int n = 0;
  for (const auto& p : parts) {
    if ((p.pos - centre).norm() < 2.5) {
      dudt += p.du_dt;
      ++n;
    }
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(dudt / n, 0.0);
}

TEST(Cfl, TimestepScalesWithSupportAndSignalSpeed) {
  std::vector<Particle> gas(2);
  gas[0].type = gas[1].type = Species::Gas;
  gas[0].h = 1.0;
  gas[0].vsig = 10.0;
  gas[0].cs = 1.0;
  gas[1].h = 4.0;
  gas[1].vsig = 10.0;
  gas[1].cs = 1.0;
  SphParams sp;
  sp.cfl = 0.3;
  const double dt = asura::sph::cflTimestep(gas, sp);
  EXPECT_NEAR(dt, 0.3 * 0.5 * 1.0 / 10.0, 1e-12);
}

TEST(Cfl, HotterGasShrinksTimestep) {
  // The paper's core argument: SN-heated gas (1e7 K) forces tiny CFL steps.
  std::vector<Particle> cold(1), hot(1);
  cold[0].type = hot[0].type = Species::Gas;
  cold[0].h = hot[0].h = 1.0;  // pc
  cold[0].u = asura::units::temperature_to_u(1.0e4, 0.6);
  hot[0].u = asura::units::temperature_to_u(1.0e7, 0.6);
  cold[0].cs = cold[0].vsig = asura::sph::soundSpeed(cold[0].u);
  hot[0].cs = hot[0].vsig = asura::sph::soundSpeed(hot[0].u);
  SphParams sp;
  const double dt_cold = asura::sph::cflTimestep(cold, sp);
  const double dt_hot = asura::sph::cflTimestep(hot, sp);
  EXPECT_NEAR(dt_cold / dt_hot, std::sqrt(1.0e7 / 1.0e4), 1.0);
  // Hot-phase timestep lands near the ~100 yr scale that motivates the
  // surrogate (0.3 * 0.5 pc / ~300 km/s  ~ 5e-4 Myr).
  EXPECT_LT(dt_hot, 1e-3);
}

TEST(MaxGatherRadius, OnlyLocalGasCounts) {
  std::vector<Particle> parts(3);
  parts[0].type = Species::Gas;
  parts[0].h = 2.0;
  parts[1].type = Species::DarkMatter;
  parts[1].h = 9.0;
  parts[2].type = Species::Gas;
  parts[2].h = 5.0;  // ghost (beyond n_local)
  EXPECT_DOUBLE_EQ(asura::sph::maxGatherRadius(parts, 2), 2.0);
}

}  // namespace
