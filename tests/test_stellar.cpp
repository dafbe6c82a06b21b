// Tests for stellar physics: Kroupa IMF statistics, lifetimes, the
// star-formation model, one-step-ahead SN identification and the cooling /
// heating integrator.

#include <gtest/gtest.h>

#include <cmath>

#include "stellar/stellar.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using asura::fdps::Particle;
using asura::fdps::Species;
using asura::stellar::KroupaImf;
using asura::stellar::StarFormationParams;
using asura::util::Pcg32;

TEST(Imf, SamplesStayInRange) {
  KroupaImf imf;
  Pcg32 rng(1);
  for (int i = 0; i < 20000; ++i) {
    const double m = imf.sample(rng);
    ASSERT_GE(m, 0.08);
    ASSERT_LE(m, 120.0);
  }
}

TEST(Imf, SampleMeanMatchesAnalyticMean) {
  KroupaImf imf;
  Pcg32 rng(2);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += imf.sample(rng);
  EXPECT_NEAR(sum / n, imf.meanMass(), 0.05 * imf.meanMass());
  // Kroupa mean mass is a few tenths of a solar mass.
  EXPECT_GT(imf.meanMass(), 0.2);
  EXPECT_LT(imf.meanMass(), 0.8);
}

TEST(Imf, MassiveStarsAreRareButPresent) {
  KroupaImf imf;
  const double f8 = imf.numberFractionAbove(asura::stellar::kSnMassThreshold);
  // "Massive stars more than about 10 times solar masses are only a few
  // percent of all stellar populations" (paper §1).
  EXPECT_GT(f8, 1e-3);
  EXPECT_LT(f8, 0.05);

  Pcg32 rng(3);
  int massive = 0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    massive += imf.sample(rng) >= 8.0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(massive) / n, f8, 0.3 * f8);
}

TEST(Imf, HighMassSlopeIsSalpeterLike) {
  KroupaImf imf;
  Pcg32 rng(4);
  int n1 = 0, n2 = 0;  // counts in [2,4) and [4,8)
  for (int i = 0; i < 400000; ++i) {
    const double m = imf.sample(rng);
    if (m >= 2.0 && m < 4.0) ++n1;
    if (m >= 4.0 && m < 8.0) ++n2;
  }
  // For dN/dm ∝ m^-2.3: N[2,4)/N[4,8) = 2^1.3.
  EXPECT_NEAR(static_cast<double>(n1) / n2, std::pow(2.0, 1.3), 0.2);
}

TEST(Lifetime, CalibrationPoints) {
  EXPECT_NEAR(asura::stellar::stellarLifetime(1.0), 1.0e4, 1.0);  // ~10 Gyr
  const double t8 = asura::stellar::stellarLifetime(8.0);
  EXPECT_GT(t8, 20.0);   // tens of Myr
  EXPECT_LT(t8, 100.0);
  EXPECT_DOUBLE_EQ(asura::stellar::stellarLifetime(100.0), 3.0);  // floor
  EXPECT_GT(asura::stellar::stellarLifetime(1.0), asura::stellar::stellarLifetime(2.0));
}

Particle denseColdGas() {
  Particle p;
  p.type = Species::Gas;
  p.mass = 1.0;
  p.rho = 10.0;   // above threshold
  p.u = asura::units::temperature_to_u(20.0, 1.27);
  p.divv = -1.0;  // converging
  return p;
}

TEST(StarFormation, DenseColdConvergingGasFormsStars) {
  StarFormationParams sf;
  KroupaImf imf;
  Pcg32 rng(5);
  std::vector<Particle> parts(2000, denseColdGas());
  for (std::size_t i = 0; i < parts.size(); ++i) parts[i].id = i + 1;

  const double dt = 1.0;
  const int formed = asura::stellar::formStars(parts, 10.0, dt, sf, imf, rng);
  const double t_ff = asura::stellar::freeFallTime(10.0);
  const double p_expect = 1.0 - std::exp(-sf.efficiency * dt / t_ff);
  EXPECT_NEAR(static_cast<double>(formed) / parts.size(), p_expect, 0.3 * p_expect + 0.01);

  for (const auto& p : parts) {
    if (p.isStar()) {
      EXPECT_DOUBLE_EQ(p.t_form, 10.0);
      EXPECT_GT(p.star_mass, 0.0);
      if (p.star_mass >= 8.0) {
        EXPECT_GT(p.t_sn, 10.0);
      } else {
        EXPECT_LT(p.t_sn, 0.0);
      }
    }
  }
}

TEST(StarFormation, HotOrSparseOrExpandingGasDoesNot) {
  StarFormationParams sf;
  KroupaImf imf;
  Pcg32 rng(6);

  std::vector<Particle> hot(200, denseColdGas());
  for (auto& p : hot) p.u = asura::units::temperature_to_u(1.0e4, 1.27);
  EXPECT_EQ(asura::stellar::formStars(hot, 0.0, 10.0, sf, imf, rng), 0);

  std::vector<Particle> sparse(200, denseColdGas());
  for (auto& p : sparse) p.rho = 0.01;
  EXPECT_EQ(asura::stellar::formStars(sparse, 0.0, 10.0, sf, imf, rng), 0);

  std::vector<Particle> expanding(200, denseColdGas());
  for (auto& p : expanding) p.divv = +1.0;
  EXPECT_EQ(asura::stellar::formStars(expanding, 0.0, 10.0, sf, imf, rng), 0);

  std::vector<Particle> frozen(200, denseColdGas());
  for (auto& p : frozen) p.frozen = 1;
  EXPECT_EQ(asura::stellar::formStars(frozen, 0.0, 10.0, sf, imf, rng), 0);
}

TEST(SnIdentification, WindowedAndOneShot) {
  std::vector<Particle> parts(4);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts[i].id = i + 1;
    parts[i].type = Species::Star;
    parts[i].star_mass = 20.0;
  }
  parts[0].t_sn = 10.5;   // inside (10, 12]
  parts[1].t_sn = 12.0;   // boundary: inside
  parts[2].t_sn = 12.5;   // next window
  parts[3].t_sn = -1.0;   // no SN

  auto events = asura::stellar::identifySupernovae(parts, 10.0, 2.0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].star_id, 1u);
  EXPECT_EQ(events[1].star_id, 2u);
  // Fired stars are cleared; a second scan finds only the later one.
  events = asura::stellar::identifySupernovae(parts, 12.0, 2.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].star_id, 3u);
  EXPECT_TRUE(asura::stellar::identifySupernovae(parts, 14.0, 2.0).empty());
}

TEST(Cooling, LambdaShape) {
  using asura::stellar::lambdaCooling;
  EXPECT_GT(lambdaCooling(1.0e5), lambdaCooling(1.0e4));   // rise to the peak
  EXPECT_GT(lambdaCooling(1.0e5), lambdaCooling(1.0e7));   // decline past it
  EXPECT_GT(lambdaCooling(1.0e9), lambdaCooling(1.0e8));   // free-free rise
  EXPECT_LT(lambdaCooling(100.0), 1e-24);                  // cold gas cools slowly
  EXPECT_EQ(lambdaCooling(-5.0), 0.0);
}

constexpr double kMu = asura::units::mu_gas;

TEST(Cooling, HotDenseGasCoolsTowardTheFloorPhase) {
  const double u0 = asura::units::temperature_to_u(1.0e6, kMu);
  // Dense gas (n_H ~ 100): the 1e6 K phase is strongly cooling.
  const double u1 = asura::stellar::integrateCooling(u0, 3.0, 1.0);
  EXPECT_LT(u1, 0.5 * u0);
}

TEST(Cooling, ColdGasIsHeatedByPhotoelectricTerm) {
  const double u0 =
      asura::units::temperature_to_u(asura::stellar::kCoolingTempFloor, kMu);
  // Very diffuse gas: heating dominates.
  const double u1 = asura::stellar::integrateCooling(u0, 1e-4, 10.0);
  EXPECT_GT(u1, u0);
}

TEST(Cooling, RespectsFloorAndCeiling) {
  const double u_floor =
      asura::units::temperature_to_u(asura::stellar::kCoolingTempFloor, kMu);
  const double u_lo = asura::stellar::integrateCooling(0.5 * u_floor, 100.0, 10.0);
  EXPECT_GE(u_lo, u_floor * 0.99);
  const double u_ceil = asura::units::temperature_to_u(asura::stellar::kCoolingTempCeil, kMu);
  const double u_hi = asura::stellar::integrateCooling(u_ceil * 2.0, 1e-6, 1e-6);
  EXPECT_LE(u_hi, u_ceil * 1.01);
}

TEST(Cooling, SkipsFrozenAndNonGas) {
  std::vector<Particle> parts(3);
  parts[0].type = Species::Gas;
  parts[0].u = asura::units::temperature_to_u(1e6, kMu);
  parts[0].rho = 3.0;
  parts[1] = parts[0];
  parts[1].frozen = 1;
  parts[2] = parts[0];
  parts[2].type = Species::Star;
  const double u0 = parts[0].u;
  asura::stellar::coolAndHeat(parts, 1.0);
  EXPECT_LT(parts[0].u, u0);
  EXPECT_DOUBLE_EQ(parts[1].u, u0);
  EXPECT_DOUBLE_EQ(parts[2].u, u0);
}

}  // namespace
