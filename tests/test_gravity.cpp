// Gravity tests: Newtonian limits, softening, tree-vs-direct accuracy as a
// function of the opening angle, the mixed-precision kernel, and the
// distributed (LET) solve against a serial direct sum.

#include <gtest/gtest.h>

#include <cmath>

#include "comm/comm.hpp"
#include "fdps/context.hpp"
#include "fdps/domain.hpp"
#include "fdps/let.hpp"
#include "gravity/gravity.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::fdps::Particle;
using asura::fdps::SourceEntry;
using asura::fdps::Species;
using asura::gravity::GravityParams;
using asura::util::Pcg32;
using asura::util::Vec3d;

/// Tree force on every particle of `parts` through a fresh pass context.
asura::gravity::GravityStats treeForce(std::vector<Particle>& parts,
                                       std::span<const SourceEntry> let,
                                       const GravityParams& gp) {
  asura::fdps::StepContext ctx;
  return asura::gravity::accumulateTreeGravity(ctx, parts, let,
                                               asura::fdps::targetIndices(parts), gp);
}

std::vector<Particle> plummerSphere(int n, std::uint64_t seed, double a = 10.0,
                                    double total_mass = 1000.0) {
  Pcg32 rng(seed);
  std::vector<Particle> parts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& p = parts[static_cast<std::size_t>(i)];
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.mass = total_mass / n;
    p.type = Species::DarkMatter;
    p.eps = 0.05;
    // Plummer radius sampling: r = a (u^{-2/3} - 1)^{-1/2}.
    const double u = rng.uniform(1e-6, 1.0 - 1e-6);
    const double r = a / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    p.pos = std::min(r, 50.0 * a) * rng.isotropic();
  }
  return parts;
}

void zeroForces(std::vector<Particle>& parts) {
  for (auto& p : parts) {
    p.acc = Vec3d{};
    p.pot = 0.0;
  }
}

TEST(GravityDirect, TwoBodyNewton) {
  const double G = asura::units::G;
  std::vector<Particle> parts(2);
  parts[0].pos = {0, 0, 0};
  parts[1].pos = {3, 4, 0};  // r = 5
  parts[0].mass = 2.0;
  parts[1].mass = 8.0;
  parts[0].eps = parts[1].eps = 0.0;

  auto sources = asura::fdps::makeSourceEntries(parts);
  asura::gravity::accumulateDirect(parts, sources, G);

  const double r = 5.0;
  const double a0 = G * 8.0 / (r * r);
  EXPECT_NEAR(parts[0].acc.norm(), a0, 1e-12 * a0);
  // Third law: m0*a0 = -m1*a1.
  EXPECT_NEAR((2.0 * parts[0].acc + 8.0 * parts[1].acc).norm(), 0.0, 1e-14);
  // Potential of a point mass.
  EXPECT_NEAR(parts[0].pot, -G * 8.0 / r, 1e-12);
}

TEST(GravityDirect, SofteningBoundsForce) {
  const double G = asura::units::G;
  std::vector<Particle> parts(2);
  parts[0].pos = {0, 0, 0};
  parts[1].pos = {0.01, 0, 0};
  parts[0].mass = parts[1].mass = 1.0;
  parts[0].eps = parts[1].eps = 1.0;
  auto sources = asura::fdps::makeSourceEntries(parts);
  asura::gravity::accumulateDirect(parts, sources, G);
  // With eps^2 combined = 2, the force is ~ G m r / (r^2+2)^{3/2} << G m/r^2.
  const double unsoftened = G / (0.01 * 0.01);
  EXPECT_LT(parts[0].acc.norm(), 1e-3 * unsoftened);
  EXPECT_GT(parts[0].acc.norm(), 0.0);
}

TEST(GravityDirect, SelfPairSkipped) {
  std::vector<Particle> parts(1);
  parts[0].mass = 5.0;
  parts[0].eps = 0.1;
  auto sources = asura::fdps::makeSourceEntries(parts);
  asura::gravity::accumulateDirect(parts, sources, 1.0);
  EXPECT_EQ(parts[0].acc.norm(), 0.0);
  EXPECT_EQ(parts[0].pot, 0.0);
}

TEST(GravityDirect, MomentumConservation) {
  auto parts = plummerSphere(300, 1);
  auto sources = asura::fdps::makeSourceEntries(parts);
  asura::gravity::accumulateDirect(parts, sources, asura::units::G);
  Vec3d ptot{};
  double a_scale = 0.0;
  for (const auto& p : parts) {
    ptot += p.mass * p.acc;
    a_scale += p.mass * p.acc.norm();
  }
  EXPECT_LT(ptot.norm() / a_scale, 1e-12);
}

double rmsRelativeAccError(const std::vector<Particle>& test,
                           const std::vector<Particle>& ref) {
  double s = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = (test[i].acc - ref[i].acc).norm();
    const double a = ref[i].acc.norm();
    if (a > 0.0) s += (d / a) * (d / a);
  }
  return std::sqrt(s / static_cast<double>(ref.size()));
}

class TreeAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(TreeAccuracyTest, TreeErrorBoundedByTheta) {
  const double theta = GetParam();
  auto parts = plummerSphere(2000, 2);
  auto reference = parts;
  zeroForces(reference);
  auto sources = asura::fdps::makeSourceEntries(reference);
  asura::gravity::accumulateDirect(reference, sources, asura::units::G);

  zeroForces(parts);
  GravityParams gp;
  gp.theta = theta;
  gp.kernel = GravityParams::Kernel::ScalarF64;
  const auto stats = treeForce(parts, {}, gp);
  EXPECT_GT(stats.ep_interactions + stats.sp_interactions, 0u);

  const double err = rmsRelativeAccError(parts, reference);
  // Empirical Barnes-Hut monopole error envelope.
  EXPECT_LT(err, 0.02 * theta * theta + 1e-4) << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Thetas, TreeAccuracyTest, ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(TreeGravity, ThetaZeroMatchesDirectExactly) {
  auto parts = plummerSphere(500, 3);
  auto reference = parts;
  zeroForces(reference);
  auto sources = asura::fdps::makeSourceEntries(reference);
  asura::gravity::accumulateDirect(reference, sources, asura::units::G);

  zeroForces(parts);
  GravityParams gp;
  gp.theta = 0.0;
  gp.kernel = GravityParams::Kernel::ScalarF64;
  treeForce(parts, {}, gp);
  EXPECT_LT(rmsRelativeAccError(parts, reference), 1e-12);
}

TEST(TreeGravity, MixedPrecisionCloseToDouble) {
  auto parts = plummerSphere(2000, 4);
  auto f64 = parts;
  zeroForces(f64);
  GravityParams gp;
  gp.theta = 0.5;
  gp.kernel = GravityParams::Kernel::ScalarF64;
  treeForce(f64, {}, gp);

  auto f32 = parts;
  zeroForces(f32);
  gp.kernel = GravityParams::Kernel::MixedF32;
  treeForce(f32, {}, gp);

  // The group-relative conversion keeps single-precision error tiny compared
  // with the theta-induced tree error.
  EXPECT_LT(rmsRelativeAccError(f32, f64), 2e-4);
}

TEST(TreeGravity, FlopAccountingUsesPaperConvention) {
  asura::gravity::GravityStats s;
  s.ep_interactions = 100;
  s.sp_interactions = 50;
  EXPECT_DOUBLE_EQ(s.flops(), 27.0 * 150.0);
}

TEST(TreeGravity, StatsScaleAsNLogN) {
  GravityParams gp;
  gp.theta = 0.5;
  auto small = plummerSphere(1000, 5);
  auto large = plummerSphere(8000, 6);
  zeroForces(small);
  zeroForces(large);
  const auto s1 = treeForce(small, {}, gp);
  const auto s2 = treeForce(large, {}, gp);
  const double per1 =
      static_cast<double>(s1.ep_interactions + s1.sp_interactions) / 1000.0;
  const double per2 =
      static_cast<double>(s2.ep_interactions + s2.sp_interactions) / 8000.0;
  // Interactions per particle grow, but far sub-linearly (log-ish): an 8x
  // larger N must cost well under 8x more work per particle.
  EXPECT_GT(per2, per1);
  EXPECT_LT(per2, 4.0 * per1);
}

TEST(TreeGravity, DistributedLetMatchesSerialDirect) {
  // 8 ranks x tree+LET vs single direct sum over everything.
  const int P = 8;
  const int n_total = 4000;
  auto all = plummerSphere(n_total, 7);
  auto reference = all;
  zeroForces(reference);
  auto sources = asura::fdps::makeSourceEntries(reference);
  asura::gravity::accumulateDirect(reference, sources, asura::units::G);
  std::map<std::uint64_t, Vec3d> ref_acc;
  for (const auto& p : reference) ref_acc[p.id] = p.acc;

  Cluster cluster(P);
  cluster.run([&](Comm& comm) {
    // Block-partition the shared IC deterministically.
    std::vector<Particle> mine;
    for (int i = comm.rank(); i < n_total; i += P) {
      mine.push_back(all[static_cast<std::size_t>(i)]);
    }
    asura::fdps::DomainDecomposer dd(2, 2, 2);
    Pcg32 rng(11, static_cast<std::uint64_t>(comm.rank()));
    dd.decompose(comm, mine, rng, false);
    mine = dd.exchange(comm, mine);
    zeroForces(mine);

    asura::fdps::SourceTree tree;
    tree.build(asura::fdps::makeSourceEntries(mine));
    const auto let = asura::fdps::exchangeGravityLet(comm, dd, tree, 0.4);

    GravityParams gp;
    gp.theta = 0.4;
    gp.kernel = GravityParams::Kernel::ScalarF64;
    treeForce(mine, let, gp);

    double err2 = 0.0;
    for (const auto& p : mine) {
      const Vec3d ra = ref_acc.at(p.id);
      const double d = (p.acc - ra).norm();
      if (ra.norm() > 0.0) err2 += (d / ra.norm()) * (d / ra.norm());
    }
    const double rms = std::sqrt(err2 / static_cast<double>(mine.size()));
    EXPECT_LT(rms, 0.02);
  });
}

}  // namespace
