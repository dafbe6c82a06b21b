// Once-per-pass tree pipeline regression tests: the radix-sorted parallel
// build must be order-identical to the comparator-based std::sort it
// replaced, cached StepContext trees must reproduce the fresh-build forces,
// and the per-step tree-build counter must show the 6 -> <=3 reduction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/simulation.hpp"
#include "fdps/context.hpp"
#include "fdps/morton.hpp"
#include "fdps/tree.hpp"
#include "gravity/gravity.hpp"
#include "sph/sph.hpp"
#include "util/rng.hpp"

namespace {

using asura::fdps::Box;
using asura::fdps::Particle;
using asura::fdps::SourceEntry;
using asura::fdps::SourceTree;
using asura::fdps::Species;
using asura::fdps::StepContext;
using asura::util::Pcg32;
using asura::util::Vec3d;

std::vector<Particle> randomParticles(int n, std::uint64_t seed, double box = 100.0) {
  Pcg32 rng(seed);
  std::vector<Particle> parts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& p = parts[static_cast<std::size_t>(i)];
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.mass = rng.uniform(0.5, 1.5);
    p.pos = {rng.uniform(-box, box), rng.uniform(-box, box), rng.uniform(-box, box)};
    p.vel = {rng.normal(), rng.normal(), rng.normal()};
    p.eps = 0.1;
    p.h = 5.0;
    p.u = 50.0;
    p.type = (i % 3 == 0) ? Species::Gas : Species::DarkMatter;
  }
  return parts;
}

// ---------------------------------------------------------------------------
// Radix sort vs the comparator-based reference
// ---------------------------------------------------------------------------

TEST(RadixSort, MatchesComparatorSortWithTieBreak) {
  Pcg32 rng(1);
  std::vector<std::uint64_t> keys(20000);
  for (auto& k : keys) {
    k = rng.nextU64() >> 1;
    if (rng.uniform() < 0.3) k &= 0xffULL;  // force heavy duplication
  }
  std::vector<std::uint32_t> ref(keys.size());
  std::iota(ref.begin(), ref.end(), 0u);
  std::sort(ref.begin(), ref.end(), [&](std::uint32_t a, std::uint32_t b) {
    return keys[a] < keys[b] || (keys[a] == keys[b] && a < b);
  });

  std::vector<std::uint32_t> order;
  asura::fdps::radixSortByKey(keys, order);
  EXPECT_EQ(order, ref);
}

TEST(RadixSort, AllEqualKeysAreIdentity) {
  std::vector<std::uint64_t> keys(777, 0x123456789abcULL);
  std::vector<std::uint32_t> order;
  asura::fdps::radixSortByKey(keys, order);
  for (std::uint32_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(TreePipeline, EntriesMatchComparatorSortedReference) {
  const auto parts = randomParticles(5000, 7);
  auto entries = asura::fdps::makeSourceEntries(parts);

  // Reference ordering: exactly what the seed's indirect std::sort produced.
  Box all;
  for (const auto& e : entries) all.extend(e.pos);
  const Box cube = all.boundingCube();
  std::vector<std::uint64_t> keys(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    keys[i] = asura::fdps::mortonKey(entries[i].pos, cube);
  }
  std::vector<std::uint32_t> ref(entries.size());
  std::iota(ref.begin(), ref.end(), 0u);
  std::sort(ref.begin(), ref.end(), [&](std::uint32_t a, std::uint32_t b) {
    return keys[a] < keys[b] || (keys[a] == keys[b] && a < b);
  });

  SourceTree tree;
  tree.build(entries);
  ASSERT_EQ(tree.entries().size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(tree.entries()[i].idx, entries[ref[i]].idx) << "at rank " << i;
  }
}

TEST(TreePipeline, GatherParityBetweenShuffledAndPresortedInput) {
  const auto parts = randomParticles(3000, 11);
  auto entries = asura::fdps::makeSourceEntries(parts);

  SourceTree tree_a;
  tree_a.build(entries);

  // Presorted input must yield the identical internal state (the radix sort
  // is a no-op permutation then), hence identical traversal output.
  std::vector<SourceEntry> presorted(tree_a.entries().begin(), tree_a.entries().end());
  SourceTree tree_b;
  tree_b.build(std::move(presorted));

  Box target;
  target.extend({-20, -20, -20});
  target.extend({5, 10, 0});

  std::vector<std::uint32_t> ep_a, ep_b;
  std::vector<asura::fdps::Monopole> sp_a, sp_b;
  tree_a.gatherInteraction(target, 0.5, ep_a, sp_a);
  tree_b.gatherInteraction(target, 0.5, ep_b, sp_b);
  EXPECT_EQ(ep_a, ep_b);
  ASSERT_EQ(sp_a.size(), sp_b.size());
  for (std::size_t i = 0; i < sp_a.size(); ++i) {
    EXPECT_EQ(sp_a[i].com, sp_b[i].com);
    EXPECT_DOUBLE_EQ(sp_a[i].mass, sp_b[i].mass);
  }

  std::vector<std::uint32_t> nb_a, nb_b;
  tree_a.gatherNeighbors(target, 12.0, nb_a);
  tree_b.gatherNeighbors(target, 12.0, nb_b);
  EXPECT_EQ(nb_a, nb_b);
}

// ---------------------------------------------------------------------------
// Smoothing refresh instead of rebuild
// ---------------------------------------------------------------------------

TEST(TreePipeline, RefreshSmoothingMatchesFreshBuild) {
  auto parts = randomParticles(2000, 13);
  SourceTree tree;
  tree.build(asura::fdps::makeSourceEntries(parts, /*gas_only=*/true));

  // Density-like update: supports change, positions do not.
  Pcg32 rng(14);
  for (auto& p : parts) {
    if (p.isGas()) p.h *= rng.uniform(0.5, 2.0);
  }
  tree.refreshSmoothing(parts);

  SourceTree fresh;
  fresh.build(asura::fdps::makeSourceEntries(parts, /*gas_only=*/true));

  ASSERT_EQ(tree.entries().size(), fresh.entries().size());
  for (std::size_t i = 0; i < tree.entries().size(); ++i) {
    EXPECT_DOUBLE_EQ(tree.entries()[i].h, fresh.entries()[i].h);
  }
  ASSERT_EQ(tree.nodes().size(), fresh.nodes().size());
  for (std::size_t i = 0; i < tree.nodes().size(); ++i) {
    EXPECT_DOUBLE_EQ(tree.nodes()[i].max_h, fresh.nodes()[i].max_h);
  }

  Box target;
  target.extend({0, 0, 0});
  std::vector<std::uint32_t> nb_refreshed, nb_fresh;
  tree.gatherNeighbors(target, 8.0, nb_refreshed);
  fresh.gatherNeighbors(target, 8.0, nb_fresh);
  EXPECT_EQ(nb_refreshed, nb_fresh);
}

// ---------------------------------------------------------------------------
// StepContext: cached trees reproduce the fresh-build physics
// ---------------------------------------------------------------------------

double rmsRelativeAccError(const std::vector<Particle>& test,
                           const std::vector<Particle>& ref) {
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double a = ref[i].acc.norm();
    if (a <= 0.0) continue;
    const double d = (test[i].acc - ref[i].acc).norm();
    s += (d / a) * (d / a);
    ++n;
  }
  return n > 0 ? std::sqrt(s / static_cast<double>(n)) : 0.0;
}

TEST(StepContext, CachedGravityMatchesScalarF64Baseline) {
  auto parts = randomParticles(3000, 17);
  asura::gravity::GravityParams gp;
  gp.theta = 0.5;
  gp.kernel = asura::gravity::GravityParams::Kernel::ScalarF64;

  const auto all = asura::fdps::targetIndices(parts);

  auto reference = parts;
  for (auto& p : reference) { p.acc = Vec3d{}; p.pot = 0.0; }
  StepContext fresh;
  asura::gravity::accumulateTreeGravity(fresh, reference, {}, all, gp);

  StepContext ctx;
  auto cached = parts;
  for (auto& p : cached) { p.acc = Vec3d{}; p.pot = 0.0; }
  asura::gravity::accumulateTreeGravity(ctx, cached, {}, all, gp);  // builds
  EXPECT_EQ(ctx.buildsThisStep(), 1);
  for (auto& p : cached) { p.acc = Vec3d{}; p.pot = 0.0; }
  asura::gravity::accumulateTreeGravity(ctx, cached, {}, all, gp);  // cache hit
  EXPECT_EQ(ctx.buildsThisStep(), 1) << "second evaluation must reuse the tree";

  EXPECT_LT(rmsRelativeAccError(cached, reference), 1e-12);
}

TEST(StepContext, SharedGasTreeMatchesFreshSphPasses) {
  auto parts = randomParticles(2000, 19);
  for (auto& p : parts) p.type = Species::Gas;
  asura::sph::SphParams sp;
  sp.n_ngb = 32;

  const auto gas = asura::fdps::targetIndices(parts, /*gas_only=*/true);

  auto reference = parts;
  StepContext density_ctx, force_ctx;  // one fresh tree per pass
  asura::sph::solveDensity(density_ctx, reference, gas, sp);
  asura::sph::accumulateHydroForce(force_ctx, reference, gas, sp);

  StepContext ctx;
  auto shared = parts;
  asura::sph::solveDensity(ctx, shared, gas, sp);
  asura::sph::accumulateHydroForce(ctx, shared, gas, sp);
  EXPECT_EQ(ctx.buildsThisStep(), 1) << "density and hydro force must share one tree";
  EXPECT_GE(ctx.refreshesThisStep(), 1);

  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_DOUBLE_EQ(shared[i].rho, reference[i].rho) << i;
    EXPECT_DOUBLE_EQ(shared[i].h, reference[i].h) << i;
    EXPECT_NEAR((shared[i].acc - reference[i].acc).norm(), 0.0,
                1e-12 * (1.0 + reference[i].acc.norm()))
        << i;
    EXPECT_NEAR(shared[i].du_dt, reference[i].du_dt,
                1e-12 * (1.0 + std::abs(reference[i].du_dt)))
        << i;
  }
}

TEST(StepContext, InvalidateForcesRebuild) {
  auto parts = randomParticles(500, 23);
  asura::gravity::GravityParams gp;
  const auto all = asura::fdps::targetIndices(parts);
  StepContext ctx;
  for (auto& p : parts) { p.acc = Vec3d{}; p.pot = 0.0; }
  asura::gravity::accumulateTreeGravity(ctx, parts, {}, all, gp);
  EXPECT_EQ(ctx.buildsThisStep(), 1);
  ctx.invalidate();
  for (auto& p : parts) { p.acc = Vec3d{}; p.pot = 0.0; }
  asura::gravity::accumulateTreeGravity(ctx, parts, {}, all, gp);
  EXPECT_EQ(ctx.buildsThisStep(), 2);
}

TEST(StepContext, GroupSlotIsKeyedByTargetContent) {
  auto parts = randomParticles(600, 31);
  StepContext ctx;
  const auto covers = [](const std::vector<asura::fdps::TargetGroup>& groups,
                         std::vector<std::uint32_t> want) {
    std::vector<std::uint32_t> got;
    for (const auto& g : groups) got.insert(got.end(), g.indices.begin(), g.indices.end());
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    return got == want;
  };
  // Two target lists of equal length but different content: a size
  // fingerprint would serve the first list's groups for the second.
  std::vector<std::uint32_t> evens, odds;
  for (std::uint32_t i = 0; i < parts.size(); ++i) (i % 2 == 0 ? evens : odds).push_back(i);
  EXPECT_TRUE(covers(ctx.gravityGroups(parts, evens, 64), evens));
  EXPECT_TRUE(covers(ctx.gravityGroups(parts, odds, 64), odds));

  // Same list after a drift: the position refresh drops the slot, so the
  // group boxes follow the moved particles.
  for (auto& p : parts) p.pos += Vec3d{1000.0, 0.0, 0.0};
  ctx.refreshGravityPositions(parts);
  for (const auto& g : ctx.gravityGroups(parts, odds, 64)) {
    for (const auto i : g.indices) EXPECT_LE(g.bbox.distance(parts[i].pos), 0.0);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the per-step build counter drops from the seed's 6 to <= 3
// ---------------------------------------------------------------------------

TEST(StepContext, SimulationStepBuildsAtMostThreeTrees) {
  auto parts = randomParticles(1500, 29);
  asura::core::SimulationConfig cfg;
  cfg.use_surrogate = false;         // no surrogate replacements this run
  cfg.enable_star_formation = false; // no species conversions
  cfg.enable_cooling = true;         // u changes must NOT force rebuilds
  asura::core::Simulation sim(parts, cfg);

  for (int s = 0; s < 3; ++s) {
    const auto stats = sim.step();
    EXPECT_LE(stats.tree_builds, 3)
        << "step " << s << " rebuilt " << stats.tree_builds
        << " trees; the seed needed 6";
    EXPECT_GE(stats.tree_builds, 2)
        << "first pass must build the gas and gravity trees";
    EXPECT_GE(stats.tree_refreshes, 1);
  }
}

}  // namespace
