// Hierarchical block-timestep regression tests: a max_rung = 0 block step
// is bitwise the global step, integrator parity on a two-body orbit and an SN
// blastwave (energy drift at matched tolerance, fewer force evaluations),
// SN identify/receive pinned to full-step boundaries, and the tree-build
// ceiling across sub-steps (cached trees position-refreshed, not rebuilt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/simulation.hpp"
#include "ic_fixtures.hpp"
#include "io/particle_codec.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::core::StepStats;
using asura::fdps::Particle;
using asura::fdps::Species;
using asura::testing::blastwaveIc;
using asura::testing::gasBall;
using asura::util::Pcg32;
using asura::util::Vec3d;

SimulationConfig quietConfig() {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 32;
  cfg.gravity.theta = 0.6;
  return cfg;
}

double totalEnergy(const Simulation& sim) {
  const auto e = sim.energyReport();
  return e.total();
}

// ---------------------------------------------------------------------------
// Rung-0 degeneracy: max_rung = 0 must be the global kick-drift-kick
// ---------------------------------------------------------------------------

TEST(BlockTimesteps, AllOnRungZeroMatchesGlobalStep) {
  // A global step is the block loop's single rung-0 sub-step, so the two
  // configurations run the same arithmetic: every field the checkpoint
  // codec encodes must match bitwise. (The 8-rank twin lives in
  // test_distributed.)
  auto parts = gasBall(800, 25.0, 0.1, 5);
  SimulationConfig base = quietConfig();
  Simulation ref(parts, base);

  SimulationConfig hier = base;
  hier.hierarchical_timestep = true;
  hier.max_rung = 0;
  Simulation sim(parts, hier);

  for (int s = 0; s < 5; ++s) {
    const auto sr = ref.step();
    const auto sh = sim.step();
    EXPECT_DOUBLE_EQ(sr.dt_used, sh.dt_used);
    EXPECT_EQ(sh.substeps, 1);
    EXPECT_EQ(sh.rung_histogram[0], static_cast<int>(parts.size()));
  }
  const auto& a = ref.particles();
  const auto& b = sim.particles();
  ASSERT_EQ(a.size(), b.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    asura::io::ByteWriter wa, wb;
    wa(a[i]);
    wb(b[i]);
    if (wa.bytes() != wb.bytes()) ++differing;
  }
  EXPECT_EQ(differing, 0u);
}

// ---------------------------------------------------------------------------
// Two-body orbit: the hierarchy must keep the orbit's energy
// ---------------------------------------------------------------------------

TEST(BlockTimesteps, TwoBodyOrbitEnergyDrift) {
  // Equal-mass pair on a circular orbit: v = sqrt(G M / (2 d)) each.
  const double m = 50.0, d = 4.0;
  const double v = std::sqrt(asura::units::G * m / (2.0 * d));
  std::vector<Particle> parts(2);
  for (int i = 0; i < 2; ++i) {
    parts[static_cast<std::size_t>(i)].id = static_cast<std::uint64_t>(i) + 1;
    parts[static_cast<std::size_t>(i)].type = Species::Star;
    parts[static_cast<std::size_t>(i)].mass = m;
    parts[static_cast<std::size_t>(i)].eps = 0.05;
  }
  parts[0].pos = {-d / 2, 0, 0};
  parts[1].pos = {d / 2, 0, 0};
  parts[0].vel = {0, -v / 2, 0};
  parts[1].vel = {0, v / 2, 0};

  SimulationConfig cfg = quietConfig();
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 8;
  cfg.dt_global = 0.5;  // coarse global step: the accel criterion must refine
  Simulation sim(parts, cfg);

  sim.step();  // first step: zero accelerations, everyone on rung 0
  const double e0 = totalEnergy(sim);
  bool refined = false;
  for (int s = 0; s < 20; ++s) {
    const auto st = sim.step();
    for (int k = 1; k < asura::core::kMaxRungs; ++k) {
      refined |= st.rung_histogram[static_cast<std::size_t>(k)] > 0;
    }
  }
  const double e1 = totalEnergy(sim);
  EXPECT_TRUE(refined) << "accel criterion never left rung 0";
  EXPECT_LT(std::abs(e1 - e0) / std::abs(e0), 0.02);
}

// ---------------------------------------------------------------------------
// SN blastwave: parity with the global-CFL baseline at matched energy error,
// with fewer force evaluations
// ---------------------------------------------------------------------------

TEST(BlockTimesteps, BlastwaveEnergyParityAndFewerForceEvals) {
  const auto ic = blastwaveIc(4000, 21);
  const double t_end = 0.006;  // three global steps

  SimulationConfig base = quietConfig();
  base.adaptive_timestep = true;
  base.feedback_radius = 1.0;
  Simulation ref(ic, base);
  std::uint64_t ref_evals = 0;
  double ref_e0 = 0.0;
  int ref_steps = 0;
  while (ref.time() < t_end && ref_steps < 4000) {
    const auto st = ref.step();
    ref_evals += st.force_evaluations;
    if (ref_steps == 0) ref_e0 = totalEnergy(ref);
    ++ref_steps;
  }
  EXPECT_GT(ref_steps, 6) << "baseline CFL step never collapsed below dt_global";
  const double ref_drift = std::abs(totalEnergy(ref) - ref_e0) / std::abs(ref_e0);

  SimulationConfig hier = quietConfig();
  hier.hierarchical_timestep = true;
  hier.max_rung = 10;
  hier.feedback_radius = 1.0;
  Simulation sim(ic, hier);
  std::uint64_t hier_evals = 0;
  double hier_e0 = 0.0;
  int hier_steps = 0;
  bool deep = false;
  while (sim.time() < t_end && hier_steps < 16) {
    const auto st = sim.step();
    hier_evals += st.force_evaluations;
    if (hier_steps == 0) hier_e0 = totalEnergy(sim);
    for (int k = 2; k < asura::core::kMaxRungs; ++k) {
      deep |= st.rung_histogram[static_cast<std::size_t>(k)] > 0;
    }
    EXPECT_DOUBLE_EQ(st.dt_used, hier.dt_global);
    ++hier_steps;
  }
  const double hier_drift = std::abs(totalEnergy(sim) - hier_e0) / std::abs(hier_e0);

  EXPECT_TRUE(deep) << "blastwave never drove any particle to a deep rung";
  // Matched energy error: both schemes conserve to a few percent.
  EXPECT_LT(ref_drift, 0.05);
  EXPECT_LT(hier_drift, 0.05);
  // The active-set decoupling must cut per-Myr force work vs the global-CFL
  // baseline (the bench pins the >=5x target; keep slack for small N here).
  const double ref_per_myr = static_cast<double>(ref_evals) / ref.time();
  const double hier_per_myr = static_cast<double>(hier_evals) / sim.time();
  EXPECT_LT(hier_per_myr, 0.5 * ref_per_myr);
}

// ---------------------------------------------------------------------------
// SN identification / surrogate receive stay on full-step boundaries
// ---------------------------------------------------------------------------

TEST(BlockTimesteps, SnIdentifyAndReceiveAtFullStepBoundaries) {
  auto parts = gasBall(600, 20.0, 1.0, 31, 100.0);
  Particle star;
  star.id = 77777;
  star.type = Species::Star;
  star.mass = 1.0;
  star.star_mass = 20.0;
  star.pos = {0, 0, 0};
  star.t_sn = 0.003;  // inside step 2's (t, t + dt] window
  star.eps = 0.5;
  parts.push_back(star);

  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  cfg.return_interval = 3;
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 6;
  Simulation sim(parts, cfg);

  int sn_step = -1, replaced_step = -1, frozen_after_sn = 0;
  for (int s = 0; s < 8; ++s) {
    const auto st = sim.step();
    EXPECT_DOUBLE_EQ(st.dt_used, cfg.dt_global);  // surrogate: fixed dt
    if (st.sn_identified > 0 && sn_step < 0) {
      sn_step = s;
      for (const auto& p : sim.particles()) frozen_after_sn += p.frozen;
    }
    if (st.particles_replaced > 0 && replaced_step < 0) replaced_step = s;
  }
  EXPECT_EQ(sn_step, 1);  // t_sn = 0.003 lies in (0.002, 0.004]
  EXPECT_GT(frozen_after_sn, 0);
  ASSERT_GE(replaced_step, 0) << "surrogate prediction never returned";
  EXPECT_EQ(replaced_step, sn_step + cfg.return_interval);
  int frozen_final = 0;
  for (const auto& p : sim.particles()) frozen_final += p.frozen;
  EXPECT_EQ(frozen_final, 0);
}

// ---------------------------------------------------------------------------
// Tree economy: sub-steps refresh the cached trees instead of rebuilding
// ---------------------------------------------------------------------------

TEST(BlockTimesteps, SubStepsRefreshTreesWithinBuildCeiling) {
  const auto ic = blastwaveIc(1200, 41);
  SimulationConfig cfg = quietConfig();
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 8;
  cfg.feedback_radius = 1.0;
  Simulation sim(ic, cfg);

  sim.step();  // SN injected at the boundary; rungs deepen next step
  for (int s = 0; s < 3; ++s) {
    const auto st = sim.step();
    EXPECT_LE(st.tree_builds, 3)
        << "sub-steps must reuse cached trees (PR 1 ceiling), step " << s
        << " rebuilt " << st.tree_builds << " across " << st.substeps
        << " sub-steps";
    if (st.substeps > 1) {
      EXPECT_GE(st.tree_refreshes, st.substeps - 1)
          << "drifted sub-steps must position-refresh the cached trees";
    }
    std::uint64_t hist_total = 0;
    for (int k = 0; k < asura::core::kMaxRungs; ++k) {
      hist_total += static_cast<std::uint64_t>(
          st.rung_histogram[static_cast<std::size_t>(k)]);
    }
    EXPECT_EQ(hist_total, sim.particles().size());
  }
}

}  // namespace
