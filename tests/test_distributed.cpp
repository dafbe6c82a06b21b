// Tests for the distributed step driver: 1-vs-P rank invariance (global and
// hierarchical modes; at one rank also overlapping SNe, and star formation
// above the decomposition sample cap), exact conservation across exchanges,
// the LET/ghost exchange-cache counters (one exchange per step, zero
// exportLet walks on the second pass), the exchange timer categories, the
// stale-reach regression, and cross-rank SN capture.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/distributed.hpp"
#include "core/simulation.hpp"
#include "ic_fixtures.hpp"
#include "io/particle_codec.hpp"
#include "io/serialize.hpp"
#include "util/units.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::core::blockPartition;
using asura::core::DistributedConfig;
using asura::core::DistributedEngine;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::core::StepStats;
using asura::fdps::Particle;
using asura::fdps::Species;
using asura::testing::gasBall;

SimulationConfig quietConfig() {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 24;
  cfg.dt_global = 0.005;
  return cfg;
}

/// Exact-gravity parity configuration: theta = 0 opens every node, so both
/// the serial walk and the LET export degenerate to the full direct sum and
/// the only serial-vs-distributed differences are FP summation order.
SimulationConfig exactConfig() {
  SimulationConfig cfg = quietConfig();
  cfg.gravity.theta = 0.0;
  cfg.gravity.kernel = asura::gravity::GravityParams::Kernel::ScalarF64;
  return cfg;
}

DistributedConfig engineConfig() {
  DistributedConfig dcfg;
  dcfg.skin = 1.0;
  return dcfg;
}

/// Run `steps` distributed steps on P ranks and return every rank's locals
/// merged and sorted by id, plus (via out-params) the per-step stats of
/// rank 0.
std::vector<Particle> runDistributed(const std::vector<Particle>& ic, int P,
                                     SimulationConfig cfg, DistributedConfig dcfg,
                                     int steps,
                                     std::vector<StepStats>* rank0_stats = nullptr) {
  Cluster cluster(P);
  std::vector<Particle> merged;
  std::mutex merge_mutex;
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    sim.attachDistributed(std::make_unique<DistributedEngine>(comm, dcfg));
    std::vector<StepStats> stats;
    for (int s = 0; s < steps; ++s) stats.push_back(sim.step());
    if (comm.rank() == 0 && rank0_stats != nullptr) *rank0_stats = stats;
    std::lock_guard<std::mutex> lk(merge_mutex);
    const auto& parts = sim.particles();
    merged.insert(merged.end(), parts.begin(),
                  parts.begin() + static_cast<std::ptrdiff_t>(sim.nLocal()));
  });
  std::sort(merged.begin(), merged.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  return merged;
}

std::vector<Particle> runSerial(const std::vector<Particle>& ic,
                                SimulationConfig cfg, int steps,
                                std::vector<StepStats>* stats = nullptr) {
  Simulation sim(ic, cfg);
  for (int s = 0; s < steps; ++s) {
    const StepStats st = sim.step();
    if (stats != nullptr) stats->push_back(st);
  }
  auto parts = sim.particles();
  std::sort(parts.begin(), parts.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  return parts;
}

struct Mismatch {
  double pos = 0.0, vel = 0.0, u = 0.0, rho = 0.0;
};

Mismatch compare(const std::vector<Particle>& a, const std::vector<Particle>& b) {
  EXPECT_EQ(a.size(), b.size());
  Mismatch m;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "id order diverged at " << i;
    m.pos = std::max(m.pos, (a[i].pos - b[i].pos).norm());
    m.vel = std::max(m.vel, (a[i].vel - b[i].vel).norm());
    m.u = std::max(m.u, std::abs(a[i].u - b[i].u) / std::max(a[i].u, 1e-30));
    m.rho = std::max(m.rho, std::abs(a[i].rho - b[i].rho) /
                                std::max(std::abs(a[i].rho), 1e-30));
  }
  return m;
}

/// Particles of two id-sorted lists whose records, as the checkpoint codec
/// encodes every field, differ.
std::size_t bitwiseDifferences(const std::vector<Particle>& a, const std::vector<Particle>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    asura::io::ByteWriter wa, wb;
    wa(a[i]);
    wb(b[i]);
    if (wa.bytes() != wb.bytes()) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Rank invariance
// ---------------------------------------------------------------------------

TEST(Distributed, OneRankMatchesSerialBitwise) {
  // A 1-rank distributed run is the serial step: empty LET, empty ghost
  // suffix, identity reductions. Any state difference means an engine
  // rule leaked into the one-rank path.
  const auto ic = gasBall(600, 10.0, 1.0, 42, 3000.0);
  SimulationConfig cfg = quietConfig();
  const auto serial = runSerial(ic, cfg, 4);
  const auto dist = runDistributed(ic, 1, cfg, engineConfig(), 4);
  const auto m = compare(serial, dist);
  EXPECT_EQ(m.pos, 0.0);
  EXPECT_EQ(m.vel, 0.0);
  EXPECT_EQ(m.u, 0.0);

  // Above DomainDecomposer::kSampleCap a decomposition samples from the
  // step rng, which star formation draws from too: on a cold dense ball any
  // one-rank sampling shows as different stars.
  const auto cold = gasBall(6000, 6.0, 50.0, 7, 30.0);
  SimulationConfig sf;
  sf.use_surrogate = false;
  sf.sph.n_ngb = 32;
  std::vector<StepStats> serial_stats, dist_stats;
  const auto serial_sf = runSerial(cold, sf, 4, &serial_stats);
  const auto dist_sf = runDistributed(cold, 1, sf, engineConfig(), 4, &dist_stats);
  const auto formed = [](const std::vector<StepStats>& stats) {
    int n = 0;
    for (const auto& s : stats) n += s.stars_formed;
    return n;
  };
  EXPECT_GT(formed(serial_stats), 0);
  EXPECT_EQ(formed(dist_stats), formed(serial_stats));
  EXPECT_EQ(bitwiseDifferences(serial_sf, dist_sf), 0u);
}

TEST(Distributed, OneRankMatchesSerialWithOverlappingSupernovae) {
  // Two SNe fire in step 1 with overlapping capture boxes, and their ids run
  // against their explosion times. A serial step handles them in
  // (t_explode, star_id) order and submits id-sorted regions, exactly like
  // a 1-rank distributed step: both run the same SN code.
  auto ic = gasBall(600, 10.0, 1.0, 42, 3000.0);
  const auto progenitor = [](std::uint64_t id, asura::util::Vec3d pos, double t_sn) {
    Particle star;
    star.id = id;
    star.type = Species::Star;
    star.mass = 20.0;
    star.star_mass = 20.0;
    star.pos = pos;
    star.t_sn = t_sn;
    star.eps = 0.5;
    return star;
  };
  ic.push_back(progenitor(900000, {0.0, 0.0, 0.0}, 0.004));
  ic.push_back(progenitor(900001, {0.3, 0.0, 0.0}, 0.002));

  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;  // default backend: the Sedov oracle
  cfg.sn_box_size = 8.0;
  cfg.return_interval = 1;
  const auto serial = runSerial(ic, cfg, 3);
  const auto dist = runDistributed(ic, 1, cfg, engineConfig(), 3);
  const auto m = compare(serial, dist);
  EXPECT_EQ(m.pos, 0.0);
  EXPECT_EQ(m.vel, 0.0);
  EXPECT_EQ(m.u, 0.0);
}

TEST(Distributed, OneRankMatchesSerialBitwiseHierarchical) {
  auto ic = asura::testing::multiphaseBall(500, 7);
  SimulationConfig cfg = quietConfig();
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 6;
  const auto serial = runSerial(ic, cfg, 3);
  const auto dist = runDistributed(ic, 1, cfg, engineConfig(), 3);
  const auto m = compare(serial, dist);
  EXPECT_EQ(m.pos, 0.0);
  EXPECT_EQ(m.vel, 0.0);
  EXPECT_EQ(m.u, 0.0);
}

TEST(Distributed, EightRanksMatchSerialWithExactGravity) {
  const auto ic = gasBall(800, 10.0, 1.0, 31, 3000.0);
  SimulationConfig cfg = exactConfig();
  const auto serial = runSerial(ic, cfg, 3);
  const auto dist = runDistributed(ic, 8, cfg, engineConfig(), 3);
  const auto m = compare(serial, dist);
  // theta = 0: identical physics, FP summation order only.
  EXPECT_LT(m.pos, 1e-7);
  EXPECT_LT(m.vel, 1e-5);
  EXPECT_LT(m.u, 1e-7);
  EXPECT_LT(m.rho, 1e-7);
}

TEST(Distributed, EightRanksMatchSerialHierarchical) {
  const auto ic = gasBall(800, 10.0, 1.0, 57, 3000.0);
  SimulationConfig cfg = exactConfig();
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 6;
  std::vector<StepStats> stats;
  const auto serial = runSerial(ic, cfg, 3);
  const auto dist = runDistributed(ic, 8, cfg, engineConfig(), 3, &stats);
  const auto m = compare(serial, dist);
  // Rung choices near criterion boundaries may flip on FP-order noise, so
  // the hierarchical envelope is looser than the global-step one — but the
  // trajectories must still agree to a tiny fraction of the ball radius.
  EXPECT_LT(m.pos, 1e-4);
  EXPECT_LT(m.vel, 1e-2);
  EXPECT_LT(m.u, 1e-4);
}

TEST(Distributed, MassAndMomentumExactAcrossExchanges) {
  const auto ic = gasBall(700, 10.0, 1.0, 99, 3000.0);
  SimulationConfig cfg = quietConfig();
  const auto serial = runSerial(ic, cfg, 3);
  const auto dist = runDistributed(ic, 8, cfg, engineConfig(), 3);

  // The id multiset and every particle's mass survive the exchanges
  // bitwise: routing ships trivially-copyable records, never arithmetic.
  ASSERT_EQ(dist.size(), ic.size());
  double mass_ic = 0.0, mass_dist = 0.0;
  for (std::size_t i = 0; i < ic.size(); ++i) {
    EXPECT_EQ(dist[i].id, ic[i].id);
    EXPECT_EQ(dist[i].mass, ic[i].mass);  // bitwise
    mass_ic += ic[i].mass;
    mass_dist += dist[i].mass;
  }
  EXPECT_EQ(mass_ic, mass_dist);  // bitwise: same addends in the same order

  // Momentum agrees with the serial run to summation-noise levels (forces
  // differ only in FP order at the default theta for this quiet ball).
  asura::util::Vec3d p_serial{}, p_dist{};
  double vmax = 0.0;
  for (std::size_t i = 0; i < ic.size(); ++i) {
    p_serial += serial[i].mass * serial[i].vel;
    p_dist += dist[i].mass * dist[i].vel;
    vmax = std::max(vmax, serial[i].vel.norm());
  }
  EXPECT_LT((p_serial - p_dist).norm() / std::max(mass_ic * vmax, 1e-30), 1e-3);
}

// ---------------------------------------------------------------------------
// Distributed energy/momentum reduction helpers
// ---------------------------------------------------------------------------

TEST(Distributed, GlobalReductionHelpersMatchSerialWithoutGathering) {
  // The global* accessors reduce in-band (Simulation::allreduceSum on
  // Simulation::comm(), rank-ordered summation) instead of the old pattern
  // of gathering every rank's particles host-side and totalling them
  // there. Every rank must see the same bits; the totals must match a
  // serial run of the same IC to FP-summation noise (exactConfig: theta = 0,
  // ScalarF64 — the only serial-vs-distributed difference is summation
  // order).
  const auto ic = gasBall(600, 10.0, 1.0, 77, 3000.0);
  SimulationConfig cfg = exactConfig();

  Simulation serial(ic, cfg);
  for (int s = 0; s < 2; ++s) serial.step();
  const auto e_serial = serial.energyReport();
  const auto p_serial = serial.totalMomentum();
  const auto l_serial = serial.totalAngularMomentum();
  // Serial: global == local by definition.
  EXPECT_EQ(serial.globalEnergyReport().total(), e_serial.total());
  EXPECT_EQ((serial.globalMomentum() - p_serial).norm(), 0.0);

  constexpr int P = 8;
  Cluster cluster(P);
  std::mutex mu;
  std::vector<asura::core::EnergyReport> energies;
  std::vector<asura::util::Vec3d> momenta, ang_momenta;
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    sim.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
    for (int s = 0; s < 2; ++s) sim.step();
    const auto e = sim.globalEnergyReport();
    const auto p = sim.globalMomentum();
    const auto l = sim.globalAngularMomentum();
    std::lock_guard<std::mutex> lk(mu);
    energies.push_back(e);
    momenta.push_back(p);
    ang_momenta.push_back(l);
  });

  ASSERT_EQ(energies.size(), static_cast<std::size_t>(P));
  // Rank-ordered summation: every rank computes bitwise the same totals.
  for (int r = 1; r < P; ++r) {
    EXPECT_EQ(energies[static_cast<std::size_t>(r)].kinetic, energies[0].kinetic);
    EXPECT_EQ(energies[static_cast<std::size_t>(r)].thermal, energies[0].thermal);
    EXPECT_EQ(energies[static_cast<std::size_t>(r)].potential, energies[0].potential);
    EXPECT_EQ((momenta[static_cast<std::size_t>(r)] - momenta[0]).norm(), 0.0);
    EXPECT_EQ((ang_momenta[static_cast<std::size_t>(r)] - ang_momenta[0]).norm(), 0.0);
  }
  // And the totals agree with the serial run to summation-noise levels.
  const double e_scale = std::abs(e_serial.kinetic) + std::abs(e_serial.thermal) +
                         std::abs(e_serial.potential);
  EXPECT_LT(std::abs(energies[0].total() - e_serial.total()) / e_scale, 1e-9);
  EXPECT_LT(std::abs(energies[0].kinetic - e_serial.kinetic) / e_scale, 1e-9);
  EXPECT_LT(std::abs(energies[0].potential - e_serial.potential) / e_scale, 1e-9);
  const double p_scale = std::max(p_serial.norm(), 1.0);
  EXPECT_LT((momenta[0] - p_serial).norm() / p_scale, 1e-6);
  EXPECT_LT((ang_momenta[0] - l_serial).norm() / std::max(l_serial.norm(), 1.0), 1e-6);
}

// ---------------------------------------------------------------------------
// Exchange-cache counters
// ---------------------------------------------------------------------------

TEST(Distributed, LetBuiltOncePerStepAndReusedBySecondPass) {
  const auto ic = gasBall(800, 10.0, 1.0, 11, 3000.0);
  SimulationConfig cfg = quietConfig();
  std::vector<StepStats> stats;
  (void)runDistributed(ic, 8, cfg, engineConfig(), 3, &stats);
  ASSERT_EQ(stats.size(), 3u);
  for (std::size_t s = 0; s < stats.size(); ++s) {
    // Exactly one LET exchange (P-1 exportLet walks) per step; the second
    // force pass reuses the imported entry set with zero further walks.
    EXPECT_EQ(stats[s].let_exchanges, 1) << "step " << s;
    EXPECT_EQ(stats[s].let_export_walks, 7) << "step " << s;
    EXPECT_GE(stats[s].let_reuses, 1) << "step " << s;
    // The reusing pass refreshes ghost payloads instead of re-selecting.
    EXPECT_GE(stats[s].ghost_value_refreshes + stats[s].ghost_reuses, 1)
        << "step " << s;
  }
}

TEST(Distributed, QuietSubStepsDoNoExportWalks) {
  const auto ic = asura::testing::multiphaseBall(700, 13);
  SimulationConfig cfg = quietConfig();
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 6;
  std::vector<StepStats> stats;
  (void)runDistributed(ic, 8, cfg, engineConfig(), 3, &stats);
  bool saw_multi_substep = false;
  for (std::size_t s = 1; s < stats.size(); ++s) {  // step 0 warms the rungs
    saw_multi_substep |= stats[s].substeps > 1;
    // However many sub-steps ran, every sub-step force pass walked zero
    // exportLet trees: the LET is walked only at the step start and by the
    // sync pass, which walks a drifted LET again.
    EXPECT_LE(stats[s].let_exchanges, 2) << "step " << s;
    EXPECT_EQ(stats[s].let_export_walks, 7 * stats[s].let_exchanges) << "step " << s;
    EXPECT_GE(stats[s].let_reuses, stats[s].substeps) << "step " << s;
  }
  EXPECT_TRUE(saw_multi_substep);
}

TEST(Distributed, EveryRankTimesTheExchangeCategories) {
  // The twin of Simulation.TimersCoverTheEightStepScheme: perfbench folds
  // these names into its exchange layers, so every rank of a global step
  // must record them.
  const auto ic = gasBall(400, 10.0, 1.0, 17, 3000.0);
  Cluster cluster(2);
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), 2), quietConfig());
    sim.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
    sim.step();
    std::set<std::string> recorded;
    for (const auto& [name, seconds] : sim.timers().entries()) recorded.insert(name);
    for (const char* cat :
         {"Exchange_Particle", "1st Exchange_LET", "2nd Exchange_LET"}) {
      EXPECT_EQ(recorded.count(cat), 1u) << "rank " << comm.rank() << ": " << cat;
    }
  });
}

// ---------------------------------------------------------------------------
// Stale-reach regression
// ---------------------------------------------------------------------------

TEST(Distributed, GrowingSupportsTriggerReexchangeAndMatchSerial) {
  // Undersized initial h: the density solve must grow every support ~2x,
  // far past any reach collected before the solve. The pre-fix exchange
  // (radii gathered once, no margin, no re-exchange) silently under-imports
  // neighbours for boundary particles, skewing rho/nngb; the fix re-ships
  // ghosts with the grown radii and re-solves until the reach holds.
  auto ic = gasBall(800, 10.0, 1.0, 23, 3000.0);
  for (auto& p : ic) p.h *= 0.35;
  SimulationConfig cfg = exactConfig();
  DistributedConfig dcfg = engineConfig();
  // A thin margin guarantees the ~3x support growth escapes the exported
  // reach, exercising the re-exchange + restored-h re-solve loop. (The
  // pre-fix behaviour is dcfg.ghost_h_margin = 1.0 with no retry loop:
  // boundary particles then converge on truncated neighbourhoods and this
  // test's rho/nngb parity assertions fail.)
  dcfg.ghost_h_margin = 1.1;
  std::vector<StepStats> stats;
  const auto serial = runSerial(ic, cfg, 1);
  const auto dist = runDistributed(ic, 8, cfg, dcfg, 1, &stats);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GT(stats[0].reach_retries, 0) << "fixture failed to escape the reach";
  const auto m = compare(serial, dist);
  EXPECT_LT(m.rho, 1e-7);
  EXPECT_LT(m.u, 1e-7);
  int nngb_diff = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    nngb_diff = std::max(nngb_diff, std::abs(serial[i].nngb - dist[i].nngb));
  }
  EXPECT_EQ(nngb_diff, 0) << "boundary particles under-imported neighbours";
}

// ---------------------------------------------------------------------------
// Cross-rank SN capture and prediction return
// ---------------------------------------------------------------------------

TEST(Distributed, SnRegionCapturedAcrossRanksAndReplacedById) {
  // The progenitor sits at the origin — the multisection cut point of every
  // axis — so the (30 pc)^3 capture box straddles all 8 domains and the
  // region must be assembled from every rank.
  auto ic = gasBall(800, 10.0, 1.0, 77, 100.0);
  Particle star;
  star.id = 900001;
  star.type = Species::Star;
  star.mass = 20.0;
  star.star_mass = 20.0;
  star.pos = {0, 0, 0};
  star.t_sn = 1e-9;
  star.eps = 0.5;
  ic.push_back(star);

  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  cfg.return_interval = 2;
  cfg.n_pool_nodes = 1;
  cfg.sn_box_size = 30.0;

  // Serial reference: how many particles one capture freezes.
  Simulation ref(ic, cfg);
  ref.step();
  int frozen_serial = 0;
  for (const auto& p : ref.particles()) frozen_serial += p.frozen;
  ASSERT_GT(frozen_serial, 0);

  const int P = 8;
  Cluster cluster(P);
  std::atomic<int> frozen_after_capture{0};
  std::atomic<int> contributing_ranks{0};
  std::atomic<int> regions_sent{0};
  std::atomic<int> replaced{0};
  std::atomic<int> frozen_at_end{0};
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    sim.attachDistributed(
        std::make_unique<DistributedEngine>(comm, engineConfig()));
    auto st = sim.step();  // SN fires, region captured and sent
    regions_sent += st.regions_sent;
    int frozen = 0;
    for (std::size_t i = 0; i < sim.nLocal(); ++i) frozen += sim.particles()[i].frozen;
    frozen_after_capture += frozen;
    if (frozen > 0) ++contributing_ranks;
    for (int s = 0; s < 3; ++s) replaced += sim.step().particles_replaced;
    int frozen_end = 0;
    for (std::size_t i = 0; i < sim.nLocal(); ++i) {
      frozen_end += sim.particles()[i].frozen;
    }
    frozen_at_end += frozen_end;
  });

  EXPECT_EQ(regions_sent.load(), 1);                    // one region, one owner
  EXPECT_EQ(frozen_after_capture.load(), frozen_serial);  // same capture set
  EXPECT_GT(contributing_ranks.load(), 1);              // genuinely cross-rank
  EXPECT_EQ(replaced.load(), frozen_serial);            // all predictions landed
  EXPECT_EQ(frozen_at_end.load(), 0);                   // everyone unfroze
}

// ---------------------------------------------------------------------------
// Config validation at engine construction
// ---------------------------------------------------------------------------

/// Builds an engine from each config: the first `n_bad` must be rejected
/// with a std::invalid_argument naming `field`, the rest must construct.
void expectValidation(const std::string& field, const std::vector<DistributedConfig>& cfgs,
                      std::size_t n_bad) {
  Cluster cluster(1);
  cluster.run([&](Comm& comm) {
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      try {
        DistributedEngine engine(comm, cfgs[i]);
        EXPECT_GE(i, n_bad) << field << " case " << i << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_LT(i, n_bad) << field << " case " << i << " was rejected: " << e.what();
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
      }
    }
  });
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(DistributedConfigValidation, SkinMustBeFiniteAndNonNegative) {
  // A NaN skin would never expire the LET/ghost caches on drift.
  std::vector<DistributedConfig> cfgs(5, engineConfig());
  cfgs[0].skin = kNaN;
  cfgs[1].skin = kInf;
  cfgs[2].skin = -0.5;
  cfgs[3].skin = 0.0;
  cfgs[4].skin = 5.0;
  expectValidation("skin", cfgs, 3);
}

TEST(DistributedConfigValidation, GhostHMarginMustBeFiniteAndAtLeastOne) {
  // A NaN margin would export no gas particle at all.
  std::vector<DistributedConfig> cfgs(5, engineConfig());
  cfgs[0].ghost_h_margin = kNaN;
  cfgs[1].ghost_h_margin = kInf;
  cfgs[2].ghost_h_margin = 0.9;
  cfgs[3].ghost_h_margin = 1.0;
  cfgs[4].ghost_h_margin = 1.3;
  expectValidation("ghost_h_margin", cfgs, 3);
}

TEST(DistributedConfigValidation, ImbalanceThresholdMustBeFiniteAndAtLeastOne) {
  // A NaN threshold would re-cut the grid every step.
  std::vector<DistributedConfig> cfgs(5, engineConfig());
  cfgs[0].imbalance_threshold = kNaN;
  cfgs[1].imbalance_threshold = kInf;
  cfgs[2].imbalance_threshold = 0.99;
  cfgs[3].imbalance_threshold = 1.0;
  cfgs[4].imbalance_threshold = 1.15;
  expectValidation("imbalance_threshold", cfgs, 3);
}

TEST(DistributedConfigValidation, DecomposeIntervalMustBeZeroOrOne) {
  std::vector<DistributedConfig> cfgs(4, engineConfig());
  cfgs[0].decompose_interval = -1;
  cfgs[1].decompose_interval = 2;
  cfgs[2].decompose_interval = 0;
  cfgs[3].decompose_interval = 1;
  expectValidation("decompose_interval", cfgs, 2);
}

}  // namespace
