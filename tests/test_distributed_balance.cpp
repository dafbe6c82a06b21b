// Tests for the work-weighted multisection domain decomposition: the pinned
// equal-count cut rule, weighted cuts that balance the sampled work,
// cross-rank identity of the weighted cuts, ownerOf/domainOf consistency,
// maintain()'s measure-then-recut on skewed work, 1-vs-P conformance with
// balancing enabled, exchange-cache survival across quiet maintain steps,
// and checkpoint round-trip of the cuts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/distributed.hpp"
#include "core/simulation.hpp"
#include "fdps/domain.hpp"
#include "ic_fixtures.hpp"
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
using asura::fdps::DomainDecomposer;
using asura::fdps::Particle;
using asura::testing::gasBall;
using asura::testing::snStormIc;

SimulationConfig quietConfig() {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 24;
  cfg.dt_global = 0.005;
  return cfg;
}

SimulationConfig exactConfig() {
  SimulationConfig cfg = quietConfig();
  cfg.gravity.theta = 0.0;
  cfg.gravity.kernel = asura::gravity::GravityParams::Kernel::ScalarF64;
  return cfg;
}

/// Engine configuration for the weighted mode as documented: cut on the
/// first step (interval 0), then re-cut only past the imbalance threshold.
DistributedConfig balancedConfig() {
  DistributedConfig dcfg;
  dcfg.skin = 1.0;
  dcfg.weighted_decomposition = true;
  dcfg.decompose_interval = 0;
  return dcfg;
}

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
                                SimulationConfig cfg, int steps) {
  Simulation sim(ic, cfg);
  for (int s = 0; s < steps; ++s) sim.step();
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

/// CRC-32 of the encoded cut vectors.
std::uint32_t cutsCrc(const DomainDecomposer::Cuts& cuts) {
  asura::io::ByteWriter w;
  w(cuts.x, cuts.y, cuts.z);
  return asura::io::crc32(w.bytes().data(), w.bytes().size());
}

// ---------------------------------------------------------------------------
// The cut rule
// ---------------------------------------------------------------------------

TEST(DomainBalance, EqualCountCutsPinned) {
  // Unweighted cuts must stay today's integer-division cuts, bit for bit:
  // every unweighted trajectory depends on them. A literal input with
  // repeated coordinates and a count the 3x2x2 grid does not divide...
  std::vector<Particle> literal(1001);
  for (std::size_t i = 0; i < literal.size(); ++i) {
    literal[i].pos = {static_cast<double>((i * 7) % 13), 0.5 * static_cast<double>((i * 5) % 11),
                      0.25 * static_cast<double>(i % 17) - 2.0};
  }
  DomainDecomposer serial(3, 2, 2);
  serial.decomposeSerial(literal);
  EXPECT_EQ(cutsCrc(serial.saveCuts()), 0x56f069f2u);

  // ...and an 8-rank collective decomposition whose ranks hold more than
  // kSampleCap locals, so the rng draw pattern is pinned too.
  constexpr int P = 8;
  const auto ic = gasBall(40000, 10.0, 1.0, 17, 3000.0);
  Cluster cluster(P);
  std::vector<std::uint32_t> crcs(P);
  cluster.run([&](Comm& comm) {
    const auto local = blockPartition(ic, comm.rank(), P);
    ASSERT_GT(local.size(), static_cast<std::size_t>(DomainDecomposer::kSampleCap));
    DomainDecomposer dd(2, 2, 2);
    asura::util::Pcg32 rng(100 + static_cast<std::uint64_t>(comm.rank()));
    dd.decompose(comm, local, rng, false);
    crcs[static_cast<std::size_t>(comm.rank())] = cutsCrc(dd.saveCuts());
  });
  for (const auto crc : crcs) EXPECT_EQ(crc, 0xad780bf3u);
}

TEST(DomainBalance, WeightedCutsBalanceSampledWork) {
  // Every local is sampled, so after the exchange each rank holds exactly
  // the samples of its cell. Each of the three splits misses its fair
  // share by at most one sample's weight, so every rank's load lies within
  // W/P +- 3 w_max. Unit weights on the same input must break that bound.
  constexpr int P = 8;
  auto ic = gasBall(4000, 10.0, 1.0, 5, 3000.0);
  constexpr double kHeavy = 50.0;
  double total = 0.0;
  for (auto& p : ic) {
    if (p.pos.x > 0.0 && p.pos.y > 0.0 && p.pos.z > 0.0) p.work = kHeavy;
    total += 1.0 + p.work;
  }
  const double fair = total / P;
  const double w_max = 1.0 + kHeavy;

  for (const bool weighted : {true, false}) {
    Cluster cluster(P);
    std::vector<double> loads(P);
    cluster.run([&](Comm& comm) {
      auto local = blockPartition(ic, comm.rank(), P);
      ASSERT_LE(local.size(), static_cast<std::size_t>(DomainDecomposer::kSampleCap));
      DomainDecomposer dd(2, 2, 2);
      asura::util::Pcg32 rng(3);
      dd.decompose(comm, local, rng, weighted);
      local = dd.exchange(comm, std::move(local));
      double load = 0.0;
      for (const auto& p : local) load += 1.0 + p.work;
      loads[static_cast<std::size_t>(comm.rank())] = load;
    });
    double worst = 0.0;
    for (const double load : loads) worst = std::max(worst, std::abs(load - fair));
    if (weighted) {
      EXPECT_LE(worst, 3.0 * w_max) << "weighted cuts must balance the sampled work";
    } else {
      EXPECT_GT(worst, 3.0 * w_max) << "unit weights must not pass the weighted bound";
    }
  }
}

TEST(DomainBalance, NonFiniteWorkKeepsCutsInsideSamples) {
  // Work arrives from checkpoints unvalidated. A NaN, infinite or negative
  // weight may skew a cut, but every cut must still sit on a sample and
  // every particle must still land in its owner's box.
  constexpr int P = 4;
  auto ic = gasBall(200, 8.0, 1.0, 13, 3000.0);
  ic[3].work = std::numeric_limits<double>::quiet_NaN();
  ic[60].work = std::numeric_limits<double>::infinity();
  ic[120].work = -5.0;
  Cluster cluster(P);
  cluster.run([&](Comm& comm) {
    DomainDecomposer dd(2, 2, 1);
    const auto local = blockPartition(ic, comm.rank(), P);
    asura::util::Pcg32 rng(1);
    dd.decompose(comm, local, rng, true);
    const auto cuts = dd.saveCuts();
    EXPECT_TRUE(std::is_sorted(cuts.x.begin(), cuts.x.end()));
    for (const auto& p : ic) {
      const int o = dd.ownerOf(p.pos);
      ASSERT_GE(o, 0);
      ASSERT_LT(o, P);
      EXPECT_EQ(dd.domainOf(o).distance(p.pos), 0.0);
    }
  });
}

TEST(DomainBalance, WeightedDecomposeIdenticalOnEveryRankAndConsistent) {
  constexpr int P = 4;
  auto ic = gasBall(400, 8.0, 1.0, 11, 3000.0);
  for (auto& p : ic) p.work = static_cast<double>(p.id % 7);
  Cluster cluster(P);
  std::vector<DomainDecomposer::Cuts> cuts(P);
  std::mutex mtx;
  cluster.run([&](Comm& comm) {
    DomainDecomposer dd(2, 2, 1);
    auto local = blockPartition(ic, comm.rank(), P);
    asura::util::Pcg32 rng(77 + static_cast<std::uint64_t>(comm.rank()));
    dd.decompose(comm, local, rng, true);

    // Every particle lies inside its owner's domain box.
    for (const auto& p : local) {
      const int o = dd.ownerOf(p.pos);
      ASSERT_GE(o, 0);
      ASSERT_LT(o, P);
      EXPECT_EQ(dd.domainOf(o).distance(p.pos), 0.0)
          << "owner box must contain the particle";
    }

    // The cuts round-trip through Cuts into a fresh decomposer and
    // reproduce ownership bitwise (the checkpoint path relies on this).
    DomainDecomposer dd2(2, 2, 1);
    dd2.restoreCuts(dd.saveCuts());
    for (const auto& p : local) {
      EXPECT_EQ(dd2.ownerOf(p.pos), dd.ownerOf(p.pos));
    }

    std::lock_guard<std::mutex> lk(mtx);
    cuts[static_cast<std::size_t>(comm.rank())] = dd.saveCuts();
  });
  // Rank 0 computes, every rank receives the broadcast: identical cuts.
  for (int r = 1; r < P; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    EXPECT_EQ(cuts[idx].x, cuts[0].x);
    EXPECT_EQ(cuts[idx].y, cuts[0].y);
    EXPECT_EQ(cuts[idx].z, cuts[0].z);
  }
}

TEST(DomainBalance, MaintainRecutsOverloadedRank) {
  constexpr int P = 4;
  const auto ic = gasBall(480, 8.0, 1.0, 23, 3000.0);
  Cluster cluster(P);
  cluster.run([&](Comm& comm) {
    DomainDecomposer dd(P, 1, 1);
    auto local = blockPartition(ic, comm.rank(), P);
    asura::util::Pcg32 rng(5);
    dd.decompose(comm, local, rng, true);
    local = dd.exchange(comm, std::move(local));

    // Skew: rank 0's particles suddenly report heavy work (an SN storm in
    // its corner of the volume).
    if (comm.rank() == 0) {
      for (auto& p : local) p.work = 100.0;
    }
    double imb1 = 0.0;
    EXPECT_TRUE(dd.maintain(comm, local, rng, true, 1.1, &imb1))
        << "skewed work past threshold must re-cut";
    EXPECT_GT(imb1, 1.1);

    // After the migration the re-cut grid is balanced: no second re-cut,
    // and the measured imbalance dropped.
    local = dd.exchange(comm, std::move(local));
    double imb2 = 0.0;
    EXPECT_FALSE(dd.maintain(comm, local, rng, true, 1.1, &imb2));
    EXPECT_LT(imb2, imb1);
  });
}

// ---------------------------------------------------------------------------
// Conformance with balancing enabled
// ---------------------------------------------------------------------------

TEST(DomainBalance, OneRankWeightedMatchesSerialBitwise) {
  // P = 1 with balancing on: the single rank owns everything, maintain()
  // measures a perfectly balanced rank, and the work counters are never
  // read by physics — the trajectory must be bitwise the serial one.
  auto ic = asura::testing::multiphaseBall(500, 7);
  SimulationConfig cfg = quietConfig();
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 6;
  const auto serial = runSerial(ic, cfg, 3);
  const auto dist = runDistributed(ic, 1, cfg, balancedConfig(), 3);
  const auto m = compare(serial, dist);
  EXPECT_EQ(m.pos, 0.0);
  EXPECT_EQ(m.vel, 0.0);
  EXPECT_EQ(m.u, 0.0);
}

TEST(DomainBalance, EightRanksWeightedMatchSerialWithExactGravity) {
  const auto ic = gasBall(800, 10.0, 1.0, 31, 3000.0);
  SimulationConfig cfg = exactConfig();
  const auto serial = runSerial(ic, cfg, 3);
  const auto dist = runDistributed(ic, 8, cfg, balancedConfig(), 3);
  const auto m = compare(serial, dist);
  // theta = 0: identical physics, FP summation order only.
  EXPECT_LT(m.pos, 1e-7);
  EXPECT_LT(m.vel, 1e-5);
  EXPECT_LT(m.u, 1e-7);
  EXPECT_LT(m.rho, 1e-7);
}

// ---------------------------------------------------------------------------
// Exchange-cache survival across maintain() steps
// ---------------------------------------------------------------------------

TEST(DomainBalance, QuietMaintainStepsKeepExchangeCache) {
  const auto ic = gasBall(600, 10.0, 1.0, 42, 3000.0);
  SimulationConfig cfg = quietConfig();
  DistributedConfig dcfg = balancedConfig();
  dcfg.skin = 5.0;  // quiet ball: drift stays far inside the skin
  std::vector<StepStats> stats;
  runDistributed(ic, 8, cfg, dcfg, 4, &stats);
  ASSERT_EQ(stats.size(), 4u);
  // Step 0 pays the one full exchange of the run.
  EXPECT_EQ(stats[0].let_exchanges, 1);
  int quiet_steps = 0;
  for (std::size_t s = 1; s < stats.size(); ++s) {
    // maintain() measured a balanced grid and did not re-cut.
    EXPECT_EQ(stats[s].rebalances, 0) << "quiet ball must stay balanced, step " << s;
    EXPECT_GT(stats[s].balance_max_over_mean, 0.0) << "step " << s;
    EXPECT_LE(stats[s].balance_max_over_mean, dcfg.imbalance_threshold) << "step " << s;
    // A cut sits on a sample's coordinate, so quiet drift may still carry
    // that sample across it. A step without migration keeps the ghost
    // layout; its first pass walks the drifted LET again and the second
    // pass reuses that walk.
    if (stats[s].migrated != 0) continue;
    ++quiet_steps;
    EXPECT_EQ(stats[s].ghost_exchanges, 0) << "step " << s;
    EXPECT_EQ(stats[s].let_exchanges, 1) << "step " << s;
    EXPECT_EQ(stats[s].let_export_walks, 7) << "step " << s;
    EXPECT_GT(stats[s].let_reuses, 0) << "step " << s;
  }
  EXPECT_GE(quiet_steps, 1);
}

TEST(DomainBalance, DriftedLetImportsMatchAFreshWalk) {
  // The fixture above. On a step without migration the cache survives, and
  // the first pass finds the LET drifted. The imports it leaves must be
  // what exchangeGravityLet returns over the rank's current locals, bitwise
  // in position, mass and softening: no import is derived along an older
  // walk. Positions, masses and softenings do not change after the first
  // pass of a quiet global step.
  constexpr int P = 8;
  const auto ic = gasBall(600, 10.0, 1.0, 42, 3000.0);
  SimulationConfig cfg = quietConfig();
  // Leaves of 4 deepen the ~75-particle rank trees, so remote domains
  // accept internal-node monopoles. At the default 16 every accepted
  // monopole is a leaf, whose moments a direct re-summation in entry order
  // reproduces bitwise; an internal node's bottom-up moments it does not.
  cfg.gravity.leaf_size = 4;
  DistributedConfig dcfg = balancedConfig();
  dcfg.skin = 5.0;
  std::vector<int> checked(P, 0), mismatched(P, 0);
  Cluster cluster(P);
  cluster.run([&](Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    sim.attachDistributed(std::make_unique<DistributedEngine>(comm, dcfg));
    for (int s = 0; s < 4; ++s) {
      const StepStats st = sim.step();
      // Both counts are collective decisions, so every rank takes the same
      // branch into the exchange below.
      if (s == 0 || st.migrated != 0 || st.ghost_exchanges != 0) continue;
      asura::fdps::SourceTree tree;
      tree.build(asura::fdps::makeSourceEntries({sim.particles().data(), sim.nLocal()}),
                 cfg.gravity.leaf_size);
      const auto fresh = asura::fdps::exchangeGravityLet(comm, sim.distributed()->domains(),
                                                         tree, cfg.gravity.theta);
      const auto& live = sim.distributed()->letImports();
      ++checked[r];
      if (live.size() != fresh.size()) {
        ++mismatched[r];
        continue;
      }
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].pos.x != fresh[i].pos.x || live[i].pos.y != fresh[i].pos.y ||
            live[i].pos.z != fresh[i].pos.z || live[i].mass != fresh[i].mass ||
            live[i].eps != fresh[i].eps) {
          ++mismatched[r];
          break;
        }
      }
    }
  });
  for (int r = 0; r < P; ++r) {
    EXPECT_GE(checked[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(mismatched[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// SN storm: the imbalance signal fires and maintain() responds
// ---------------------------------------------------------------------------

TEST(DomainBalance, SnStormTriggersRebalance) {
  const auto ic = snStormIc(1200, 3, /*n_sn=*/3);
  SimulationConfig cfg = quietConfig();
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 6;
  DistributedConfig dcfg = balancedConfig();
  dcfg.imbalance_threshold = 1.1;
  std::vector<StepStats> stats;
  runDistributed(ic, 4, cfg, dcfg, 5, &stats);
  int rebalances = 0;
  double peak = 0.0;
  for (const auto& s : stats) {
    rebalances += s.rebalances;
    peak = std::max(peak, s.balance_max_over_mean);
  }
  // The staggered SNe drive the clump's work counters far past the ambient
  // medium's; maintain() must measure the skew and re-cut.
  EXPECT_GE(rebalances, 1);
  EXPECT_GT(peak, dcfg.imbalance_threshold);
}

// ---------------------------------------------------------------------------
// Checkpoint round-trip of the cuts (engine-level, mid-run)
// ---------------------------------------------------------------------------

TEST(DomainBalance, RestoreCutsRejectsMapsOwnerOfCannotIndex) {
  // Rectilinear cuts of a 2x1x1 grid are 3, 2*2 and 2*1*2 long.
  DomainDecomposer dd(2, 1, 1);
  DomainDecomposer::Cuts cuts;
  cuts.x = {-1.0, 0.0, 1.0};
  cuts.y = {-1.0, 1.0, -1.0, 1.0};
  cuts.z = {-1.0, 1.0, -1.0};
  try {
    dd.restoreCuts(cuts);
    ADD_FAILURE() << "restoreCuts accepted a short z cut vector";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cut"), std::string::npos) << e.what();
  }
  cuts.z.push_back(1.0);
  dd.restoreCuts(cuts);
  EXPECT_EQ(dd.ownerOf({-0.5, 0.0, 0.0}), 0);
  EXPECT_EQ(dd.ownerOf({0.5, 0.0, 0.0}), 1);

  // A one-cell grid holds its only cuts from construction: empty cuts mean
  // "not yet decomposed" only on a multi-cell grid.
  DomainDecomposer one(1, 1, 1);
  EXPECT_THROW(one.restoreCuts({}), std::runtime_error);
  one.restoreCuts(one.saveCuts());
  EXPECT_EQ(one.ownerOf({-1.0e20, 0.0, 1.0e20}), 0);
}

TEST(DomainBalance, WeightedRestartMatchesContinuousBitwise) {
  constexpr int P = 4;
  constexpr int kSplit = 2, kTail = 2;
  const auto ic = snStormIc(800, 9, /*n_sn=*/2);
  SimulationConfig cfg = quietConfig();
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 5;
  DistributedConfig dcfg = balancedConfig();
  dcfg.imbalance_threshold = 1.1;

  const auto continuous = runDistributed(ic, P, cfg, dcfg, kSplit + kTail);

  Cluster cluster(P);
  std::vector<Particle> merged;
  std::mutex merge_mutex;
  // LET walks of the resumed steps that were not part of a full exchange
  // (every full exchange, and every reach retry, counts a ghost exchange).
  int rewalks = 0;
  cluster.run([&](Comm& comm) {
    Simulation a(blockPartition(ic, comm.rank(), P), cfg);
    a.attachDistributed(std::make_unique<DistributedEngine>(comm, dcfg));
    for (int s = 0; s < kSplit; ++s) a.step();
    asura::io::ByteWriter w;
    a.serializeState(w);
    const auto bytes = w.take();

    // Fresh instance restores mid-run: the engine block carries the domain
    // cuts and both drift accumulators, so b's migration / rebalance /
    // re-walk decisions replay a's exactly. Both re-serialize to the same
    // bytes, engine blocks included.
    Simulation b(blockPartition(ic, comm.rank(), P), cfg);
    b.attachDistributed(std::make_unique<DistributedEngine>(comm, dcfg));
    asura::io::ByteReader r(bytes.data(), bytes.size());
    b.restoreState(r);
    asura::io::ByteWriter wa, wb;
    a.serializeState(wa);
    b.serializeState(wb);
    EXPECT_EQ(wa.bytes(), bytes);
    EXPECT_EQ(wb.bytes(), bytes);

    // Interleave the two instances' steps: both share the comm, and every
    // rank issues the same collective order (all of a's, then all of b's).
    for (int s = 0; s < kTail; ++s) {
      a.step();
      const StepStats st = b.step();
      if (comm.rank() == 0) {
        rewalks += st.let_exchanges - (st.ghost_exchanges - st.reach_retries);
      }
    }
    std::lock_guard<std::mutex> lk(merge_mutex);
    const auto& parts = b.particles();
    merged.insert(merged.end(), parts.begin(),
                  parts.begin() + static_cast<std::ptrdiff_t>(b.nLocal()));
  });
  std::sort(merged.begin(), merged.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });

  const auto m = compare(continuous, merged);
  EXPECT_EQ(m.pos, 0.0) << "restored run must be bitwise the continuous one";
  EXPECT_EQ(m.vel, 0.0);
  EXPECT_EQ(m.u, 0.0);
  EXPECT_GT(rewalks, 0) << "the resumed window never walked a drifted LET again";
}

}  // namespace
