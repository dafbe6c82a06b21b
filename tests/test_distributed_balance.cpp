// Tests for the work-weighted Morton-segment domain decomposition: greedy
// assignment unit properties, cross-rank determinism of the weighted split,
// ownerOf/domainOf consistency, maintain() rebalancing on skewed work,
// 1-vs-P conformance with balancing enabled, exchange-cache survival across
// quiet maintain steps, and checkpoint round-trip of the segment map.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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
using asura::fdps::assignSegmentsGreedy;
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

/// Engine configuration for the weighted mode as documented: decompose once
/// on the first step (interval 0 never re-samples), maintain() thereafter.
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

// ---------------------------------------------------------------------------
// Greedy weighted assignment (pure unit)
// ---------------------------------------------------------------------------

TEST(DomainBalance, GreedyUniformWeightsSplitEvenly) {
  const std::vector<double> w(16, 1.0);
  const auto owner = assignSegmentsGreedy(w, 4);
  ASSERT_EQ(owner.size(), 16u);
  std::vector<int> counts(4, 0);
  for (std::size_t s = 0; s < owner.size(); ++s) {
    // Contiguity: owners are non-decreasing along the segment order.
    if (s > 0) EXPECT_GE(owner[s], owner[s - 1]);
    ASSERT_GE(owner[s], 0);
    ASSERT_LT(owner[s], 4);
    ++counts[static_cast<std::size_t>(owner[s])];
  }
  for (const int c : counts) EXPECT_EQ(c, 4);
}

TEST(DomainBalance, GreedyHeavySegmentGetsSmallRun) {
  const std::vector<double> w{10.0, 1.0, 1.0, 1.0};
  const auto owner = assignSegmentsGreedy(w, 2);
  ASSERT_EQ(owner.size(), 4u);
  // The heavy segment alone already exceeds rank 0's fair share, so rank 1
  // takes the three light segments.
  EXPECT_EQ(owner[0], 0);
  EXPECT_EQ(owner[1], 1);
  EXPECT_EQ(owner[2], 1);
  EXPECT_EQ(owner[3], 1);
}

TEST(DomainBalance, GreedyEveryRankNonEmptyAndDeterministic) {
  // Pathological weights: without the one-segment-per-rank guarantee the
  // heavy head would swallow every fair-share boundary.
  const std::vector<double> w{100.0, 0.1, 0.1};
  const auto owner = assignSegmentsGreedy(w, 3);
  ASSERT_EQ(owner.size(), 3u);
  EXPECT_EQ(owner[0], 0);
  EXPECT_EQ(owner[1], 1);
  EXPECT_EQ(owner[2], 2);
  EXPECT_EQ(assignSegmentsGreedy(w, 3), owner) << "same input, same cut";
}

// ---------------------------------------------------------------------------
// Weighted decomposition (collective)
// ---------------------------------------------------------------------------

TEST(DomainBalance, WeightedDecomposeIdenticalOnEveryRankAndConsistent) {
  constexpr int P = 4;
  const auto ic = gasBall(400, 8.0, 1.0, 11, 3000.0);
  Cluster cluster(P);
  std::vector<DomainDecomposer::Cuts> cuts(P);
  std::mutex mtx;
  cluster.run([&](Comm& comm) {
    DomainDecomposer dd(P, 1, 1);
    auto local = blockPartition(ic, comm.rank(), P);
    asura::util::Pcg32 rng(77 + static_cast<std::uint64_t>(comm.rank()));
    dd.decomposeWeighted(comm, local, rng);
    EXPECT_TRUE(dd.weighted());
    EXPECT_GE(dd.segmentCount(), static_cast<std::size_t>(P));

    // Every position is owned by exactly the rank whose domain box covers
    // it — domainOf must be a superset of the owned key region.
    for (const auto& p : local) {
      const int o = dd.ownerOf(p.pos);
      ASSERT_GE(o, 0);
      ASSERT_LT(o, P);
      EXPECT_EQ(dd.domainOf(o).distance(p.pos), 0.0)
          << "owner box must contain the particle";
    }

    // The segment map round-trips through Cuts into a fresh decomposer and
    // reproduces ownership bitwise (the checkpoint path relies on this).
    DomainDecomposer dd2(P, 1, 1);
    dd2.restoreCuts(dd.saveCuts());
    EXPECT_TRUE(dd2.weighted());
    for (const auto& p : local) {
      EXPECT_EQ(dd2.ownerOf(p.pos), dd.ownerOf(p.pos));
    }

    std::lock_guard<std::mutex> lk(mtx);
    cuts[static_cast<std::size_t>(comm.rank())] = dd.saveCuts();
  });
  // Redundant computation, not broadcast: every rank must have derived the
  // identical segment map from the rank-ordered allgathered samples.
  for (int r = 1; r < P; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    EXPECT_EQ(cuts[idx].seg_keys, cuts[0].seg_keys);
    EXPECT_EQ(cuts[idx].seg_rank, cuts[0].seg_rank);
    EXPECT_EQ(cuts[idx].cube.lo.x, cuts[0].cube.lo.x);
    EXPECT_EQ(cuts[idx].cube.hi.x, cuts[0].cube.hi.x);
  }
}

TEST(DomainBalance, MaintainMovesSegmentsOffOverloadedRank) {
  constexpr int P = 4;
  const auto ic = gasBall(480, 8.0, 1.0, 23, 3000.0);
  Cluster cluster(P);
  cluster.run([&](Comm& comm) {
    DomainDecomposer dd(P, 1, 1);
    auto local = blockPartition(ic, comm.rank(), P);
    asura::util::Pcg32 rng(5);
    dd.decomposeWeighted(comm, local, rng);
    local = dd.exchange(comm, std::move(local));

    // Skew: rank 0's particles suddenly report heavy work (an SN storm in
    // its corner of the volume).
    if (comm.rank() == 0) {
      for (auto& p : local) p.work = 100.0;
    }
    double imb1 = 0.0;
    const bool changed = dd.maintain(comm, local, 1.1, &imb1);
    EXPECT_TRUE(changed) << "skewed work past threshold must reassign";
    EXPECT_GT(imb1, 1.1);

    // Same weights again: the greedy assignment is a fixed point now, and
    // the realized imbalance dropped.
    double imb2 = 0.0;
    EXPECT_FALSE(dd.maintain(comm, local, 1.1, &imb2));
    EXPECT_LT(imb2, imb1);
  });
}

// ---------------------------------------------------------------------------
// Conformance with balancing enabled
// ---------------------------------------------------------------------------

TEST(DomainBalance, OneRankWeightedMatchesSerialBitwise) {
  // P = 1 with balancing on: the weighted decomposition owns everything,
  // maintain() finds a perfectly balanced single rank, and the work
  // counters are never read by physics — the trajectory must be bitwise
  // the serial one.
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
  int refreshes = 0;
  for (std::size_t s = 1; s < stats.size(); ++s) {
    // maintain() re-weighed the segments but moved nothing, so the cached
    // LET/ghost sets survive the step boundary: no exchange, no export
    // walk, no migration — the tentpole's cache-survival property.
    EXPECT_EQ(stats[s].let_exchanges, 0) << "step " << s;
    EXPECT_EQ(stats[s].let_export_walks, 0) << "step " << s;
    EXPECT_EQ(stats[s].ghost_exchanges, 0) << "step " << s;
    EXPECT_EQ(stats[s].migrated, 0) << "step " << s;
    EXPECT_EQ(stats[s].rebalances, 0) << "quiet ball must stay balanced";
    EXPECT_GT(stats[s].let_reuses, 0) << "step " << s;
    EXPECT_GT(stats[s].balance_max_over_mean, 0.0) << "step " << s;
    refreshes += stats[s].let_value_refreshes;
  }
  // The drift since the exchange re-ships LET payloads along the recorded
  // walks (no re-walk) at least once on the reuse steps.
  EXPECT_GT(refreshes, 0);
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
  // medium's; the maintain() sweep must see the skew and move segments.
  EXPECT_GE(rebalances, 1);
  EXPECT_GT(peak, dcfg.imbalance_threshold);
}

// ---------------------------------------------------------------------------
// Checkpoint round-trip of the segment map (engine-level, mid-run)
// ---------------------------------------------------------------------------

TEST(DomainBalance, RestoreCutsRejectsMapsOwnerOfCannotIndex) {
  DomainDecomposer dd(2, 1, 1);
  DomainDecomposer::Cuts good;
  good.weighted = true;
  good.cube.lo = {0.0, 0.0, 0.0};
  good.cube.hi = {1.0, 1.0, 1.0};
  good.seg_keys = {0, 1ULL << 60};
  good.seg_rank = {0, 1};
  good.seg_weight = {1.0, 1.0};
  dd.restoreCuts(good);
  EXPECT_EQ(dd.ownerOf({0.1, 0.1, 0.1}), 0);
  EXPECT_EQ(dd.ownerOf({0.9, 0.9, 0.9}), 1);

  const auto rejected = [&dd](DomainDecomposer::Cuts cuts, const std::string& field) {
    try {
      dd.restoreCuts(std::move(cuts));
      ADD_FAILURE() << "restoreCuts accepted a broken " << field;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  auto cuts = good;
  cuts.seg_rank[1] = 2;
  rejected(cuts, "seg_rank");
  cuts = good;
  cuts.seg_rank[0] = -1;
  rejected(cuts, "seg_rank");
  cuts = good;
  cuts.seg_weight.pop_back();
  rejected(cuts, "seg_weight");
  cuts = good;
  cuts.seg_keys = {1, 1ULL << 60};  // segmentOf would return -1 below key 1
  rejected(cuts, "seg_keys");
  cuts = good;
  cuts.seg_keys = {0, 0};
  rejected(cuts, "seg_keys");
  cuts = good;
  cuts.seg_keys = {0, 1ULL << 63};  // past the 63-bit key space
  rejected(cuts, "seg_keys");
  // Rectilinear cuts of a 2x1x1 grid are 3, 2*2 and 2*1*2 long.
  cuts = good;
  cuts.x = {-1.0, 0.0, 1.0};
  cuts.y = {-1.0, 1.0, -1.0, 1.0};
  cuts.z = {-1.0, 1.0, -1.0};
  rejected(cuts, "cut");
  cuts.z.push_back(1.0);
  dd.restoreCuts(cuts);
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
  cluster.run([&](Comm& comm) {
    Simulation a(blockPartition(ic, comm.rank(), P), cfg);
    a.attachDistributed(std::make_unique<DistributedEngine>(comm, dcfg));
    for (int s = 0; s < kSplit; ++s) a.step();
    asura::io::ByteWriter w;
    a.serializeState(w);
    const auto bytes = w.take();

    // Fresh instance restores mid-run: the v3 engine block carries the
    // segment map, the LET export record and the accumulated drift, so b's
    // migration / rebalance / refresh decisions replay a's exactly. Both
    // re-serialize to the same bytes, engine blocks included.
    Simulation b(blockPartition(ic, comm.rank(), P), cfg);
    b.attachDistributed(std::make_unique<DistributedEngine>(comm, dcfg));
    asura::io::ByteReader r(bytes.data(), bytes.size());
    b.restoreState(r);
    EXPECT_TRUE(b.distributed()->domains().weighted());
    asura::io::ByteWriter wa, wb;
    a.serializeState(wa);
    b.serializeState(wb);
    EXPECT_EQ(wa.bytes(), bytes);
    EXPECT_EQ(wb.bytes(), bytes);

    // Interleave the two instances' steps: both share the comm, and every
    // rank issues the same collective order (all of a's, then all of b's).
    for (int s = 0; s < kTail; ++s) {
      a.step();
      b.step();
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
}

}  // namespace
