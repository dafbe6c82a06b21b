// Tests for the self-healing run supervisor: clean runs stay untouched,
// transient kill/hang/corruption faults recover **bitwise** against the
// uninterrupted run via the in-memory checkpoint ring, persistent faults
// climb the escalation ladder and give up with a restorable post-mortem
// checkpoint plus an accurate RunReport, and a randomized fault-schedule
// property sweep ties it all together (1 and 8 ranks, global and
// hierarchical integrators).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "core/distributed.hpp"
#include "core/simulation.hpp"
#include "core/supervisor.hpp"
#include "core/surrogate.hpp"
#include "ic_fixtures.hpp"
#include "io/checkpoint.hpp"
#include "io/serialize.hpp"
#include "tmp_path.hpp"
#include "util/rng.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::comm::FaultPlan;
using asura::core::AttemptPlan;
using asura::core::blockPartition;
using asura::core::DistributedConfig;
using asura::core::DistributedEngine;
using asura::core::escalateConfig;
using asura::core::SedovOracleBackend;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::core::Supervisor;
using asura::core::SupervisorConfig;
using asura::fdps::Particle;
using asura::testing::gasBall;
using asura::testing::tmpPath;

SimulationConfig quietConfig(bool hierarchical = false) {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 24;
  cfg.dt_global = 0.005;
  if (hierarchical) {
    cfg.hierarchical_timestep = true;
    cfg.max_rung = 4;
  }
  return cfg;
}

DistributedConfig engineConfig() {
  DistributedConfig dcfg;
  dcfg.skin = 1.0;
  return dcfg;
}

std::vector<char> stateBytes(Simulation& sim) {
  asura::io::ByteWriter w;
  sim.serializeState(w);
  return w.take();
}

/// Factory the supervisor rebuilds each attempt from: rank's IC slice, the
/// plan's (possibly escalated) config, oracle backend when the ladder asks
/// for it, engine attached for P > 1.
Supervisor::Factory makeFactory(const std::vector<Particle>& ic, int P) {
  return [&ic, P](Comm& comm, const AttemptPlan& plan) {
    std::shared_ptr<asura::core::SurrogateBackend> backend;
    if (plan.force_oracle) backend = std::make_shared<SedovOracleBackend>();
    auto sim = std::make_unique<Simulation>(blockPartition(ic, comm.rank(), P),
                                            plan.cfg, std::move(backend));
    if (P > 1) {
      sim->attachDistributed(
          std::make_unique<DistributedEngine>(comm, engineConfig()));
    }
    return sim;
  };
}

/// Per-rank final state bytes of an UNsupervised fault-free run — the
/// bitwise target every transient-fault recovery must hit.
std::vector<std::vector<char>> referenceBytes(const std::vector<Particle>& ic,
                                              int P, const SimulationConfig& cfg,
                                              long steps) {
  Cluster cluster(P);
  std::vector<std::vector<char>> bytes(static_cast<std::size_t>(P));
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    if (P > 1) {
      sim.attachDistributed(
          std::make_unique<DistributedEngine>(comm, engineConfig()));
    }
    for (long s = 0; s < steps; ++s) sim.step();
    bytes[static_cast<std::size_t>(comm.rank())] = stateBytes(sim);
  });
  return bytes;
}

/// Finisher capturing every rank's final state bytes.
Supervisor::Finisher captureBytes(std::vector<std::vector<char>>& out) {
  return [&out](Comm& comm, Simulation& sim) {
    out[static_cast<std::size_t>(comm.rank())] = stateBytes(sim);
  };
}

// ---------------------------------------------------------------------------
// Clean and transient-fault runs: bitwise recovery
// ---------------------------------------------------------------------------

TEST(Supervisor, CleanRunCompletesFirstAttemptBitwise) {
  const auto ic = gasBall(200, 8.0, 1.0, 11, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const auto want = referenceBytes(ic, 1, cfg, 6);

  Cluster cluster(1);
  SupervisorConfig scfg;
  scfg.snapshot_interval = 2;
  Supervisor sup(cluster, scfg);
  std::vector<std::vector<char>> got(1);
  const auto rep = sup.run(6, cfg, makeFactory(ic, 1), captureBytes(got));

  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.attempts, 1);
  EXPECT_EQ(rep.retries, 0);
  EXPECT_EQ(rep.rollbacks, 0);
  EXPECT_EQ(rep.watchdog_trips, 0);
  EXPECT_EQ(rep.escalation_level, 0);
  EXPECT_EQ(rep.final_step, 6);
  EXPECT_TRUE(rep.failures.empty());
  EXPECT_GE(rep.snapshots, 4);  // pre-step seed + steps 2, 4, 6
  EXPECT_EQ(got[0], want[0]) << "supervision perturbed a clean run";
}

TEST(Supervisor, TransientKillRecoversBitwiseAtFourRanks) {
  constexpr int P = 4;
  const auto ic = gasBall(400, 10.0, 1.0, 21, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const auto want = referenceBytes(ic, P, cfg, 5);

  Cluster cluster(P);
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::KillRank;
  plan.rank = 1;
  plan.at_step = 3;
  plan.count = 1;  // transient: fires once, the retry runs clean
  cluster.setFaultPlan(plan);

  SupervisorConfig scfg;
  scfg.snapshot_interval = 2;
  Supervisor sup(cluster, scfg);
  std::vector<std::vector<char>> got(P);
  const auto rep = sup.run(5, cfg, makeFactory(ic, P), captureBytes(got));
  cluster.clearFaultPlan();

  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.retries, 1);
  EXPECT_EQ(rep.rollbacks, 1);
  EXPECT_EQ(rep.escalation_level, 0) << "transient fault must not escalate";
  ASSERT_EQ(rep.failures.size(), 1u);
  EXPECT_NE(rep.failures[0].cause.find("killed"), std::string::npos)
      << rep.failures[0].cause;
  EXPECT_GE(rep.failures[0].resumed_from, -1);
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)],
              want[static_cast<std::size_t>(r)])
        << "rank " << r << " diverged after kill recovery";
  }
}

TEST(Supervisor, HangDetectedByWatchdogAndRecoveredBitwise) {
  constexpr int P = 2;
  const auto ic = gasBall(200, 8.0, 1.0, 31, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const auto want = referenceBytes(ic, P, cfg, 5);

  Cluster cluster(P);
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::HangRank;
  plan.rank = 0;
  plan.at_step = 3;
  plan.count = 1;
  cluster.setFaultPlan(plan);

  SupervisorConfig scfg;
  scfg.snapshot_interval = 2;
  // Generous deadline: the steps here are milliseconds, but sanitizer builds
  // are an order of magnitude slower and a false trip would fail the bitwise
  // check. The hang itself is indefinite, so detection stays unambiguous.
  scfg.watchdog_deadline_s = 2.0;
  scfg.watchdog_poll_s = 0.01;
  Supervisor sup(cluster, scfg);
  std::vector<std::vector<char>> got(P);
  const auto rep = sup.run(5, cfg, makeFactory(ic, P), captureBytes(got));
  cluster.clearFaultPlan();

  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.watchdog_trips, 1) << "hang was never detected";
  ASSERT_GE(rep.failures.size(), 1u);
  EXPECT_TRUE(rep.failures[0].watchdog_trip);
  EXPECT_NE(rep.failures[0].cause.find("hang"), std::string::npos)
      << rep.failures[0].cause;
  EXPECT_EQ(rep.escalation_level, 0);
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)],
              want[static_cast<std::size_t>(r)])
        << "rank " << r << " diverged after hang recovery";
  }
}

TEST(Supervisor, CorruptMessageDetectedAndRecoveredBitwise) {
  constexpr int P = 2;
  const auto ic = gasBall(200, 8.0, 1.0, 41, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const auto want = referenceBytes(ic, P, cfg, 5);

  Cluster cluster(P);
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::CorruptPayload;
  plan.rank = 0;
  plan.at_step = 2;
  plan.count = 1;
  cluster.setFaultPlan(plan);

  SupervisorConfig scfg;  // supervision always guards messages
  scfg.snapshot_interval = 2;
  Supervisor sup(cluster, scfg);
  std::vector<std::vector<char>> got(P);
  const auto rep = sup.run(5, cfg, makeFactory(ic, P), captureBytes(got));
  cluster.clearFaultPlan();
  EXPECT_FALSE(cluster.messageGuard()) << "guard not restored after run";

  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.retries, 1);
  ASSERT_GE(rep.failures.size(), 1u);
  EXPECT_NE(rep.failures[0].cause.find("corrupt"), std::string::npos)
      << "silent corruption was not detected: " << rep.failures[0].cause;
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)],
              want[static_cast<std::size_t>(r)])
        << "rank " << r << " diverged after corruption recovery";
  }
}

// ---------------------------------------------------------------------------
// Persistent faults: escalation ladder, give-up, post-mortem
// ---------------------------------------------------------------------------

TEST(Supervisor, PersistentFaultEscalatesThenGivesUpWithRestorablePostmortem) {
  constexpr int P = 2;
  const auto ic = gasBall(250, 8.0, 1.0, 51, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const std::string pm_path = tmpPath("supervisor_postmortem.bin");
  const auto want = referenceBytes(ic, P, cfg, 6);

  Cluster cluster(P);
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::KillRank;
  plan.rank = 1;
  plan.at_step = 4;
  plan.count = 1 << 20;  // effectively persistent: every attempt dies
  cluster.setFaultPlan(plan);

  SupervisorConfig scfg;
  scfg.snapshot_interval = 2;
  scfg.max_retries = 3;
  scfg.watchdog = false;  // kills throw; no need for hang detection here
  scfg.postmortem_path = pm_path;
  Supervisor sup(cluster, scfg);
  const auto rep = sup.run(6, cfg, makeFactory(ic, P));
  cluster.clearFaultPlan();

  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.attempts, 4);  // first try + 3 retries
  EXPECT_EQ(rep.retries, 3);
  ASSERT_EQ(rep.failures.size(), 4u);
  // Ladder: attempt 1 at level 0, retries at min(r-1, 3) = 0, 1, 2.
  EXPECT_EQ(rep.failures[0].escalation, 0);
  EXPECT_EQ(rep.failures[1].escalation, 0);
  EXPECT_EQ(rep.failures[2].escalation, 1);
  EXPECT_EQ(rep.failures[3].escalation, 2);
  for (const auto& f : rep.failures) {
    EXPECT_NE(f.cause.find("killed"), std::string::npos) << f.cause;
  }
  // The kill lands when step 4 is first reported, right after the step-4
  // snapshot: the last good common ring step is 4.
  EXPECT_EQ(rep.final_step, 4);
  ASSERT_EQ(rep.postmortem_path, pm_path);

  // The post-mortem is a first-class checkpoint: the inspector verifies it
  // and a fresh cluster restores it and finishes the campaign — landing
  // bitwise on the uninterrupted trajectory. This is also the structural
  // proof that ring snapshots and the disk codec share one payload format.
  const auto insp = asura::io::inspectCheckpoint(pm_path);
  EXPECT_TRUE(insp.header_crc_ok);
  EXPECT_FALSE(insp.truncated);
  ASSERT_EQ(insp.sections.size(), static_cast<std::size_t>(P));
  for (const auto& sec : insp.sections) EXPECT_TRUE(sec.ok);
  EXPECT_EQ(insp.info.step, 4);

  Cluster fresh(P);
  fresh.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    sim.attachDistributed(
        std::make_unique<DistributedEngine>(comm, engineConfig()));
    asura::io::restoreCheckpoint(pm_path, sim);
    EXPECT_EQ(sim.stepCount(), 4);
    sim.step();
    sim.step();
    EXPECT_EQ(stateBytes(sim), want[static_cast<std::size_t>(comm.rank())])
        << "rank " << comm.rank() << " diverged after post-mortem restart";
  });
  std::remove(pm_path.c_str());
}

TEST(Supervisor, EscalateSetsLadderKnobsMonotonically) {
  using asura::pikg::Isa;
  SimulationConfig base = quietConfig();
  base.gravity.isa = Isa::Auto;
  base.sph.isa = Isa::Auto;

  const auto l0 = escalateConfig(base, 0);
  EXPECT_FALSE(l0.validate_steps);
  EXPECT_EQ(l0.gravity.isa, Isa::Auto);
  EXPECT_EQ(l0.sph.isa, Isa::Auto);

  const auto l1 = escalateConfig(base, 1);
  EXPECT_TRUE(l1.validate_steps);
  EXPECT_EQ(l1.gravity.isa, Isa::Auto);
  EXPECT_EQ(l1.sph.isa, Isa::Auto);

  const auto l3 = escalateConfig(base, 3);
  EXPECT_TRUE(l3.validate_steps);
  EXPECT_EQ(l3.gravity.isa, Isa::Scalar);
  EXPECT_EQ(l3.sph.isa, Isa::Scalar);

  // Idempotent: re-escalating an escalated config changes nothing — the
  // supervisor re-applies levels on top of ring-restored configs.
  const auto l3b = escalateConfig(l3, 3);
  EXPECT_TRUE(l3b.validate_steps);
  EXPECT_EQ(l3b.gravity.isa, Isa::Scalar);
  EXPECT_EQ(l3b.sph.isa, Isa::Scalar);
}

TEST(Supervisor, SupervisorConfigRejected) {
  Cluster cluster(1);
  const auto expectRejected = [&](auto mutate, const char* what) {
    SupervisorConfig scfg;
    mutate(scfg);
    EXPECT_THROW(Supervisor(cluster, scfg), std::invalid_argument) << what;
  };
  expectRejected([](SupervisorConfig& c) { c.snapshot_interval = 0; },
                 "zero snapshot interval");
  expectRejected([](SupervisorConfig& c) { c.snapshot_interval = -4; },
                 "negative snapshot interval");
  expectRejected([](SupervisorConfig& c) { c.max_retries = -1; },
                 "negative retries");
  expectRejected([](SupervisorConfig& c) { c.watchdog_deadline_s = 0.0; },
                 "zero watchdog deadline");
  expectRejected([](SupervisorConfig& c) { c.watchdog_poll_s = -0.1; },
                 "negative watchdog poll");

  // A watchdog-off config is free to carry garbage watchdog knobs: they
  // are never consulted.
  SupervisorConfig off;
  off.watchdog = false;
  off.watchdog_deadline_s = 0.0;
  EXPECT_NO_THROW(Supervisor(cluster, off));
}

// ---------------------------------------------------------------------------
// Property: randomized fault schedules always recover bitwise or terminate
// with an accurate report — never deadlock, never silently diverge.
// ---------------------------------------------------------------------------

TEST(Supervisor, RandomFaultSchedulesRecoverOrReport) {
  constexpr long kTarget = 6;
  asura::util::Pcg32 rng(0xfeedu, 0xbeefu);

  // Reference runs are the expensive part; cache per (P, hierarchical).
  const auto ic1 = gasBall(200, 8.0, 1.0, 61, 3000.0);
  const auto ic8 = gasBall(400, 10.0, 1.0, 62, 3000.0);
  std::map<std::pair<int, bool>, std::vector<std::vector<char>>> refs;
  const auto reference = [&](int P, bool hier) -> const auto& {
    auto& slot = refs[{P, hier}];
    if (slot.empty()) {
      slot = referenceBytes(P == 1 ? ic1 : ic8, P, quietConfig(hier), kTarget);
    }
    return slot;
  };

  for (int trial = 0; trial < 6; ++trial) {
    const int P = (rng.nextU32() & 1) ? 8 : 1;
    const bool hier = (rng.nextU32() & 1) != 0;
    const auto& ic = P == 1 ? ic1 : ic8;
    const SimulationConfig cfg = quietConfig(hier);

    FaultPlan plan;
    // Corruption needs message traffic: serial trials draw kill/hang only.
    const int kinds = P > 1 ? 3 : 2;
    switch (rng.nextU32() % static_cast<std::uint32_t>(kinds)) {
      case 0: plan.kind = FaultPlan::Kind::KillRank; break;
      case 1: plan.kind = FaultPlan::Kind::HangRank; break;
      default: plan.kind = FaultPlan::Kind::CorruptPayload; break;
    }
    plan.rank = static_cast<int>(rng.nextU32() % static_cast<std::uint32_t>(P));
    plan.at_step = 1 + static_cast<long>(rng.nextU32() % (kTarget - 1));
    plan.count = 1;  // transient: level-0 recovery must be bitwise

    SCOPED_TRACE("trial " + std::to_string(trial) + ": P=" + std::to_string(P) +
                 " hier=" + std::to_string(hier) + " kind=" +
                 std::to_string(static_cast<int>(plan.kind)) + " rank=" +
                 std::to_string(plan.rank) + " at_step=" +
                 std::to_string(plan.at_step));

    const std::string pm_path =
        tmpPath("supervisor_prop_" + std::to_string(trial) + ".bin");
    Cluster cluster(P);
    cluster.setFaultPlan(plan);

    SupervisorConfig scfg;
    scfg.snapshot_interval = 2;
    scfg.watchdog_deadline_s = 2.0;  // sanitizer-tolerant, still finite
    scfg.watchdog_poll_s = 0.01;
    scfg.postmortem_path = pm_path;
    Supervisor sup(cluster, scfg);
    std::vector<std::vector<char>> got(static_cast<std::size_t>(P));
    const auto rep = sup.run(kTarget, cfg, makeFactory(ic, P), captureBytes(got));
    cluster.clearFaultPlan();

    // Report bookkeeping must be consistent whatever happened.
    EXPECT_EQ(rep.attempts, rep.retries + 1);
    EXPECT_EQ(rep.failures.size(),
              static_cast<std::size_t>(rep.completed ? rep.retries : rep.attempts));
    EXPECT_LE(rep.final_step, kTarget);

    if (rep.completed) {
      const auto& want = reference(P, hier);
      for (int r = 0; r < P; ++r) {
        EXPECT_EQ(got[static_cast<std::size_t>(r)],
                  want[static_cast<std::size_t>(r)])
            << "rank " << r << " silently diverged";
      }
    } else {
      // Gave up: the report must say why, and the post-mortem (when any
      // ring state existed) must verify end to end.
      EXPECT_FALSE(rep.failures.empty());
      if (!rep.postmortem_path.empty()) {
        const auto insp = asura::io::inspectCheckpoint(rep.postmortem_path);
        EXPECT_TRUE(insp.header_crc_ok);
        for (const auto& sec : insp.sections) EXPECT_TRUE(sec.ok);
        EXPECT_EQ(insp.info.step, rep.final_step);
      }
    }
    std::remove(pm_path.c_str());
  }
}

}  // namespace
