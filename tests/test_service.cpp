// Tests for the multi-tenant scenario service: the lifecycle FSM rejects
// illegal edges, hosting N instances concurrently is **bitwise** identical
// to running each alone (global and hierarchical integrators), an injected
// fault recovers bitwise while neighbours step undisturbed, streamed
// snapshots round-trip through the checkpoint codec, clones diverge only
// via their own rng stream, ROI queries match a direct deposit without
// perturbing the trajectory, and archive writes a restorable checkpoint.
// Control calls run on the caller's thread: one on an idle instance never
// waits for a worker stepping another, not even from inside a step hook.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "core/surrogate.hpp"
#include "ic_fixtures.hpp"
#include "io/checkpoint.hpp"
#include "io/serialize.hpp"
#include "service/scenario_service.hpp"
#include "sph/kernels.hpp"
#include "voxel/voxel.hpp"

namespace {

using asura::core::SedovOracleBackend;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::fdps::Particle;
using asura::service::InstanceId;
using asura::service::InstanceInfo;
using asura::service::InstanceSpec;
using asura::service::InstanceState;
using asura::service::ScenarioService;
using asura::service::ServiceConfig;
using asura::service::Snapshot;
using asura::service::transitionAllowed;
using asura::testing::blastwaveIc;
using asura::testing::gasBall;

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

std::vector<Particle> instanceIc(int i) {
  return gasBall(96, 5.0 + 0.25 * i, 30.0 + 2.0 * i,
                 0xACE0ull + static_cast<std::uint64_t>(i));
}

std::vector<char> stateBytes(Simulation& sim) {
  asura::io::ByteWriter w;
  sim.serializeState(w);
  return w.take();
}

/// Final state bytes of instance i's IC run ALONE, unhosted: the bitwise
/// target its hosted trajectory must hit.
std::vector<char> soloBytes(std::vector<Particle> ic, const SimulationConfig& cfg,
                            long steps) {
  Simulation sim(std::move(ic), cfg);
  for (long s = 0; s < steps; ++s) sim.step();
  return stateBytes(sim);
}

std::string tmpPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// FSM + config validation
// ---------------------------------------------------------------------------

TEST(ServiceFsm, EdgeTable) {
  using S = InstanceState;
  const S all[] = {S::Created, S::Running, S::Paused, S::Failed, S::Archived};

  EXPECT_TRUE(transitionAllowed(S::Created, S::Running));
  EXPECT_TRUE(transitionAllowed(S::Running, S::Paused));
  EXPECT_TRUE(transitionAllowed(S::Running, S::Failed));
  EXPECT_TRUE(transitionAllowed(S::Paused, S::Running));
  EXPECT_TRUE(transitionAllowed(S::Failed, S::Paused));
  for (S from : all) {
    EXPECT_EQ(transitionAllowed(from, S::Archived), from != S::Archived);
    // No self-loops, nothing leaves the terminal state, nothing enters
    // Created after construction.
    EXPECT_FALSE(transitionAllowed(from, from));
    EXPECT_FALSE(transitionAllowed(S::Archived, from));
    EXPECT_FALSE(transitionAllowed(from, S::Created));
  }
  EXPECT_FALSE(transitionAllowed(S::Created, S::Paused));
  EXPECT_FALSE(transitionAllowed(S::Created, S::Failed));
  EXPECT_FALSE(transitionAllowed(S::Failed, S::Running));
  EXPECT_FALSE(transitionAllowed(S::Paused, S::Failed));
}

TEST(ServiceFsm, ServiceConfigRejected) {
  const auto rejected = [](auto mutate) {
    ServiceConfig cfg;
    mutate(cfg);
    EXPECT_THROW(ScenarioService svc(cfg), std::invalid_argument);
  };
  rejected([](ServiceConfig& c) { c.n_workers = 0; });
  rejected([](ServiceConfig& c) { c.step_budget = 0; });
  rejected([](ServiceConfig& c) { c.snapshot_interval = 0; });
  rejected([](ServiceConfig& c) { c.ring_slots = 1; });
  rejected([](ServiceConfig& c) { c.max_retries = -1; });
}

TEST(ServiceFsm, IllegalRequestsThrowAndChangeNothing) {
  ServiceConfig scfg;
  scfg.n_workers = 2;
  ScenarioService svc(scfg);
  const InstanceId id =
      svc.create({"fsm", instanceIc(0), quietConfig(), nullptr});

  EXPECT_THROW(svc.rollback(id), std::runtime_error);  // Created, not Paused

  // Gate the first step so the instance is deterministically still Running
  // when the second start() arrives (without it, a 4-step run can finish
  // before the request is even processed).
  auto gate = std::make_shared<std::atomic<bool>>(false);
  svc.setStepHook(id, [gate](Simulation&, long) {
    while (!gate->load()) std::this_thread::yield();
  });
  svc.start(id, 4);
  EXPECT_THROW(svc.start(id, 8), std::runtime_error);  // already Running
  gate->store(true);
  svc.waitIdle();
  svc.setStepHook(id, nullptr);
  EXPECT_EQ(svc.info(id).state, InstanceState::Paused);
  EXPECT_THROW(svc.start(id, 2), std::runtime_error);  // target in the past
  svc.pause(id);                                       // idempotent
  svc.archive(id);
  EXPECT_EQ(svc.info(id).state, InstanceState::Archived);
  EXPECT_THROW(svc.start(id, 16), std::runtime_error);
  EXPECT_THROW(svc.pause(id), std::runtime_error);
  EXPECT_THROW(svc.archive(id), std::runtime_error);
  EXPECT_THROW(svc.queryRoi(id, {}), std::runtime_error);  // sim released
  EXPECT_THROW((void)svc.info(id + 99), std::runtime_error);

  // Admission: a config a Simulation itself would reject never registers.
  SimulationConfig bad = quietConfig();
  bad.eta_acc = 0.0;
  EXPECT_THROW(svc.create({"bad", instanceIc(1), bad, nullptr}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Bitwise isolation: N hosted == each alone
// ---------------------------------------------------------------------------

void expectHostedMatchesSolo(bool hierarchical) {
  const int kN = 8;
  const long kSteps = 10;
  const SimulationConfig cfg = quietConfig(hierarchical);

  ServiceConfig scfg;
  scfg.n_workers = 4;
  scfg.step_budget = 3;      // forces interleaving across workers
  scfg.snapshot_interval = 4;
  scfg.omp_threads_per_instance = 1;
  ScenarioService svc(scfg);

  std::vector<InstanceId> ids;
  for (int i = 0; i < kN; ++i) {
    ids.push_back(svc.create(
        {"inst-" + std::to_string(i), instanceIc(i), cfg, nullptr}));
  }
  for (InstanceId id : ids) svc.start(id, kSteps);
  svc.waitIdle();

  for (int i = 0; i < kN; ++i) {
    const InstanceInfo info = svc.info(ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(info.state, InstanceState::Paused) << info.last_error;
    EXPECT_EQ(info.step, kSteps);
    EXPECT_GT(info.heartbeats, 0u);
    // The ring's newest snapshot (pushed when the instance parked) must be
    // byte-for-byte the state an unhosted run produces.
    const Snapshot snap = svc.latestSnapshot(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(snap.bytes);
    EXPECT_EQ(snap.step, kSteps);
    EXPECT_EQ(*snap.bytes, soloBytes(instanceIc(i), cfg, kSteps))
        << "instance " << i << " diverged from its solo run";
  }
}

TEST(ServiceBitwise, EightConcurrentInstancesMatchSoloGlobal) {
  expectHostedMatchesSolo(false);
}

TEST(ServiceBitwise, EightConcurrentInstancesMatchSoloHierarchical) {
  expectHostedMatchesSolo(true);
}

TEST(ServiceBitwise, SharedSurrogateBackendAcrossInstances) {
  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  cfg.enable_star_formation = true;

  const auto ic = [](int i) { return blastwaveIc(96, 0xB1A5ull + i); };

  ServiceConfig scfg;
  scfg.n_workers = 2;
  scfg.omp_threads_per_instance = 1;
  ScenarioService svc(scfg);

  // One oracle backend serving every instance: forwards are read-only
  // (ml::InferenceModeScope), so sharing must stay bitwise-safe.
  auto shared = std::make_shared<SedovOracleBackend>();
  std::vector<InstanceId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(svc.create({"sn-" + std::to_string(i), ic(i), cfg, shared}));
  }
  for (InstanceId id : ids) svc.start(id, 8);
  svc.waitIdle();

  for (int i = 0; i < 3; ++i) {
    Simulation solo(ic(i), cfg, std::make_shared<SedovOracleBackend>());
    for (long s = 0; s < 8; ++s) solo.step();
    const Snapshot snap = svc.latestSnapshot(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(snap.bytes);
    EXPECT_EQ(*snap.bytes, stateBytes(solo)) << "instance " << i;
  }
}

// ---------------------------------------------------------------------------
// Fault injection: one instance recovers bitwise, neighbours undisturbed
// ---------------------------------------------------------------------------

TEST(ServiceRecovery, TransientFaultRecoversBitwiseNeighborsUndisturbed) {
  const int kN = 8;
  const long kSteps = 12;
  const SimulationConfig cfg = quietConfig();

  ServiceConfig scfg;
  scfg.n_workers = 4;
  scfg.step_budget = 3;
  scfg.snapshot_interval = 4;
  scfg.omp_threads_per_instance = 1;
  ScenarioService svc(scfg);

  std::vector<InstanceId> ids;
  for (int i = 0; i < kN; ++i) {
    ids.push_back(svc.create(
        {"inst-" + std::to_string(i), instanceIc(i), cfg, nullptr}));
  }
  // Self-disarming fault: fires exactly once, at step 7 of instance 3 —
  // past the interval snapshot at step 4, so recovery replays 4..7.
  const std::size_t victim = 3;
  auto armed = std::make_shared<std::atomic<bool>>(true);
  svc.setStepHook(ids[victim], [armed](Simulation&, long next_step) {
    if (next_step == 7 && armed->exchange(false)) {
      throw std::runtime_error("injected transient fault");
    }
  });

  for (InstanceId id : ids) svc.start(id, kSteps);
  svc.waitIdle();

  for (int i = 0; i < kN; ++i) {
    const InstanceInfo info = svc.info(ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(info.state, InstanceState::Paused) << info.last_error;
    if (static_cast<std::size_t>(i) == victim) {
      EXPECT_EQ(info.retries, 1);
      EXPECT_EQ(info.rollbacks, 1);
      EXPECT_EQ(info.escalation_level, 0);  // level-0 replay, same config
      EXPECT_EQ(info.wasted_steps, 3);      // rolled 7 back to snapshot at 4
      EXPECT_NE(info.last_error.find("injected"), std::string::npos);
    } else {
      EXPECT_EQ(info.retries, 0) << "neighbour " << i << " was disturbed";
      EXPECT_EQ(info.rollbacks, 0);
    }
    const Snapshot snap = svc.latestSnapshot(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(snap.bytes);
    EXPECT_EQ(*snap.bytes, soloBytes(instanceIc(i), cfg, kSteps))
        << "instance " << i << " diverged from its solo run";
  }
}

TEST(ServiceRecovery, PersistentFaultParksFailedThenRollbackRehabilitates) {
  ServiceConfig scfg;
  scfg.n_workers = 2;
  scfg.max_retries = 2;
  scfg.snapshot_interval = 2;
  ScenarioService svc(scfg);
  const auto persistentFault = [](Simulation&, long next_step) {
    if (next_step >= 3) throw std::runtime_error("persistent fault");
  };

  // Two instances fail the same way: the first is rolled back, the second
  // archived while Failed.
  const InstanceId id =
      svc.create({"doomed", instanceIc(0), quietConfig(), nullptr});
  const InstanceId archived =
      svc.create({"doomed-archived", instanceIc(1), quietConfig(), nullptr});
  for (const InstanceId i : {id, archived}) {
    svc.setStepHook(i, persistentFault);
    svc.start(i, 8);
  }
  svc.waitIdle();

  InstanceInfo info = svc.info(id);
  EXPECT_EQ(info.state, InstanceState::Failed);
  EXPECT_EQ(info.retries, scfg.max_retries + 1);
  EXPECT_GT(info.rollbacks, 0);
  EXPECT_NE(info.last_error.find("persistent"), std::string::npos);
  // The newest snapshot is the last good step, behind the failed state.
  EXPECT_EQ(info.snapshot_step, 2);
  EXPECT_EQ(info.step, 3);

  // Failed -> Paused is rollback's edge: pause() throws and publishes
  // nothing, so a start() cannot resume from the failed state.
  EXPECT_THROW(svc.pause(id), std::runtime_error);
  const InstanceInfo after_pause = svc.info(id);
  EXPECT_EQ(after_pause.state, InstanceState::Failed);
  EXPECT_EQ(after_pause.snapshots, info.snapshots);
  EXPECT_EQ(after_pause.snapshot_step, info.snapshot_step);
  EXPECT_EQ(svc.latestSnapshot(id).step, info.snapshot_step);

  // Archiving a Failed instance pushes nothing: its final snapshot, and the
  // checkpoint written from it, are the last good step.
  const InstanceInfo before_archive = svc.info(archived);
  ASSERT_EQ(before_archive.state, InstanceState::Failed);
  const std::string path = tmpPath("svc_failed_archive.ckpt");
  svc.archive(archived, path);
  const InstanceInfo after_archive = svc.info(archived);
  EXPECT_EQ(after_archive.state, InstanceState::Archived);
  EXPECT_EQ(after_archive.snapshots, before_archive.snapshots);
  EXPECT_EQ(after_archive.snapshot_step, 2);
  const auto insp = asura::io::inspectCheckpoint(path);
  EXPECT_TRUE(insp.ok()) << insp.defect;
  EXPECT_EQ(insp.info.step, 2);
  std::remove(path.c_str());

  // Rollback rehabilitates (Failed -> Paused, retry budget refreshed);
  // with the fault gone the instance then finishes its run.
  svc.rollback(id);
  EXPECT_EQ(svc.info(id).state, InstanceState::Paused);
  EXPECT_EQ(svc.info(id).retries, 0);
  svc.setStepHook(id, nullptr);
  svc.start(id, 8);
  svc.waitIdle();
  info = svc.info(id);
  EXPECT_EQ(info.state, InstanceState::Paused) << info.last_error;
  EXPECT_EQ(info.step, 8);
}

// ---------------------------------------------------------------------------
// Snapshot streaming and clones
// ---------------------------------------------------------------------------

TEST(ServiceSnapshots, StreamedBlobsRoundTripThroughCodec) {
  const SimulationConfig cfg = quietConfig();
  ServiceConfig scfg;
  scfg.n_workers = 2;
  scfg.snapshot_interval = 3;
  ScenarioService svc(scfg);

  const InstanceId id = svc.create({"stream", instanceIc(1), cfg, nullptr});

  std::mutex mu;
  std::vector<Snapshot> seen;
  const std::uint64_t token = svc.subscribe(id, [&](const Snapshot& s) {
    std::lock_guard<std::mutex> lk(mu);
    seen.push_back(s);
  });

  svc.start(id, 9);
  svc.waitIdle();
  svc.unsubscribe(token);
  svc.start(id, 12);  // post-unsubscribe pushes must not reach us
  svc.waitIdle();

  std::vector<Snapshot> snaps;
  {
    std::lock_guard<std::mutex> lk(mu);
    snaps = seen;
  }
  // Catch-up delivery of the creation snapshot (step 0) + interval pushes
  // at 3, 6, 9 (the park at 9 coincides with the interval push).
  ASSERT_GE(snaps.size(), 4u);
  EXPECT_EQ(snaps.front().step, 0);
  EXPECT_EQ(snaps.back().step, 9);
  for (std::size_t k = 1; k < snaps.size(); ++k) {
    EXPECT_LT(snaps[k - 1].step, snaps[k].step);  // in-order, no duplicates
  }

  for (const Snapshot& s : snaps) {
    ASSERT_TRUE(s.bytes);
    EXPECT_EQ(s.instance, id);
    EXPECT_EQ(asura::io::crc32(s.bytes->data(), s.bytes->size()), s.crc);
    // Wire-format contract: the blob restores through the ordinary
    // serializeState codec and re-serializes to the identical bytes.
    Simulation roundtrip(std::vector<Particle>{}, cfg);
    asura::io::ByteReader r(s.bytes->data(), s.bytes->size());
    roundtrip.restoreState(r);
    EXPECT_EQ(stateBytes(roundtrip), *s.bytes) << "snapshot at step " << s.step;
  }
}

TEST(ServiceClones, CloneWithoutReseedContinuesSourceTrajectory) {
  const SimulationConfig cfg = quietConfig();
  ServiceConfig scfg;
  scfg.n_workers = 2;
  ScenarioService svc(scfg);

  const InstanceId a = svc.create({"a", instanceIc(2), cfg, nullptr});
  svc.start(a, 6);
  svc.waitIdle();

  const InstanceId b = svc.clone(a, "b");
  EXPECT_EQ(svc.info(b).cloned_from, a);
  EXPECT_EQ(svc.info(b).step, 6);

  svc.start(a, 12);
  svc.start(b, 12);
  svc.waitIdle();

  const Snapshot sa = svc.latestSnapshot(a);
  const Snapshot sb = svc.latestSnapshot(b);
  ASSERT_TRUE(sa.bytes);
  ASSERT_TRUE(sb.bytes);
  // Identical bytes, rng stream included: the clone IS the source's run.
  EXPECT_EQ(*sa.bytes, *sb.bytes);
  EXPECT_EQ(*sa.bytes, soloBytes(instanceIc(2), cfg, 12));
}

TEST(ServiceClones, ReseededCloneDivergesOnlyViaRngStream) {
  const SimulationConfig cfg = quietConfig();
  ServiceConfig scfg;
  scfg.n_workers = 2;
  ScenarioService svc(scfg);

  const InstanceId a = svc.create({"a", instanceIc(2), cfg, nullptr});
  svc.start(a, 6);
  svc.waitIdle();
  const InstanceId c = svc.clone(a, "c", /*reseed=*/0xFEEDu);

  svc.start(a, 12);
  svc.start(c, 12);
  svc.waitIdle();

  const Snapshot sa = svc.latestSnapshot(a);
  const Snapshot sc = svc.latestSnapshot(c);
  ASSERT_TRUE(sa.bytes);
  ASSERT_TRUE(sc.bytes);
  // The reseed is visible in the serialized state (seed + rng stream)...
  EXPECT_NE(*sa.bytes, *sc.bytes);
  // ...but with rng-free physics the particle trajectories are identical:
  // the clone diverges via its rng stream and nothing else.
  Simulation ra(std::vector<Particle>{}, cfg);
  Simulation rc(std::vector<Particle>{}, cfg);
  asura::io::ByteReader rra(sa.bytes->data(), sa.bytes->size());
  asura::io::ByteReader rrc(sc.bytes->data(), sc.bytes->size());
  ra.restoreState(rra);
  rc.restoreState(rrc);
  ASSERT_EQ(ra.particles().size(), rc.particles().size());
  for (std::size_t i = 0; i < ra.particles().size(); ++i) {
    const Particle& p = ra.particles()[i];
    const Particle& q = rc.particles()[i];
    EXPECT_EQ(p.id, q.id);
    EXPECT_EQ(p.pos.x, q.pos.x);
    EXPECT_EQ(p.pos.y, q.pos.y);
    EXPECT_EQ(p.pos.z, q.pos.z);
    EXPECT_EQ(p.vel.x, q.vel.x);
    EXPECT_EQ(p.vel.y, q.vel.y);
    EXPECT_EQ(p.vel.z, q.vel.z);
    EXPECT_EQ(p.u, q.u);
  }
}

TEST(ServiceSnapshots, ThrowingSubscriberNeitherKillsHostNorPerturbsTrajectory) {
  const SimulationConfig cfg = quietConfig();
  ServiceConfig scfg;
  scfg.n_workers = 2;
  scfg.snapshot_interval = 3;
  ScenarioService svc(scfg);

  const InstanceId id = svc.create({"bad-sub", instanceIc(3), cfg, nullptr});
  // A misbehaving subscriber throws on every delivery. Pre-fix the interval
  // push ran outside runSlice's try block, so this std::terminate'd the
  // worker and took the whole host down; now the throw is swallowed
  // per-subscriber: no recovery is triggered, and the well-behaved
  // subscriber behind it still receives every blob.
  std::atomic<int> throws{0};
  svc.subscribe(id, [&throws](const Snapshot& s) {
    if (s.step > 0) {
      ++throws;
      throw std::runtime_error("misbehaving subscriber");
    }
  });
  std::mutex mu;
  std::vector<long> steps_seen;
  svc.subscribe(id, [&](const Snapshot& s) {
    std::lock_guard<std::mutex> lk(mu);
    steps_seen.push_back(s.step);
  });

  svc.start(id, 9);
  svc.waitIdle();

  const InstanceInfo info = svc.info(id);
  EXPECT_EQ(info.state, InstanceState::Paused) << info.last_error;
  EXPECT_EQ(info.step, 9);
  EXPECT_EQ(info.retries, 0);  // a subscriber throw is not a step failure
  EXPECT_GT(throws.load(), 0);
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_FALSE(steps_seen.empty());
    EXPECT_EQ(steps_seen.back(), 9);  // delivery continued past the thrower
  }
  const Snapshot snap = svc.latestSnapshot(id);
  ASSERT_TRUE(snap.bytes);
  EXPECT_EQ(*snap.bytes, soloBytes(instanceIc(3), cfg, 9));
}

// ---------------------------------------------------------------------------
// Concurrency regressions: live observability, racing control ops
// ---------------------------------------------------------------------------

TEST(ServiceObservability, LiveInfoWhileSteppingIsRaceFree) {
  const long kSteps = 40;
  ServiceConfig scfg;
  scfg.n_workers = 2;
  scfg.step_budget = 2;
  scfg.snapshot_interval = 1;  // ring bookkeeping mutates every step
  scfg.max_retries = 1000;
  scfg.omp_threads_per_instance = 1;
  ScenarioService svc(scfg);

  const InstanceId a =
      svc.create({"live-a", instanceIc(0), quietConfig(), nullptr});
  const InstanceId b =
      svc.create({"live-b", instanceIc(1), quietConfig(), nullptr});
  // Periodic transient faults keep the recovery bookkeeping (retries,
  // rollbacks, wasted_steps, last_error) churning under the lease while the
  // main thread polls. The counter is call-based, not step-based, so the
  // post-rollback replay does not deterministically re-fault.
  auto calls = std::make_shared<std::atomic<int>>(0);
  svc.setStepHook(b, [calls](Simulation&, long) {
    if (calls->fetch_add(1) % 9 == 8) {
      throw std::runtime_error("periodic transient fault");
    }
  });
  svc.start(a, kSteps);
  svc.start(b, kSteps);

  // Live monitoring on Running instances — the use case the heartbeat
  // atomics exist for. Pre-fix, info() read lease-mutated counters and a
  // mutating std::string under mu_ only (a torn read / TSan race).
  long last_a = 0;
  for (;;) {
    bool all_parked = true;
    for (const InstanceInfo& info : svc.list()) {
      EXPECT_GE(info.step, 0);
      EXPECT_GE(info.snapshots, 1);  // creation push at minimum
      all_parked = all_parked && info.state != InstanceState::Running;
    }
    const InstanceInfo ia = svc.info(a);
    EXPECT_GE(ia.step, last_a);  // published step never regresses
    last_a = ia.step;
    if (all_parked) break;
    std::this_thread::yield();
  }
  svc.waitIdle();

  EXPECT_EQ(svc.info(a).step, kSteps);
  const InstanceInfo ib = svc.info(b);
  EXPECT_EQ(ib.state, InstanceState::Paused) << ib.last_error;
  EXPECT_EQ(ib.step, kSteps);
  EXPECT_GT(ib.retries, 0);  // the fault hook really fired and recovered
}

TEST(ServiceObservability, IdleInstanceCallsDoNotWaitForABusyWorker) {
  ServiceConfig scfg;
  scfg.n_workers = 1;
  ScenarioService svc(scfg);
  const InstanceId busy =
      svc.create({"busy", instanceIc(0), quietConfig(), nullptr});
  const InstanceId idle =
      svc.create({"idle", instanceIc(1), quietConfig(), nullptr});

  // The only worker stays inside busy's first step until released.
  auto gate = std::make_shared<std::atomic<bool>>(false);
  auto in_hook = std::make_shared<std::atomic<bool>>(false);
  svc.setStepHook(busy, [gate, in_hook](Simulation&, long) {
    in_hook->store(true);
    while (!gate->load()) std::this_thread::yield();
  });
  svc.start(busy, 1);
  while (!in_hook->load()) std::this_thread::yield();

  asura::voxel::RoiSpec spec;
  spec.box_size = 8.0;
  spec.grid_n = 4;
  auto info = std::async(std::launch::async, [&] { return svc.info(idle); });
  auto list = std::async(std::launch::async, [&] { return svc.list(); });
  auto snap =
      std::async(std::launch::async, [&] { return svc.latestSnapshot(idle); });
  auto roi =
      std::async(std::launch::async, [&] { return svc.queryRoi(idle, spec); });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  const auto ready = [&deadline](const auto& f) {
    return f.wait_until(deadline) == std::future_status::ready;
  };
  const bool info_ready = ready(info);
  const bool list_ready = ready(list);
  const bool snap_ready = ready(snap);
  const bool roi_ready = ready(roi);
  // Release the worker before any check, so a call that did queue behind
  // the slice completes and the futures resolve.
  gate->store(true);
  svc.waitIdle();

  EXPECT_TRUE(info_ready) << "info() waited for another instance's slice";
  EXPECT_TRUE(list_ready) << "list() waited for another instance's slice";
  EXPECT_TRUE(snap_ready) << "latestSnapshot() waited for another instance's slice";
  EXPECT_TRUE(roi_ready) << "queryRoi() waited for another instance's slice";
  EXPECT_EQ(info.get().state, InstanceState::Created);
  EXPECT_EQ(list.get().size(), 2u);
  EXPECT_EQ(snap.get().step, 0);
  EXPECT_EQ(roi.get().step, 0);
  EXPECT_EQ(svc.info(busy).step, 1);
}

TEST(ServiceObservability, StepHookCanQueryAnotherInstance) {
  ServiceConfig scfg;
  scfg.n_workers = 1;
  ScenarioService svc(scfg);
  const InstanceId hooked =
      svc.create({"hooked", instanceIc(2), quietConfig(), nullptr});
  const InstanceId other =
      svc.create({"other", instanceIc(3), quietConfig(), nullptr});

  // The hook runs on the only worker. Its call goes through a future held
  // out here: if the call needed that worker, the hook gives up after 2 s
  // and the slice (and the test) still ends.
  std::future<InstanceInfo> seen;
  std::atomic<bool> completed{false};
  svc.setStepHook(hooked, [&](Simulation&, long next_step) {
    if (next_step != 0) return;
    seen = std::async(std::launch::async, [&] { return svc.info(other); });
    completed = seen.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  });
  svc.start(hooked, 2);
  svc.waitIdle();

  EXPECT_TRUE(completed.load()) << "a step hook's info() waited for its own worker";
  ASSERT_TRUE(seen.valid());
  const InstanceInfo info = seen.get();
  EXPECT_EQ(info.id, other);
  EXPECT_EQ(info.state, InstanceState::Created);
  EXPECT_EQ(svc.info(hooked).step, 2);
}

TEST(ServiceObservability, WaitingCallGoesBeforeTheNextSlice) {
  ServiceConfig scfg;
  scfg.n_workers = 2;  // an idle worker is ready to take the next slice
  scfg.step_budget = 1;
  scfg.snapshot_interval = 1;
  ScenarioService svc(scfg);
  const InstanceId id = svc.create({"busy", instanceIc(4), quietConfig(), nullptr});

  auto gate = std::make_shared<std::atomic<bool>>(false);
  auto in_hook = std::make_shared<std::atomic<bool>>(false);
  svc.setStepHook(id, [gate, in_hook](Simulation&, long next_step) {
    if (next_step == 2) {
      in_hook->store(true);
      while (!gate->load()) std::this_thread::yield();
    }
  });
  svc.start(id, 40);
  while (!in_hook->load()) std::this_thread::yield();
  // The call waits for the slice running step 2, and gets the lease before
  // either worker takes the instance's next slice.
  auto snap = std::async(std::launch::async, [&] { return svc.latestSnapshot(id); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate->store(true);
  EXPECT_EQ(snap.get().step, 3);
  svc.waitIdle();
  EXPECT_EQ(svc.info(id).step, 40);
}

TEST(ServiceFsm, ConcurrentPausesLeaveNoStaleParkRequest) {
  ServiceConfig scfg;
  scfg.n_workers = 1;
  scfg.step_budget = 1;
  scfg.snapshot_interval = 1000;  // the park snapshot is pause()'s to push
  ScenarioService svc(scfg);

  const InstanceId decoy =
      svc.create({"decoy", instanceIc(6), quietConfig(), nullptr});
  const InstanceId id =
      svc.create({"target", instanceIc(7), quietConfig(), nullptr});

  auto decoy_gate = std::make_shared<std::atomic<bool>>(false);
  auto decoy_in_hook = std::make_shared<std::atomic<bool>>(false);
  auto target_gate = std::make_shared<std::atomic<bool>>(false);
  auto target_in_hook = std::make_shared<std::atomic<bool>>(false);
  std::atomic<bool> in_pause_push{false};
  std::atomic<bool> release_push{false};

  // The only worker stays inside the decoy's hook until released.
  svc.setStepHook(decoy, [decoy_gate, decoy_in_hook](Simulation&, long) {
    decoy_in_hook->store(true);
    while (!decoy_gate->load()) std::this_thread::yield();
  });
  // The target's step 0 waits until the decoy is queued behind it.
  svc.setStepHook(id, [target_gate, target_in_hook](Simulation&,
                                                    long next_step) {
    if (next_step == 0) {
      target_in_hook->store(true);
      while (!target_gate->load()) std::this_thread::yield();
    }
  });
  // Blocking subscriber: holds pause #1's direct-path snapshot push open
  // while pause #1 holds the lease.
  svc.subscribe(id, [&](const Snapshot& s) {
    if (s.step > 0 && !release_push.load()) {
      in_pause_push.store(true);
      while (!release_push.load()) std::this_thread::yield();
    }
  });

  // The worker steps the target once (budget 1), requeues it behind the
  // decoy and then stays in the decoy's hook. The target is left Running,
  // unleased in the run queue, one step past its newest snapshot.
  svc.start(id, 100);
  while (!target_in_hook->load()) std::this_thread::yield();
  svc.start(decoy, 1);
  target_gate->store(true);
  while (!decoy_in_hook->load()) std::this_thread::yield();
  EXPECT_EQ(svc.info(id).state, InstanceState::Running);
  EXPECT_EQ(svc.info(id).step, 1);

  // Pause #1 takes the direct path and blocks in the subscriber.
  std::thread p1([&] { svc.pause(id); });
  while (!in_pause_push.load()) std::this_thread::yield();
  // Pause #2 finds the instance leased and raises the mid-slice park flags
  // (pending_pause + interrupt) that pause #1's direct park must clear.
  std::thread p2([&] { svc.pause(id); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  release_push.store(true);
  p1.join();
  p2.join();
  decoy_gate->store(true);
  EXPECT_EQ(svc.info(id).state, InstanceState::Paused);

  // Stale flags would re-park the next run at its current step with zero
  // progress made toward the target.
  svc.start(id, 6);
  svc.waitIdle();
  const InstanceInfo info = svc.info(id);
  EXPECT_EQ(info.state, InstanceState::Paused) << info.last_error;
  EXPECT_EQ(info.step, 6);
}

// ---------------------------------------------------------------------------
// ROI queries and archive
// ---------------------------------------------------------------------------

TEST(ServiceRoi, MatchesDirectDepositAndLeavesTrajectoryUntouched) {
  const SimulationConfig cfg = quietConfig();
  ServiceConfig scfg;
  scfg.n_workers = 2;
  ScenarioService svc(scfg);

  const InstanceId id = svc.create({"roi", instanceIc(4), cfg, nullptr});
  svc.start(id, 5);
  svc.waitIdle();
  const Snapshot before = svc.latestSnapshot(id);
  ASSERT_TRUE(before.bytes);

  asura::voxel::RoiSpec spec;
  spec.center = {0.5, -0.25, 0.0};
  spec.box_size = 8.0;
  spec.grid_n = 12;
  asura::voxel::VoxelParams params;
  const auto roi = svc.queryRoi(id, spec, params);
  EXPECT_EQ(roi.step, 5);
  EXPECT_EQ(roi.grid.n, spec.grid_n);
  EXPECT_EQ(roi.grid.box_size, spec.box_size);

  // Reference: the same projection straight off the snapshot's particles.
  Simulation ref(std::vector<Particle>{}, cfg);
  asura::io::ByteReader r(before.bytes->data(), before.bytes->size());
  ref.restoreState(r);
  const asura::sph::Kernel kernel{};
  const auto direct =
      asura::voxel::projectRoi(ref.particles(), spec, params, kernel);
  EXPECT_EQ(roi.grid.rho, direct.rho);
  EXPECT_EQ(roi.grid.temp, direct.temp);
  EXPECT_EQ(roi.grid.vx, direct.vx);
  EXPECT_EQ(roi.grid.vy, direct.vy);
  EXPECT_EQ(roi.grid.vz, direct.vz);

  // Repeated queries are pure; the trajectory is untouched by querying.
  const auto roi2 = svc.queryRoi(id, spec, params);
  EXPECT_EQ(roi.grid.rho, roi2.grid.rho);
  svc.start(id, 10);
  svc.waitIdle();
  const Snapshot after = svc.latestSnapshot(id);
  ASSERT_TRUE(after.bytes);
  EXPECT_EQ(*after.bytes, soloBytes(instanceIc(4), cfg, 10));

  EXPECT_THROW(
      svc.queryRoi(id, asura::voxel::RoiSpec{{}, -1.0, 8}, params),
      std::invalid_argument);
}

TEST(ServiceArchive, WritesRestorableCheckpointAndStaysClonable) {
  const SimulationConfig cfg = quietConfig();
  ServiceConfig scfg;
  scfg.n_workers = 2;
  ScenarioService svc(scfg);

  const InstanceId id = svc.create({"arch", instanceIc(5), cfg, nullptr});
  svc.start(id, 7);
  svc.waitIdle();

  const std::string path = tmpPath("service_archive.ckpt");
  svc.archive(id, path);
  EXPECT_EQ(svc.info(id).state, InstanceState::Archived);

  // The archive file is an ordinary checkpoint: inspectable and restorable.
  const auto inspection = asura::io::inspectCheckpoint(path);
  EXPECT_TRUE(inspection.header_crc_ok);
  EXPECT_FALSE(inspection.truncated);
  ASSERT_EQ(inspection.sections.size(), 1u);
  EXPECT_TRUE(inspection.sections[0].ok);
  EXPECT_EQ(inspection.info.step, 7);

  Simulation restored(std::vector<Particle>{}, cfg);
  asura::io::restoreCheckpoint(path, restored);
  EXPECT_EQ(restored.stepCount(), 7);
  EXPECT_EQ(stateBytes(restored), soloBytes(instanceIc(5), cfg, 7));

  // The final ring snapshot outlives the live Simulation: clones still work.
  const InstanceId next = svc.clone(id, "resurrected");
  svc.start(next, 12);
  svc.waitIdle();
  const Snapshot snap = svc.latestSnapshot(next);
  ASSERT_TRUE(snap.bytes);
  EXPECT_EQ(*snap.bytes, soloBytes(instanceIc(5), cfg, 12));
  std::remove(path.c_str());
}

}  // namespace
