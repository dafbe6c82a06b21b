// Robustness tests: graceful surrogate degradation (contract-violating or
// throwing backends fall back per-region to the Sedov oracle, visible in
// StepStats and exactly conservative), degenerate SN-region captures (empty
// region, all-ghost region, migration mid-campaign), config validation at
// step entry, and the post-step run-integrity validator with its post-mortem
// checkpoint.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/distributed.hpp"
#include "core/pool.hpp"
#include "core/simulation.hpp"
#include "core/surrogate.hpp"
#include "ic_fixtures.hpp"
#include "io/checkpoint.hpp"
#include "io/particle_codec.hpp"
#include "io/serialize.hpp"
#include "kernels/registry.hpp"
#include "tmp_path.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::core::blockPartition;
using asura::core::DistributedConfig;
using asura::core::DistributedEngine;
using asura::core::PoolNodeScheduler;
using asura::core::SedovOracleBackend;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::core::SurrogateBackend;
using asura::core::ValidationError;
using asura::fdps::Particle;
using asura::fdps::Species;
using asura::testing::blastwaveIc;
using asura::testing::gasBall;
using asura::testing::tmpPath;
using asura::util::Vec3d;

SimulationConfig campaignConfig() {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = true;
  cfg.return_interval = 2;
  cfg.n_pool_nodes = 1;
  cfg.sn_box_size = 10.0;
  cfg.sph.n_ngb = 24;
  cfg.dt_global = 0.005;
  return cfg;
}

/// A primary backend that always violates the prediction contract (NaN
/// internal energy on the first particle) or always throws, counting calls.
class FaultyBackend final : public SurrogateBackend {
 public:
  enum class Mode { CorruptOutput, Throw };
  explicit FaultyBackend(Mode mode) : mode_(mode) {}

  [[nodiscard]] std::vector<Particle> predict(std::vector<Particle> region,
                                              const Vec3d&, double,
                                              double) override {
    ++calls_;
    if (mode_ == Mode::Throw) throw std::runtime_error("surrogate exploded");
    if (!region.empty()) region[0].u = std::numeric_limits<double>::quiet_NaN();
    return region;
  }
  [[nodiscard]] std::string name() const override { return "faulty"; }
  [[nodiscard]] int calls() const { return calls_.load(); }

 private:
  Mode mode_;
  std::atomic<int> calls_{0};
};

std::vector<char> stateBytes(Simulation& sim) {
  asura::io::ByteWriter w;
  sim.serializeState(w);
  return w.take();
}

/// Every field of a particle set, as the checkpoint codec encodes it.
std::vector<char> regionBytes(const std::vector<Particle>& region) {
  asura::io::ByteWriter w;
  w(region);
  return w.take();
}

/// id multiset + per-id bitwise mass of a particle set.
std::vector<std::pair<std::uint64_t, double>> idMassSet(
    const std::vector<Particle>& parts, std::size_t n) {
  std::vector<std::pair<std::uint64_t, double>> v;
  for (std::size_t i = 0; i < n; ++i) v.emplace_back(parts[i].id, parts[i].mass);
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------------------

TEST(Robustness, ContractViolationFallsBackToOracleBitwise) {
  // Primary backend produces NaN predictions; every job must degrade to the
  // SedovOracleBackend fallback. Since the oracle is stateless and
  // deterministic, the degraded run's final state must be *bitwise* the
  // state of a run whose primary backend was the oracle all along.
  const auto ic = blastwaveIc(250, 23);
  const SimulationConfig cfg = campaignConfig();

  Simulation oracle_run(ic, cfg);  // default primary: SedovOracleBackend
  int replaced_ref = 0;
  for (int s = 0; s < 4; ++s) replaced_ref += oracle_run.step().particles_replaced;
  ASSERT_GT(replaced_ref, 0);

  auto faulty = std::make_shared<FaultyBackend>(FaultyBackend::Mode::CorruptOutput);
  Simulation degraded_run(ic, cfg, faulty);
  int replaced = 0, fallbacks = 0;
  for (int s = 0; s < 4; ++s) {
    const auto st = degraded_run.step();
    replaced += st.particles_replaced;
    fallbacks += st.surrogate_fallbacks;
  }
  EXPECT_GT(faulty->calls(), 0) << "primary backend was never exercised";
  EXPECT_GT(fallbacks, 0) << "degradation invisible in StepStats";
  EXPECT_EQ(degraded_run.pool()->jobsFallback(), 1u);
  EXPECT_EQ(degraded_run.pool()->jobsFailed(), 0u);  // the oracle rescued it
  EXPECT_GT(degraded_run.pool()->jobsRetried(), 0u);
  EXPECT_EQ(replaced, replaced_ref);
  EXPECT_EQ(stateBytes(degraded_run), stateBytes(oracle_run))
      << "fallback prediction diverged from the oracle reference";
}

TEST(Robustness, ThrowingBackendFallsBackAndConserves) {
  const auto ic = blastwaveIc(250, 29);
  const SimulationConfig cfg = campaignConfig();
  const auto before = idMassSet(ic, ic.size());

  auto faulty = std::make_shared<FaultyBackend>(FaultyBackend::Mode::Throw);
  Simulation sim(ic, cfg, faulty);
  int fallbacks = 0;
  for (int s = 0; s < 4; ++s) fallbacks += sim.step().surrogate_fallbacks;
  EXPECT_GT(fallbacks, 0);

  // Mass/id conservation across the degraded prediction: same id multiset,
  // bitwise-identical per-id masses, nothing left frozen.
  EXPECT_EQ(idMassSet(sim.particles(), sim.nLocal()), before);
  for (std::size_t i = 0; i < sim.nLocal(); ++i) {
    EXPECT_EQ(sim.particles()[i].frozen, 0) << "particle stayed frozen";
  }
}

TEST(Robustness, IdentityLastResortWhenFallbackDisabled) {
  const auto ic = blastwaveIc(250, 31);
  const SimulationConfig cfg = campaignConfig();
  auto faulty = std::make_shared<FaultyBackend>(FaultyBackend::Mode::Throw);
  Simulation sim(ic, cfg, faulty);
  sim.pool()->setFallbackBackend(nullptr);  // disable the oracle rescue
  const auto before = idMassSet(ic, ic.size());
  int fallbacks = 0;
  for (int s = 0; s < 4; ++s) fallbacks += sim.step().surrogate_fallbacks;
  // The identity result unfreezes the region unchanged: trivially
  // conservative, counted as both a fallback and a failure.
  EXPECT_GT(fallbacks, 0);
  EXPECT_EQ(sim.pool()->jobsFailed(), 1u);
  EXPECT_EQ(idMassSet(sim.particles(), sim.nLocal()), before);
  for (std::size_t i = 0; i < sim.nLocal(); ++i) {
    EXPECT_EQ(sim.particles()[i].frozen, 0);
  }
}

TEST(Robustness, FailedBatchKeepsGoodJobsOnPrimary) {
  // The primary throws for one poison region and answers the others with a
  // valid prediction the oracle would not give (doubled u). Its default
  // predictBatch throws whenever a batch holds the poison region, so every
  // job of that batch is retried on its own: the good ones must come back
  // from the primary, bitwise, and only the poison job from the oracle.
  class PoisonBackend final : public SurrogateBackend {
   public:
    explicit PoisonBackend(std::shared_future<void> gate) : gate_(std::move(gate)) {}
    [[nodiscard]] std::vector<Particle> predict(std::vector<Particle> region,
                                                const Vec3d& sn_pos, double,
                                                double) override {
      if (sn_pos.x == 0.0) gate_.wait();
      if (sn_pos.x == 1.0) throw std::runtime_error("poison region");
      for (auto& p : region) p.u *= 2.0;
      return region;
    }
    [[nodiscard]] std::string name() const override { return "poison"; }

   private:
    std::shared_future<void> gate_;
  };

  // Job 0 holds the lone worker until every job is queued, so the poison
  // job 1 always shares a batch with at least one good job.
  std::promise<void> open;
  auto primary = std::make_shared<PoisonBackend>(open.get_future().share());
  PoolNodeScheduler pool(primary, 1, 2);
  pool.setFallbackBackend(std::make_shared<SedovOracleBackend>());

  constexpr int kJobs = 4;
  constexpr double kEnergy = 1.0, kHorizon = 0.1;
  std::vector<std::vector<Particle>> regions;
  for (int j = 0; j < kJobs; ++j) {
    regions.push_back(gasBall(50, 6.0, 10.0, static_cast<std::uint64_t>(80 + j)));
    pool.submit(0, regions.back(), Vec3d{static_cast<double>(j), 0, 0}, kEnergy,
                kHorizon);
  }
  open.set_value();
  const auto out = pool.collectDue(2);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kJobs));

  for (int j = 0; j < kJobs; ++j) {
    const Vec3d pos{static_cast<double>(j), 0, 0};
    const auto expected =
        j == 1 ? SedovOracleBackend().predict(regions[j], pos, kEnergy, kHorizon)
               : primary->predict(regions[j], pos, kEnergy, kHorizon);
    EXPECT_EQ(regionBytes(out[j]), regionBytes(expected)) << "job " << j;
  }
  EXPECT_EQ(pool.jobsFallback(), 1u);
  EXPECT_EQ(pool.jobsFailed(), 0u);
  EXPECT_GE(pool.jobsRetried(), 1u);
}

TEST(Robustness, ThrowingFallbackEndsInIdentity) {
  // Primary and fallback both throw: the job ends in the identity
  // prediction, its input region unchanged, counted as a failure.
  PoolNodeScheduler pool(
      std::make_shared<FaultyBackend>(FaultyBackend::Mode::Throw), 1, 2);
  auto fallback = std::make_shared<FaultyBackend>(FaultyBackend::Mode::Throw);
  pool.setFallbackBackend(fallback);

  const auto ic = blastwaveIc(50, 71);
  pool.submit(0, ic, Vec3d{0, 0, 0}, 1.0, 0.1);
  const auto out = pool.collectDue(2);
  ASSERT_EQ(out.size(), 1u);

  EXPECT_EQ(fallback->calls(), 1);
  EXPECT_EQ(pool.jobsFailed(), 1u);  // identity last resort
  EXPECT_EQ(regionBytes(out[0]), regionBytes(ic));
}

// ---------------------------------------------------------------------------
// Degenerate SN-region captures
// ---------------------------------------------------------------------------

TEST(Robustness, EmptyCaptureRegionIsHarmless) {
  // The progenitor sits far outside the gas ball with a small capture box:
  // the captured region is empty. The campaign must neither crash nor
  // freeze/replace anything.
  auto ic = gasBall(200, 6.0, 10.0, 37, 100.0);
  Particle star;
  star.id = 900000;
  star.type = Species::Star;
  star.mass = 20.0;
  star.star_mass = 20.0;
  star.pos = {50.0, 50.0, 50.0};
  star.t_sn = 1e-9;
  star.eps = 0.5;
  ic.push_back(star);

  SimulationConfig cfg = campaignConfig();
  cfg.sn_box_size = 2.0;
  Simulation sim(ic, cfg);
  int replaced = 0;
  for (int s = 0; s < 4; ++s) replaced += sim.step().particles_replaced;
  EXPECT_EQ(replaced, 0);
  EXPECT_EQ(sim.particles().size(), ic.size());
  for (const auto& p : sim.particles()) EXPECT_EQ(p.frozen, 0);
}

TEST(Robustness, AllGhostRegionCapturedFromPeerRank) {
  // Gas ball shifted to +x, progenitor alone at -x: after multisection the
  // star's rank owns (almost) no gas in the capture box — the region is
  // assembled essentially entirely from the peer's particles. Capture,
  // freeze and replacement must still be exact.
  auto ic = gasBall(300, 5.0, 10.0, 41, 100.0);
  for (auto& p : ic) p.pos.x += 8.0;
  Particle star;
  star.id = 900000;
  star.type = Species::Star;
  star.mass = 20.0;
  star.star_mass = 20.0;
  star.pos = {-2.0, 0.0, 0.0};
  star.t_sn = 1e-9;
  star.eps = 0.5;
  ic.push_back(star);

  SimulationConfig cfg = campaignConfig();
  cfg.sn_box_size = 30.0;  // reaches deep into the gas from the star

  // Serial reference: capture footprint of the same IC.
  Simulation ref(ic, cfg);
  ref.step();
  int frozen_serial = 0;
  for (const auto& p : ref.particles()) frozen_serial += p.frozen;
  ASSERT_GT(frozen_serial, 0);

  constexpr int P = 2;
  Cluster cluster(P);
  std::atomic<int> frozen_total{0};
  std::atomic<int> replaced_total{0};
  std::atomic<int> frozen_end{0};
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    sim.attachDistributed(
        std::make_unique<DistributedEngine>(comm, DistributedConfig{}));
    sim.step();
    int frozen = 0;
    for (std::size_t i = 0; i < sim.nLocal(); ++i) {
      frozen += sim.particles()[i].frozen;
    }
    frozen_total += frozen;
    for (int s = 0; s < 3; ++s) replaced_total += sim.step().particles_replaced;
    for (std::size_t i = 0; i < sim.nLocal(); ++i) {
      frozen_end += sim.particles()[i].frozen;
    }
  });
  EXPECT_EQ(frozen_total.load(), frozen_serial);
  EXPECT_EQ(replaced_total.load(), frozen_serial);
  EXPECT_EQ(frozen_end.load(), 0);
}

TEST(Robustness, MigrationBetweenCaptureAndReturnRoutesById) {
  // Bulk velocity sweeps particles across domain cuts between the capture
  // step and the return step: the prediction receive must route by id to
  // wherever each particle migrated — no loss, no double replacement.
  auto ic = blastwaveIc(300, 43);
  for (auto& p : ic) p.vel.x += 200.0;  // ~1 length unit per global step

  SimulationConfig cfg = campaignConfig();
  cfg.return_interval = 4;
  cfg.adaptive_timestep = false;  // keep the migration rate predictable

  Simulation ref(ic, cfg);
  ref.step();
  int frozen_serial = 0;
  for (const auto& p : ref.particles()) frozen_serial += p.frozen;
  ASSERT_GT(frozen_serial, 0);

  constexpr int P = 4;
  Cluster cluster(P);
  std::atomic<int> replaced_total{0};
  std::atomic<int> frozen_end{0};
  std::atomic<long> migrations{0};
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    sim.attachDistributed(
        std::make_unique<DistributedEngine>(comm, DistributedConfig{}));
    for (int s = 0; s < 6; ++s) {
      const auto st = sim.step();
      replaced_total += st.particles_replaced;
      if (comm.rank() == 0) migrations += st.migrated;  // already global
    }
    for (std::size_t i = 0; i < sim.nLocal(); ++i) {
      frozen_end += sim.particles()[i].frozen;
    }
  });
  EXPECT_EQ(replaced_total.load(), frozen_serial) << "prediction lost or duplicated";
  EXPECT_EQ(frozen_end.load(), 0);
  EXPECT_GT(migrations.load(), 0) << "fixture failed to move anyone across a cut";
}

// ---------------------------------------------------------------------------
// Config validation at step entry
// ---------------------------------------------------------------------------

TEST(Robustness, ConfigValidationRejectsBadValues) {
  const auto ic = gasBall(50, 5.0, 1.0, 3, 3000.0);
  const auto expectRejected = [&](auto&& mutate, const std::string& label) {
    Simulation sim(ic, campaignConfig());
    mutate(sim.config());
    EXPECT_THROW(sim.step(), std::invalid_argument) << label;
  };
  expectRejected([](SimulationConfig& c) { c.dt_global = 0.0; }, "zero dt");
  expectRejected([](SimulationConfig& c) { c.dt_global = -1.0; }, "negative dt");
  expectRejected(
      [](SimulationConfig& c) {
        c.dt_global = std::numeric_limits<double>::infinity();
      },
      "infinite dt");
  expectRejected([](SimulationConfig& c) { c.sn_box_size = -30.0; },
                 "negative box");
  expectRejected([](SimulationConfig& c) { c.surrogate_horizon = 0.0; },
                 "zero horizon");
  expectRejected([](SimulationConfig& c) { c.return_interval = 0; },
                 "zero return interval");
  expectRejected([](SimulationConfig& c) { c.sph.n_ngb = 0; }, "zero n_ngb");
  expectRejected([](SimulationConfig& c) { c.max_rung = -1; }, "negative rung");
  expectRejected([](SimulationConfig& c) { c.gravity.theta = -0.5; },
                 "negative theta");
  expectRejected([](SimulationConfig& c) { c.n_pool_nodes = 0; },
                 "zero pool nodes");
  expectRejected([](SimulationConfig& c) { c.n_pool_nodes = -4; },
                 "negative pool nodes");

  // A healthy config still steps after all the rejected attempts above.
  Simulation ok(ic, campaignConfig());
  EXPECT_NO_THROW(ok.step());
}

TEST(Robustness, PinnedUnavailableIsaRejected) {
  using asura::pikg::Isa;
  // Find an ISA the host cannot execute (resolveIsa would clamp it down).
  Isa unavailable = Isa::Auto;
  for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
    if (asura::pikg::resolveIsa(isa) != isa) {
      unavailable = isa;
      break;
    }
  }
  if (unavailable == Isa::Auto) {
    GTEST_SKIP() << "host executes every generated backend";
  }
  // Either per-pass field is checked on its own, before the step does any
  // work.
  const auto ic = gasBall(50, 5.0, 1.0, 3, 3000.0);
  for (const bool gravity : {true, false}) {
    Simulation sim(ic, campaignConfig());
    (gravity ? sim.config().gravity.isa : sim.config().sph.isa) = unavailable;
    try {
      sim.step();
      ADD_FAILURE() << (gravity ? "gravity" : "sph") << ".isa pin accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(gravity ? "gravity.isa" : "sph.isa"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(sim.stepCount(), 0);
  }
}

// ---------------------------------------------------------------------------
// Post-step run-integrity validator
// ---------------------------------------------------------------------------

TEST(Robustness, ValidatorTripsOnMassDriftAndWritesPostMortem) {
  const auto ic = gasBall(150, 5.0, 1.0, 47, 3000.0);
  SimulationConfig cfg = campaignConfig();
  cfg.use_surrogate = false;
  cfg.validate_steps = true;
  const std::string path = tmpPath("postmortem.bin");
  cfg.abort_checkpoint_path = path;

  Simulation sim(ic, cfg);
  sim.step();  // captures the conservation baselines
  sim.particles()[0].mass *= 2.0;  // corruption no step operation can cause
  try {
    sim.step();
    FAIL() << "validator missed a doubled particle mass";
  } catch (const ValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("mass"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("post-mortem"), std::string::npos)
        << e.what();
  }
  // The post-mortem checkpoint is a valid file capturing the failed step.
  const auto insp = asura::io::inspectCheckpoint(path);
  EXPECT_TRUE(insp.ok()) << insp.defect;
  EXPECT_EQ(insp.info.nranks, 1);
  EXPECT_EQ(insp.info.step, 1);
  std::remove(path.c_str());
}

TEST(Robustness, ValidatorPassesCleanRuns) {
  const auto ic = blastwaveIc(200, 53);
  SimulationConfig cfg = campaignConfig();
  cfg.validate_steps = true;
  Simulation sim(ic, cfg);
  // A full SN campaign (capture, freeze, replace) conserves everything the
  // validator checks: no false positives allowed.
  for (int s = 0; s < 5; ++s) EXPECT_NO_THROW(sim.step());
}

TEST(Robustness, ValidatorTripsCollectivelyAcrossRanks) {
  // Only rank 1's state is corrupted, but the trip decision is collective:
  // every rank must unwind with ValidationError instead of rank 0 blocking
  // forever in the next step's collectives.
  const auto ic = gasBall(200, 5.0, 1.0, 59, 3000.0);
  SimulationConfig cfg = campaignConfig();
  cfg.use_surrogate = false;
  cfg.validate_steps = true;
  constexpr int P = 2;
  Cluster cluster(P);
  std::atomic<int> validation_errors{0};
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    sim.attachDistributed(
        std::make_unique<DistributedEngine>(comm, DistributedConfig{}));
    sim.step();
    if (comm.rank() == 1 && sim.nLocal() > 0) sim.particles()[0].mass *= 2.0;
    try {
      sim.step();
    } catch (const ValidationError&) {
      ++validation_errors;
    }
  });
  EXPECT_EQ(validation_errors.load(), P) << "trip was not collective";
}

}  // namespace
