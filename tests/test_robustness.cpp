// Robustness tests: graceful surrogate degradation (contract-violating or
// throwing backends fall back per-region to the Sedov oracle, visible in
// StepStats and exactly conservative), degenerate SN-region captures (empty
// region, all-ghost region, migration mid-campaign), config validation at
// step entry, and the post-step run-integrity validator with its post-mortem
// checkpoint.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>
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
#include "io/serialize.hpp"
#include "kernels/registry.hpp"
#include "ml/unet.hpp"
#include "util/deadline.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::core::blockPartition;
using asura::core::DistributedConfig;
using asura::core::DistributedEngine;
using asura::core::SedovOracleBackend;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::core::SurrogateBackend;
using asura::core::ValidationError;
using asura::fdps::Particle;
using asura::fdps::Species;
using asura::testing::blastwaveIc;
using asura::testing::gasBall;
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
  sim.pool()->setRetryBudget(0);
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

TEST(Robustness, JobTimeoutOverrunsAreRecorded) {
  // A backend that never polls checkJobDeadline cannot be preempted, so an
  // overrun is recorded when the call returns — in jobsOverrun, NOT in
  // jobsTimedOut: the attempt completed and its (valid) result was used.
  // The pre-fix code booked these slow successes as timeouts, so the
  // "cancelled attempts" counter could exceed the number of attempts.
  class SlowBackend final : public SurrogateBackend {
   public:
    [[nodiscard]] std::vector<Particle> predict(std::vector<Particle> region,
                                                const Vec3d& sn_pos, double e,
                                                double h) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return oracle_.predict(std::move(region), sn_pos, e, h);
    }
    [[nodiscard]] std::string name() const override { return "slow"; }

   private:
    SedovOracleBackend oracle_;
  };

  const auto ic = blastwaveIc(250, 61);
  Simulation sim(ic, campaignConfig(), std::make_shared<SlowBackend>());
  sim.pool()->setJobTimeout(1e-4);  // 0.1 ms: the 5 ms sleep always overruns
  for (int s = 0; s < 4; ++s) sim.step();
  EXPECT_GT(sim.pool()->jobsOverrun(), 0u);
  EXPECT_EQ(sim.pool()->jobsTimedOut(), 0u);  // nothing was cancelled...
  EXPECT_EQ(sim.pool()->jobsRetried(), 0u);   // ...or re-run
  EXPECT_EQ(sim.pool()->jobsFallback(), 0u);  // the slow result was used
  EXPECT_EQ(sim.pool()->jobsFailed(), 0u);    // slow is not wrong
}

TEST(Robustness, CooperativeTimeoutCancelsPollingBackend) {
  // A backend that polls util::checkJobDeadline() is *cancelled* mid-job,
  // not merely recorded after the fact: without cancellation this backend
  // holds its worker for 2 s per attempt; with it, each attempt dies at the
  // ~50 ms deadline and the job degrades to the oracle fallback.
  class StuckBackend final : public SurrogateBackend {
   public:
    [[nodiscard]] std::vector<Particle> predict(std::vector<Particle> region,
                                                const Vec3d&, double,
                                                double) override {
      for (int i = 0; i < 2000; ++i) {  // 2 s unless cancelled
        asura::util::checkJobDeadline();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return region;
    }
    [[nodiscard]] std::string name() const override { return "stuck"; }
  };

  const auto ic = blastwaveIc(250, 67);
  Simulation sim(ic, campaignConfig(), std::make_shared<StuckBackend>());
  sim.pool()->setJobTimeout(0.05);
  sim.pool()->setRetryBudget(1);

  const auto t0 = std::chrono::steady_clock::now();
  int replaced = 0, fallbacks = 0;
  for (int s = 0; s < 4; ++s) {
    const auto st = sim.step();
    replaced += st.particles_replaced;
    fallbacks += st.surrogate_fallbacks;
  }
  const std::chrono::duration<double> el = std::chrono::steady_clock::now() - t0;

  EXPECT_GT(sim.pool()->jobsTimedOut(), 0u) << "cancellation never fired";
  EXPECT_GT(fallbacks, 0) << "cancelled job did not degrade";
  EXPECT_EQ(sim.pool()->jobsFailed(), 0u);  // the oracle rescued it
  // The fast oracle fallback never overran: primary cancellations must not
  // bleed into the fallback's own counter (they did before the fix).
  EXPECT_EQ(sim.pool()->jobsFallbackTimedOut(), 0u);
  EXPECT_GT(replaced, 0);
  // Two cancelled attempts are ~0.1 s; the uncancelled backend alone would
  // burn 4 s. Generous bound to absorb sanitizer slowdowns.
  EXPECT_LT(el.count(), 1.9) << "timeout did not actually preempt the job";
}

TEST(Robustness, FallbackCancellationsCountSeparately) {
  // A cancelled FALLBACK attempt must land in jobsFallbackTimedOut, not in
  // the primary's jobsTimedOut — pre-fix both shared one counter, so a slow
  // degradation ladder masqueraded as a slow primary.
  class StuckBackend final : public SurrogateBackend {
   public:
    [[nodiscard]] std::vector<Particle> predict(std::vector<Particle> region,
                                                const Vec3d&, double,
                                                double) override {
      for (int i = 0; i < 2000; ++i) {
        asura::util::checkJobDeadline();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return region;
    }
    [[nodiscard]] std::string name() const override { return "stuck"; }
  };

  asura::core::PoolNodeScheduler pool(
      std::make_shared<FaultyBackend>(FaultyBackend::Mode::Throw), 1, 2);
  pool.setFallbackBackend(std::make_shared<StuckBackend>());
  pool.setRetryBudget(0);
  pool.setJobTimeout(0.05);

  const auto ic = blastwaveIc(50, 71);
  pool.submit(0, ic, Vec3d{0, 0, 0}, 1.0, 0.1);
  const auto out = pool.collectDue(2);
  ASSERT_EQ(out.size(), 1u);

  EXPECT_EQ(pool.jobsFallbackTimedOut(), 1u);  // the cancelled fallback
  EXPECT_EQ(pool.jobsTimedOut(), 0u);  // the primary threw, was never cancelled
  EXPECT_EQ(pool.jobsFailed(), 1u);    // identity last resort
  EXPECT_EQ(out[0].size(), ic.size());  // identity = input region unchanged
}

TEST(Robustness, UNetForwardHonorsJobDeadline) {
  asura::ml::UNetConfig ucfg;
  ucfg.in_channels = 2;
  ucfg.out_channels = 2;
  ucfg.base_width = 2;
  asura::ml::UNet3D net(ucfg, 5);
  asura::ml::Tensor x({2, 4, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = 0.25f;

  // No deadline armed: checks are free and forward runs to completion.
  EXPECT_NO_THROW((void)net.forward(x));

  // Expired deadline: the first between-stage check aborts the inference.
  asura::util::JobDeadlineScope scope(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_THROW((void)net.forward(x), asura::util::DeadlineExceeded);
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
  expectRejected([](SimulationConfig& c) { c.eta_acc = 0.0; }, "zero eta");
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
  const std::string path = ::testing::TempDir() + "postmortem.bin";
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
