// Integration tests of the headline scheme: the pool-node scheduler's
// 50-step asynchronous cadence, surrogate backends' conservation contracts,
// the full 8-step loop (fixed dt vs CFL-collapsing conventional baseline),
// and diagnostics.

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numbers>
#include <set>
#include <string>

#include "core/pool.hpp"
#include "core/simulation.hpp"
#include "core/surrogate.hpp"
#include "galaxy/galaxy.hpp"
#include "util/units.hpp"

namespace {

using asura::core::PoolNodeScheduler;
using asura::core::SedovOracleBackend;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::fdps::Particle;
using asura::fdps::Species;
using asura::util::Pcg32;
using asura::util::Vec3d;

std::vector<Particle> gasBall(int n, double radius, double rho, std::uint64_t seed,
                              double T = 1.0e4) {
  Pcg32 rng(seed);
  std::vector<Particle> parts;
  const double total = 4.0 / 3.0 * std::numbers::pi * radius * radius * radius * rho;
  for (int i = 0; i < n; ++i) {
    Particle p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.type = Species::Gas;
    p.mass = total / n;
    p.pos = radius * std::cbrt(rng.uniform()) * rng.isotropic();
    p.u = asura::units::temperature_to_u(T, 0.6);
    p.rho = rho;
    p.h = radius * 0.2;
    p.eps = 0.05 * radius;
    parts.push_back(p);
  }
  return parts;
}

// ---------------------------------------------------------------------------
// Pool scheduler
// ---------------------------------------------------------------------------

TEST(Pool, ResultsArriveExactlyAfterReturnInterval) {
  PoolNodeScheduler pool(std::make_shared<asura::core::NullBackend>(), 2, 50);
  auto region = gasBall(10, 5.0, 1.0, 1);
  pool.submit(/*step=*/0, region, {0, 0, 0}, asura::units::E_SN, 0.1);

  EXPECT_TRUE(pool.collectDue(49).empty());          // not due yet
  const auto due = pool.collectDue(50);              // exactly 50 steps later
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].size(), region.size());
  EXPECT_TRUE(pool.collectDue(51).empty());          // delivered once
  EXPECT_EQ(pool.jobsCompleted(), 1u);
}

TEST(Pool, ManyConcurrentJobsAllComeBack) {
  PoolNodeScheduler pool(std::make_shared<SedovOracleBackend>(), 4, 10);
  for (int s = 0; s < 20; ++s) {
    pool.submit(s, gasBall(50, 10.0, 1.0, static_cast<std::uint64_t>(s)), {0, 0, 0},
                asura::units::E_SN, 0.1);
  }
  std::size_t received = 0;
  for (int s = 0; s <= 30; ++s) received += pool.collectDue(s).size();
  EXPECT_EQ(received, 20u);
  EXPECT_EQ(pool.pendingJobs(), 0);
}

TEST(Pool, ZeroPoolNodesStillDrainsJobs) {
  // Regression: constructed with n_pool_nodes == 0 the scheduler used to
  // spawn no workers at all, so a submitted job sat in the queue forever
  // and collectDue — which waits for every due job to leave the queue —
  // deadlocked on the first SN. The pool now clamps to >= 1 worker.
  PoolNodeScheduler pool(std::make_shared<asura::core::NullBackend>(), 0, 3);
  EXPECT_GE(pool.poolNodes(), 1);
  auto region = gasBall(8, 5.0, 1.0, 21);
  pool.submit(/*step=*/0, region, {0, 0, 0}, asura::units::E_SN, 0.1);
  const auto due = pool.collectDue(3);  // pre-fix: hangs here forever
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].size(), region.size());
}

TEST(Pool, PredictionRunsWhileCallerWorks) {
  // The overlap property: submit, do "integration" work, and observe the
  // backend completed in the background before collect time.
  PoolNodeScheduler pool(std::make_shared<SedovOracleBackend>(), 2, 5);
  pool.submit(0, gasBall(2000, 20.0, 1.0, 3), {0, 0, 0}, asura::units::E_SN, 0.1);
  // Busy-wait on the completion counter (worker thread runs concurrently).
  for (int spin = 0; spin < 10000 && pool.jobsCompleted() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(pool.jobsCompleted(), 1u);
  EXPECT_EQ(pool.collectDue(5).size(), 1u);
}

TEST(Pool, SnapshotOrderStableForTiedPendings) {
  // Regression for the checkpoint tie-break: equal-release pendings used to
  // be sorted by their first particle id, with 0 for EMPTY regions — two
  // drained empty-region predictions at one release step then compared
  // equal and kept scheduling-dependent order. The snapshot now keys on the
  // (release_step, job_id) pair, which is unique by construction, so the
  // order is the submission order however workers interleaved.
  for (int round = 0; round < 10; ++round) {
    PoolNodeScheduler pool(std::make_shared<asura::core::NullBackend>(), 4, 5);
    for (int j = 0; j < 4; ++j) {
      pool.submit(0, {}, {0, 0, 0}, asura::units::E_SN, 0.1);  // empty regions
    }
    const auto pending = pool.snapshotResults();
    ASSERT_EQ(pending.size(), 4u);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      EXPECT_EQ(pending[i].release_step, 5);
      EXPECT_EQ(pending[i].job_id, i + 1) << "round " << round;
      EXPECT_TRUE(pending[i].region.empty());
    }
  }
}

TEST(Pool, RestoreRoundTripsJobIdsAndCounter) {
  PoolNodeScheduler pool(std::make_shared<asura::core::NullBackend>(), 1, 5);
  std::vector<PoolNodeScheduler::PendingResult> pending;
  pending.push_back({7, 3, gasBall(5, 5.0, 1.0, 41)});
  pending.push_back({7, 6, {}});
  pool.restoreResults(pending, /*next_job_id=*/9);

  const auto again = pool.snapshotResults();
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].job_id, 3u);
  EXPECT_EQ(again[1].job_id, 6u);
  EXPECT_EQ(pool.nextJobId(), 9u);  // the resumed run continues the sequence
}

// ---------------------------------------------------------------------------
// Surrogate backends
// ---------------------------------------------------------------------------

TEST(Backends, MassConservationContract) {
  auto region = gasBall(300, 20.0, 1.0, 5);
  double m_in = 0.0;
  for (const auto& p : region) m_in += p.mass;

  SedovOracleBackend oracle;
  const auto out = oracle.predict(region, {0, 0, 0}, asura::units::E_SN, 0.1);
  ASSERT_EQ(out.size(), region.size());
  double m_out = 0.0;
  for (const auto& p : out) m_out += p.mass;
  EXPECT_DOUBLE_EQ(m_in, m_out);

  asura::ml::UNetConfig ucfg;
  ucfg.base_width = 2;
  asura::voxel::VoxelParams vp;
  vp.grid_n = 16;
  asura::core::UNetSurrogateBackend unet(ucfg, vp);
  const auto out2 = unet.predict(region, {0, 0, 0}, asura::units::E_SN, 0.1);
  ASSERT_EQ(out2.size(), region.size());
  double m_out2 = 0.0;
  for (const auto& p : out2) m_out2 += p.mass;
  EXPECT_DOUBLE_EQ(m_in, m_out2);
}

TEST(Backends, UNetPredictionsAreJobDeterministic) {
  // Regression for the shared-rng race: predict() used to advance one
  // member Pcg32, so (a) a job's output depended on how many jobs ran
  // before it, and (b) concurrent pool workers mutated the generator
  // unlocked. Sampling now derives a per-job stream from the region ids
  // and SN position: repeating a job must reproduce it bitwise.
  asura::ml::UNetConfig ucfg;
  ucfg.base_width = 2;
  asura::voxel::VoxelParams vp;
  vp.grid_n = 16;
  asura::core::UNetSurrogateBackend unet(ucfg, vp);

  const auto region_a = gasBall(120, 20.0, 1.0, 31);
  const auto region_b = gasBall(150, 20.0, 2.0, 32);
  const auto first = unet.predict(region_a, {0, 0, 0}, asura::units::E_SN, 0.1);
  (void)unet.predict(region_b, {1, 2, 3}, asura::units::E_SN, 0.1);
  const auto again = unet.predict(region_a, {0, 0, 0}, asura::units::E_SN, 0.1);
  ASSERT_EQ(first.size(), again.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].pos.x, again[i].pos.x);  // bitwise, not approximate
    EXPECT_EQ(first[i].u, again[i].u);
    EXPECT_EQ(first[i].vel.x, again[i].vel.x);
  }
}

TEST(Backends, UNetConcurrentPredictionsMatchSerial) {
  // ThreadSanitizer-friendly concurrency regression: many workers predict
  // on the one shared backend at once (exactly what PoolNodeScheduler does
  // with n_pool_nodes > 1). Under TSan the pre-fix shared Pcg32 reports a
  // data race; without TSan the scheduling-dependent sampling still breaks
  // the bitwise match against the serial reference.
  asura::ml::UNetConfig ucfg;
  ucfg.base_width = 2;
  asura::voxel::VoxelParams vp;
  vp.grid_n = 16;
  asura::core::UNetSurrogateBackend unet(ucfg, vp);

  constexpr int kJobs = 6;
  std::vector<std::vector<asura::fdps::Particle>> regions, serial(kJobs),
      concurrent(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    regions.push_back(gasBall(80 + 10 * j, 20.0, 1.0, 100 + j));
  }
  for (int j = 0; j < kJobs; ++j) {
    serial[j] = unet.predict(regions[j], {0, 0, 0}, asura::units::E_SN, 0.1);
  }
  std::vector<std::thread> workers;
  for (int j = 0; j < kJobs; ++j) {
    workers.emplace_back([&, j] {
      concurrent[j] = unet.predict(regions[j], {0, 0, 0}, asura::units::E_SN, 0.1);
    });
  }
  for (auto& w : workers) w.join();
  for (int j = 0; j < kJobs; ++j) {
    ASSERT_EQ(serial[j].size(), concurrent[j].size());
    for (std::size_t i = 0; i < serial[j].size(); ++i) {
      EXPECT_EQ(serial[j][i].pos.x, concurrent[j][i].pos.x) << "job " << j;
      EXPECT_EQ(serial[j][i].u, concurrent[j][i].u) << "job " << j;
    }
  }
}

TEST(Backends, PredictBatchBitwiseMatchesSequential) {
  // The tentpole contract: stacking regions along the tensor batch
  // dimension is a throughput optimization with NO observable effect —
  // every particle of every region must come back bitwise identical to a
  // lone predict() call. Empty regions ride along (identity, no batch slot).
  asura::ml::UNetConfig ucfg;
  ucfg.base_width = 2;
  asura::voxel::VoxelParams vp;
  vp.grid_n = 16;
  asura::core::UNetSurrogateBackend unet(ucfg, vp);

  std::vector<asura::core::SurrogateRequest> reqs;
  for (int j = 0; j < 5; ++j) {
    asura::core::SurrogateRequest rq;
    rq.region = j == 2 ? std::vector<Particle>{} : gasBall(60 + 15 * j, 20.0, 1.0,
                                                           static_cast<std::uint64_t>(200 + j));
    rq.sn_pos = {0.5 * j, 0.0, -0.25 * j};
    rq.energy = asura::units::E_SN;
    rq.horizon = 0.1;
    reqs.push_back(rq);
  }

  std::vector<std::vector<Particle>> sequential;
  for (const auto& rq : reqs) {
    sequential.push_back(unet.predict(rq.region, rq.sn_pos, rq.energy, rq.horizon));
  }
  const auto batched = unet.predictBatch(reqs);

  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t j = 0; j < batched.size(); ++j) {
    ASSERT_EQ(batched[j].size(), sequential[j].size()) << "job " << j;
    for (std::size_t i = 0; i < batched[j].size(); ++i) {
      EXPECT_EQ(batched[j][i].pos.x, sequential[j][i].pos.x) << "job " << j;
      EXPECT_EQ(batched[j][i].pos.y, sequential[j][i].pos.y) << "job " << j;
      EXPECT_EQ(batched[j][i].pos.z, sequential[j][i].pos.z) << "job " << j;
      EXPECT_EQ(batched[j][i].vel.x, sequential[j][i].vel.x) << "job " << j;
      EXPECT_EQ(batched[j][i].u, sequential[j][i].u) << "job " << j;
      EXPECT_EQ(batched[j][i].rho, sequential[j][i].rho) << "job " << j;
    }
  }
}

/// Forwards to `inner`, but holds every call until open(): the workers park
/// with the jobs they took while the submitting thread queues the rest, so
/// whether a worker finds two queued jobs does not depend on how the
/// workers race the submitter.
class GatedBackend final : public asura::core::SurrogateBackend {
 public:
  explicit GatedBackend(std::shared_ptr<asura::core::SurrogateBackend> inner)
      : inner_(std::move(inner)) {}

  void open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  std::vector<Particle> predict(std::vector<Particle> region, const Vec3d& sn_pos,
                                double energy, double horizon) override {
    waitOpen();
    return inner_->predict(std::move(region), sn_pos, energy, horizon);
  }
  std::vector<std::vector<Particle>> predictBatch(
      std::vector<asura::core::SurrogateRequest> requests) override {
    waitOpen();
    return inner_->predictBatch(std::move(requests));
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  void waitOpen() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return open_; });
  }

  std::shared_ptr<asura::core::SurrogateBackend> inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(Pool, BatchedSchedulerOutputMatchesSequential) {
  // End-to-end through the scheduler: a coalescing pool must deliver, in
  // submission order, the same bytes as one predict() call per region (the
  // backend's batching contract). The gate makes coalescing certain: when
  // it opens, either a parked call already holds two jobs, or the at most
  // four parked calls hold one each and five or more are still queued, so
  // the next worker takes an even share of at least two.
  asura::ml::UNetConfig ucfg;
  ucfg.base_width = 2;
  asura::voxel::VoxelParams vp;
  vp.grid_n = 16;
  auto backend = std::make_shared<asura::core::UNetSurrogateBackend>(ucfg, vp);
  auto gated = std::make_shared<GatedBackend>(backend);

  constexpr int kJobs = 9;
  std::vector<std::vector<Particle>> regions;
  for (int j = 0; j < kJobs; ++j) {
    regions.push_back(gasBall(40 + 10 * j, 20.0, 1.0,
                              static_cast<std::uint64_t>(300 + j)));
  }

  std::vector<std::vector<Particle>> sequential;
  for (const auto& region : regions) {
    sequential.push_back(backend->predict(region, {0, 0, 0}, asura::units::E_SN, 0.1));
  }

  PoolNodeScheduler pool(gated, 4, 4);
  for (const auto& region : regions) {
    pool.submit(0, region, {0, 0, 0}, asura::units::E_SN, 0.1);
  }
  gated->open();
  const auto batched = pool.collectDue(4);
  EXPECT_EQ(pool.jobsCompleted(), static_cast<std::uint64_t>(kJobs));
  EXPECT_GT(pool.jobsCoalesced(), 0u) << "batching never engaged";

  ASSERT_EQ(sequential.size(), static_cast<std::size_t>(kJobs));
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t j = 0; j < batched.size(); ++j) {
    ASSERT_EQ(batched[j].size(), sequential[j].size()) << "job " << j;
    for (std::size_t i = 0; i < batched[j].size(); ++i) {
      EXPECT_EQ(batched[j][i].pos.x, sequential[j][i].pos.x) << "job " << j;
      EXPECT_EQ(batched[j][i].vel.y, sequential[j][i].vel.y) << "job " << j;
      EXPECT_EQ(batched[j][i].u, sequential[j][i].u) << "job " << j;
    }
  }
}

TEST(Backends, UNetPipelineKeepsParticlesInBox) {
  auto region = gasBall(200, 25.0, 1.0, 6);
  asura::ml::UNetConfig ucfg;
  ucfg.base_width = 2;
  asura::voxel::VoxelParams vp;
  vp.grid_n = 16;
  asura::core::UNetSurrogateBackend unet(ucfg, vp);
  const auto out = unet.predict(region, {0, 0, 0}, asura::units::E_SN, 0.1);
  for (const auto& p : out) {
    EXPECT_LT(std::abs(p.pos.x), 30.0);
    EXPECT_LT(std::abs(p.pos.y), 30.0);
    EXPECT_LT(std::abs(p.pos.z), 30.0);
    EXPECT_GT(p.u, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Simulation loop
// ---------------------------------------------------------------------------

SimulationConfig quietConfig() {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 32;
  cfg.gravity.theta = 0.6;
  return cfg;
}

TEST(Simulation, AdiabaticBallConservesEnergyOverSteps) {
  auto parts = gasBall(1500, 30.0, 0.05, 7, 3.0e4);
  SimulationConfig cfg = quietConfig();
  cfg.dt_global = 0.005;
  Simulation sim(parts, cfg);
  sim.step();  // populate forces/potential
  const auto e0 = sim.energyReport();
  for (int s = 0; s < 10; ++s) sim.step();
  const auto e1 = sim.energyReport();
  // EnergyReport::potential now carries the 1/2 pair factor itself, so the
  // scale uses it directly (the seed's doubled value needed the extra 0.5).
  const double scale = std::abs(e0.kinetic) + std::abs(e0.thermal) +
                       std::abs(e0.potential);
  EXPECT_LT(std::abs(e1.total() - e0.total()) / scale, 0.05);
}

TEST(Simulation, PotentialEnergyCountsEachPairOnce) {
  // Regression for the doubled potential: sum(m_i * pot_i) visits every
  // pair from both sides, so EnergyReport::potential must carry the 1/2.
  // Two collisionless bodies make the pair sum exact in closed form.
  std::vector<Particle> two;
  for (int i = 0; i < 2; ++i) {
    Particle p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.type = Species::DarkMatter;
    p.mass = 2.0 + i;
    p.pos = {static_cast<double>(10 * i), 0.0, 0.0};
    p.eps = 0.5;
    two.push_back(p);
  }
  SimulationConfig cfg = quietConfig();
  cfg.dt_global = 1e-9;  // forces populate, positions essentially frozen
  cfg.gravity.kernel = asura::gravity::GravityParams::Kernel::ScalarF64;
  Simulation sim(two, cfg);
  sim.step();
  const auto& a = sim.particles()[0];
  const auto& b = sim.particles()[1];
  const double r2 = (a.pos - b.pos).norm2();
  const double expected = -asura::units::G * a.mass * b.mass /
                          std::sqrt(r2 + a.eps * a.eps + b.eps * b.eps);
  const auto e = sim.energyReport();
  EXPECT_NEAR(e.potential, expected, 1e-9 * std::abs(expected));
  EXPECT_NEAR(e.total(), e.kinetic + e.thermal + e.potential, 0.0);
}

TEST(Simulation, AdaptiveStepBelowCflFloorTakesDtGlobal) {
  // A global step below the CFL floor (1e-6 Myr) is legal:
  // the adaptive baseline clamps the CFL minimum into [min(floor, dt_global),
  // dt_global] — never a range with its floor above its ceiling — and the
  // cold ball's CFL step is far above dt_global, so every step takes it.
  auto parts = gasBall(300, 15.0, 1.0, 14);
  SimulationConfig cfg = quietConfig();
  cfg.adaptive_timestep = true;
  cfg.dt_global = 1e-9;
  Simulation sim(parts, cfg);
  for (int s = 0; s < 2; ++s) EXPECT_EQ(sim.step().dt_used, cfg.dt_global);
}

TEST(Simulation, MomentumConserved) {
  auto parts = gasBall(1000, 30.0, 0.05, 8);
  SimulationConfig cfg = quietConfig();
  Simulation sim(parts, cfg);
  for (int s = 0; s < 5; ++s) sim.step();
  double m_tot = 0.0;
  double v_scale = 0.0;
  for (const auto& p : sim.particles()) {
    m_tot += p.mass;
    v_scale = std::max(v_scale, p.vel.norm());
  }
  EXPECT_LT(sim.totalMomentum().norm() / (m_tot * std::max(v_scale, 1e-12)), 1e-6);
}

TEST(Simulation, FixedTimestepIsFixedEvenWithSn) {
  // Surrogate scheme: dt stays at dt_global even when an SN fires.
  auto parts = gasBall(800, 30.0, 1.0, 9, 100.0);
  Particle star;
  star.id = 99999;
  star.type = Species::Star;
  star.mass = 1.0;
  star.star_mass = 20.0;
  star.pos = {0, 0, 0};
  star.t_sn = 0.003;  // fires on step 2
  star.eps = 1.0;
  parts.push_back(star);

  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  cfg.return_interval = 3;
  cfg.n_pool_nodes = 2;
  Simulation sim(parts, cfg);

  bool saw_sn = false;
  int replaced = 0;
  for (int s = 0; s < 8; ++s) {
    const auto st = sim.step();
    EXPECT_DOUBLE_EQ(st.dt_used, cfg.dt_global);
    saw_sn |= st.sn_identified > 0;
    replaced += st.particles_replaced;
  }
  EXPECT_TRUE(saw_sn);
  EXPECT_GT(replaced, 0);  // prediction came back and was merged by id
}

TEST(Simulation, ConventionalTimestepCollapsesAfterSn) {
  // The paper's §5.3 observation: the conventional adaptive scheme drops to
  // ~1/10 of the fixed step after an SN heats the gas. The effect needs
  // star-by-star resolution (dt_CFL ∝ m^{5/6}): light particles, dense gas.
  auto parts = gasBall(20000, 6.0, 50.0, 10, 50.0);
  Particle star;
  star.id = 99999;
  star.type = Species::Star;
  star.mass = 1.0;
  star.star_mass = 20.0;
  star.pos = {0, 0, 0};
  star.t_sn = 1e-9;  // fires immediately
  parts.push_back(star);

  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = false;
  cfg.adaptive_timestep = true;
  cfg.feedback_radius = 1.5;
  Simulation sim(parts, cfg);

  const auto s0 = sim.step();  // SN fires, direct injection
  EXPECT_EQ(s0.sn_identified, 1);
  EXPECT_DOUBLE_EQ(s0.dt_used, cfg.dt_global);  // cold gas: full step
  const auto s1 = sim.step();  // now the hot bubble limits the CFL step
  EXPECT_LT(s1.dt_used, 0.25 * cfg.dt_global);
}

TEST(Simulation, OracleKeepsMwMiniFiniteWithSupernovaeOnGas) {
  // Progenitors planted on gas particles, as perfbench's MW-mini plants
  // them: a captured particle sits exactly at the SN, where the oracle's
  // profile u diverges. Its predictions must keep the state finite, so the
  // step validator passes.
  asura::galaxy::IcCounts counts;
  counts.n_dm = 2000;
  counts.n_star = 1500;
  counts.n_gas = 2500;
  counts.seed = 1;
  auto parts = asura::galaxy::generateGalaxy(
      asura::galaxy::GalaxyModel::milkyWayMini(), counts);
  std::vector<std::size_t> gas;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].isGas()) gas.push_back(i);
  }
  Pcg32 rng(7, 7);
  for (int k = 0; k < 4; ++k) {
    Particle star;
    star.id = 10'000'000 + static_cast<std::uint64_t>(k);
    star.type = Species::Star;
    star.mass = 20.0;
    star.star_mass = 20.0;
    star.pos = parts[gas[rng.below(static_cast<std::uint32_t>(gas.size()))]].pos;
    star.t_sn = (k + 0.5) * 0.002;
    star.eps = 0.5;
    parts.push_back(star);
  }

  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  cfg.dt_global = 0.002;
  cfg.n_pool_nodes = 1;
  cfg.return_interval = 2;
  cfg.surrogate_horizon = 0.004;
  cfg.sn_box_size = 200.0;
  cfg.validate_steps = true;
  Simulation sim(parts, cfg);
  int replaced = 0;
  double e_prev = 0.0;
  for (int s = 0; s < 6; ++s) {
    const auto st = sim.step();  // throws ValidationError on non-finite state
    replaced += st.particles_replaced;
    // The oracle caps each particle's heat gain and its kinetic gain at the
    // retained energy E_eff <= E_SN, and each host sits alone inside the
    // applied shell, so one SN adds at most 2 E_SN (the integrator's own
    // drift is ~0.01 E_SN per step here).
    const double e = sim.globalEnergyReport().total();
    if (s > 0) {
      EXPECT_LE(e - e_prev, (2.0 * st.regions_received + 0.1) * asura::units::E_SN)
          << "step " << s << ": " << st.regions_received << " SN applied";
    }
    e_prev = e;
  }
  EXPECT_GT(replaced, 0);
}

TEST(Simulation, SurrogateRegionsFreezeAndUnfreeze) {
  auto parts = gasBall(500, 20.0, 1.0, 11, 100.0);
  Particle star;
  star.id = 77777;
  star.type = Species::Star;
  star.mass = 1.0;
  star.star_mass = 15.0;
  star.pos = {0, 0, 0};
  star.t_sn = 0.001;
  parts.push_back(star);

  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  cfg.return_interval = 4;
  Simulation sim(parts, cfg);
  sim.step();  // SN identified and sent
  int frozen = 0;
  for (const auto& p : sim.particles()) frozen += p.frozen;
  EXPECT_GT(frozen, 0);

  for (int s = 0; s < 5; ++s) sim.step();
  frozen = 0;
  for (const auto& p : sim.particles()) frozen += p.frozen;
  EXPECT_EQ(frozen, 0);  // replaced and unfrozen after the interval
}

TEST(Simulation, StarFormationProducesStarsAndSfrHistory) {
  // Cold dense ball: star formation should trigger.
  auto parts = gasBall(2000, 10.0, 50.0, 12, 20.0);
  SimulationConfig cfg = quietConfig();
  cfg.enable_star_formation = true;
  cfg.dt_global = 0.05;
  cfg.star_formation.efficiency = 0.5;  // crank it for the test
  Simulation sim(parts, cfg);
  int formed = 0;
  for (int s = 0; s < 4; ++s) formed += sim.step().stars_formed;
  EXPECT_GT(formed, 0);
  EXPECT_EQ(sim.sfrHistory().size(), 4u);
  double sfr_sum = 0.0;
  for (double x : sim.sfrHistory()) sfr_sum += x;
  EXPECT_GT(sfr_sum, 0.0);
}

TEST(Simulation, DiagnosticsAndMaps) {
  auto parts = gasBall(1000, 20.0, 1.0, 13);
  SimulationConfig cfg = quietConfig();
  Simulation sim(parts, cfg);
  sim.step();

  const auto rho_pdf = sim.densityPdf();
  EXPECT_GT(rho_pdf.totalWeight(), 0.0);
  const auto t_pdf = sim.temperaturePdf();
  EXPECT_GT(t_pdf.totalWeight(), 0.0);

  const auto face_on = sim.columnDensityMap(2, 16, 16, 25.0);
  ASSERT_EQ(face_on.size(), 256u);
  double total = 0.0;
  for (double v : face_on) total += v;
  EXPECT_GT(total, 0.0);
  // Centre is denser than the corner.
  EXPECT_GT(face_on[8 * 16 + 8], face_on[0]);

  const auto l = sim.totalAngularMomentum();
  EXPECT_TRUE(std::isfinite(l.x) && std::isfinite(l.y) && std::isfinite(l.z));
}

TEST(Simulation, TimersCoverTheEightStepScheme) {
  // perfbench folds these names into its layers: a renamed or dropped
  // category would move its time into unattributed_ms without an error.
  // Presence, not time: with cooling off Feedback_and_Cooling records 0 s.
  auto parts = gasBall(300, 15.0, 1.0, 14);
  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  Simulation sim(parts, cfg);
  sim.step();
  std::set<std::string> recorded;
  for (const auto& [name, seconds] : sim.timers().entries()) recorded.insert(name);
  // A serial step is the one-rank step: it records the exchange categories
  // too, and they hold next to nothing (perfbench's mw_mini_p1 reads them).
  for (const char* cat :
       {"Exchange_Particle", "Identify_SNe", "Send_SNe", "Integration",
        "1st Exchange_LET", "1st Calc_Kernel_Size_and_Density", "1st Make_Local_Tree",
        "1st Calc_Force", "Final_kick", "Receive_SNe", "Star_Formation",
        "Feedback_and_Cooling", "2nd Calc_Kernel_Size", "2nd Make_Tree",
        "2nd Exchange_LET", "2nd Calc_Force", "Tree_Build", "Tree_Walk (cpu)",
        "Interaction_Kernel (cpu)"}) {
    EXPECT_EQ(recorded.count(cat), 1u) << cat;
  }
  // The force evaluation must actually have consumed time.
  EXPECT_GT(sim.timers().total("1st Calc_Force"), 0.0);
}

}  // namespace
