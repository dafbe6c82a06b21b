#include "core/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "core/distributed.hpp"
#include "fdps/box.hpp"
#include "io/checkpoint.hpp"
#include "io/particle_codec.hpp"
#include "io/serialize.hpp"
#include "kernels/registry.hpp"
#include "util/units.hpp"

namespace asura::core {

using fdps::Box;
using fdps::Particle;
using util::Vec3d;

namespace {

/// Captured particle routed to an SN event's owner rank.
struct EvCapture {
  std::int32_t ev = 0;  ///< index into the globally sorted event list
  Particle p;
};
static_assert(std::is_trivially_copyable_v<EvCapture>);

static_assert(std::is_trivially_copyable_v<stellar::SnEvent>,
              "SN events must be shippable through the comm layer");

/// Safety floor [Myr] of the adaptive CFL step and of the rung criteria.
constexpr double kCflDtMin = 1e-6;

/// Multiplier applied to every particle's work counter at step entry
/// (Particle::work, the per-particle closing-kick tally feeding the
/// work-weighted domain decomposition): quiet particles forget an SN storm
/// in a few tens of steps. Never read by physics.
constexpr double kWorkDecay = 0.75;

}  // namespace

Simulation::Simulation(std::vector<Particle> particles, SimulationConfig cfg,
                       std::shared_ptr<SurrogateBackend> backend)
    : parts_(std::move(particles)),
      n_local_(parts_.size()),
      cfg_(cfg),
      backend_(std::move(backend)),
      self_comm_(self_cluster_.selfComm()),
      dist_(std::make_unique<DistributedEngine>(self_comm_, DistributedConfig{})),
      rng_(cfg.seed, 0x51D) {
  if (cfg_.use_surrogate) {
    if (!backend_) backend_ = std::make_shared<SedovOracleBackend>();
    pool_ = std::make_unique<PoolNodeScheduler>(backend_, cfg_.n_pool_nodes,
                                                cfg_.return_interval);
    // Graceful degradation: a job whose primary prediction throws or breaks
    // the contract (validatePrediction) retries, then falls back per-region
    // to the physics oracle — the training target doubles as the
    // always-available reference implementation.
    pool_->setFallbackBackend(std::make_shared<SedovOracleBackend>());
  }
}

Simulation::~Simulation() = default;

void Simulation::attachDistributed(std::unique_ptr<DistributedEngine> engine) {
  dist_ = std::move(engine);
}

comm::Comm& Simulation::comm() { return dist_->comm(); }

StepStats Simulation::step() {
  // Reject un-integrable configurations before any work or collective call:
  // config() is mutable between steps, so the check runs at every entry and
  // throws the same descriptive std::invalid_argument on every rank.
  validateConfig();

  // Full reset of the persistent lastStats() member: a run that alternates
  // hierarchical on/off must never see the previous mode's rung histogram,
  // sub-step counters or limiter tallies leak into this step's report.
  stats_ = StepStats{};
  StepStats& stats = stats_;
  work_seconds_accum_ = 0.0;
  step_ctx_.beginStep();
  reportProgress(0);  // step entered

  // (0) Phase 0: domains recut when due, and every local ships to its
  // owner when anything moves. Runs before SN identification so captures,
  // boxes and owner lookups all see settled ownership; positions have not
  // moved since the last force pass, so the exchange cache, the ghost
  // suffix and the id index survive exactly when nothing moved.
  {
    util::TimerRegistry::Scope scope(timers_, "Exchange_Particle");
    dist_->beginStep();
    if (dist_->exchangeParticles(parts_, n_local_, step_ctx_, rng_, step_)) {
      id_index_valid_ = false;
    }
  }

  // Decay the per-particle work counters (weighted-decomposition signal)
  // before this step's closing kicks accrue fresh tallies, and charge each
  // particle its static per-step cost up front: the two full force passes
  // target every local (gravity + hydro for gas) regardless of rung, so a
  // work signal made of closing kicks alone would overweight deep-rung
  // pockets ~3x and starve the ranks carrying the O(N) full-pass load.
  // Runs over the owned span at every rank count — work is carried through
  // migrations and checkpoints but never read by physics.
  {
    const auto n_loc = static_cast<std::int64_t>(n_local_);
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < n_loc; ++i) {
      auto& p = parts_[static_cast<std::size_t>(i)];
      p.work = p.work * kWorkDecay + (p.isGas() ? 4.0 : 2.0);
    }
  }

  double dt = cfg_.dt_global;
  if (cfg_.adaptive_timestep && !cfg_.hierarchical_timestep) {
    // Conventional baseline: global shared timestep limited by the CFL
    // minimum over all gas — this is what collapses after an SN (§5.3).
    // The minimum is the one recorded by the last hydro force pass
    // (ForceStats::dt_cfl_min), not a separate full-particle sweep; the
    // particle state is unchanged between that pass and this step start.
    // Cold start (no pass recorded yet, e.g. a restart from evolved state
    // with hot cs/vsig): fall back to the standalone sweep once.
    if (!std::isfinite(last_cfl_dt_)) {
      last_cfl_dt_ = sph::cflTimestep(localSpan(), cfg_.sph);
    }
    // The floor never exceeds dt_global: a step below kCflDtMin is legal
    // and takes dt_global.
    dt = std::clamp(last_cfl_dt_, std::min(kCflDtMin, cfg_.dt_global), cfg_.dt_global);
    // Every rank must take the same step: the CFL minimum is global.
    dt = comm().allreduce(dt, comm::Op::Min);
  }
  stats.dt_used = dt;

  // (1) Identify stars exploding between t and t + dt. The per-rank lists
  // merge into one globally ordered list so every rank processes the same
  // events in the same order.
  std::vector<stellar::SnEvent> events;
  {
    util::TimerRegistry::Scope scope(timers_, "Identify_SNe");
    events = gatherEvents(stellar::identifySupernovae(localSpan(), t_, dt));
    stats.sn_identified = static_cast<int>(events.size());
  }

  // (2) Pick up (60 pc)^3 regions and send them to pool nodes. A region
  // near a domain boundary is captured from every contributing rank and
  // merged on the event's owner, which submits to its own pool.
  if (cfg_.use_surrogate) {
    util::TimerRegistry::Scope scope(timers_, "Send_SNe");
    captureAndSendRegions(events, stats);
  }

  // (3) Integration to t + dt: the block sub-step loop, which ends
  // synchronized at t + dt (one rung-0 sub-step without the block scheme).
  integrate(stats, dt);

  reportProgress(1);  // integration done

  // (4) Receive predictions due this step; replace particles by id.
  if (cfg_.use_surrogate) {
    util::TimerRegistry::Scope scope(timers_, "Receive_SNe");
    receiveAndReplace(stats);
  } else if (!events.empty()) {
    // Conventional path: direct thermal injection (the timestep killer).
    util::TimerRegistry::Scope scope(timers_, "Preprocess_of_Feedback");
    directFeedback(events);
    dist_->markDirty();  // remote pressures near boundaries changed
  }

  // (5) Star formation, cooling and heating (locals only — the ghosts'
  // home ranks run the same physics on the originals).
  {
    util::TimerRegistry::Scope scope(timers_, "Star_Formation");
    if (cfg_.enable_star_formation) {
      const int formed =
          stellar::formStars(localSpan(), t_, dt, cfg_.star_formation, imf_, rng_);
      stats.stars_formed = formed;
      if (formed > 0) {
        step_ctx_.invalidate();  // gas became stars
        // Species changed: remote ranks may hold ghost copies of the
        // converted particles, so the exchanged sets must rebuild.
        dist_->markDirty();
      }
      double mass_formed = 0.0;
      for (const auto& p : localSpan()) {
        if (p.isStar() && p.t_form == t_) mass_formed += p.mass;
      }
      sfr_history_.push_back(mass_formed / dt);
    } else {
      sfr_history_.push_back(0.0);
    }
  }
  {
    util::TimerRegistry::Scope scope(timers_, "Feedback_and_Cooling");
    if (cfg_.enable_cooling) stellar::coolAndHeat(localSpan(), dt, cfg_.cooling);
  }

  // (6) Recalculate hydro quantities after the internal energy changed: a
  // full pass targets every local for gravity and every local gas particle
  // for SPH. When neither the surrogate nor star formation touched
  // positions or species this step, the cached trees are still valid and
  // this pass performs no builds at all — and on a distributed step the
  // cached ghost list is reused outright (its records refreshed so remote
  // cooling stays visible), with the LET walked again only if it drifted.
  {
    util::TimerRegistry::Scope scope(timers_, "2nd Exchange_LET");
    dist_->ensureExchanged(parts_, n_local_, step_ctx_, cfg_.gravity,
                           /*allow_value_refresh=*/true);
  }
  targets_ = fdps::targetIndices(localSpan());
  gas_targets_ = fdps::targetIndices(localSpan(), /*gas_only=*/true);
  computeForces(stats, targets_, gas_targets_, /*final_pass=*/true);

  // Sync half of the limiter: rungs this final pass still saw lagging are
  // promoted in place, so the state published at the step boundary already
  // satisfies the pair-gap invariant the next assignment would enforce.
  if (cfg_.timestep_limiter) applySyncRungFloor(stats);

  stats.tree_builds = step_ctx_.buildsThisStep();
  stats.tree_refreshes = step_ctx_.refreshesThisStep();
  stats.work_seconds = work_seconds_accum_;
  const ExchangeStats& xs = dist_->stats();
  stats.let_exchanges = xs.let_exchanges;
  stats.let_export_walks = xs.let_export_walks;
  stats.let_reuses = xs.let_reuses;
  stats.ghost_exchanges = xs.ghost_exchanges;
  stats.ghost_value_refreshes = xs.ghost_value_refreshes;
  stats.ghost_reuses = xs.ghost_reuses;
  stats.migrated = xs.migrated;
  stats.reach_retries = xs.reach_retries;
  stats.reach_giveups = xs.reach_giveups;
  stats.rebalances = xs.rebalances;
  stats.balance_max_over_mean = xs.balance_max_over_mean;
  // Imbalance diagnostics: every rank publishes its compute-section wall
  // clock and its force-evaluation count; the max/mean ratios are the
  // step's realized load imbalance (wall-based and deterministic).
  // Uniform collective — all ranks reach this at the same step phase.
  {
    const std::array<double, 2> mine{
        work_seconds_accum_, static_cast<double>(stats.force_evaluations)};
    const auto all = comm().allgather(mine);
    double wmax = 0.0, wsum = 0.0, emax = 0.0, esum = 0.0;
    for (const auto& a : all) {
      wmax = std::max(wmax, a[0]);
      wsum += a[0];
      emax = std::max(emax, a[1]);
      esum += a[1];
    }
    const auto n_ranks = static_cast<double>(all.size());
    stats.rank_work_max = wmax;
    stats.rank_work_mean = wsum / n_ranks;
    stats.rank_evals_max = emax;
    stats.rank_evals_mean = esum / n_ranks;
  }
  // Degradation visibility: jobs completed since the last step whose result
  // came from the fallback backend (or the identity last resort).
  if (pool_) {
    const std::uint64_t fb = pool_->jobsFallback();
    stats.surrogate_fallbacks = static_cast<int>(fb - fallback_baseline_);
    fallback_baseline_ = fb;
  }
  // Run-integrity guard: trips checkpoint-and-abort on non-finite state or
  // broken conservation before a corrupt step is published as "done".
  if (cfg_.validate_steps) validateStepInvariants();
  reportProgress(2);  // step complete (validator included)
  t_ += dt;
  ++step_;
  return stats;
}

namespace {

// Sub-step accumulation of per-pass stats into the step totals.
void accumulate(sph::DensityStats& into, const sph::DensityStats& ds) {
  into.max_iterations = std::max(into.max_iterations, ds.max_iterations);
  into.interactions += ds.interactions;
  into.tree_builds += ds.tree_builds;
  into.t_build += ds.t_build;
  into.t_walk += ds.t_walk;
  into.t_kernel += ds.t_kernel;
}

void accumulate(sph::ForceStats& into, const sph::ForceStats& fs) {
  into.interactions += fs.interactions;
  into.tree_builds += fs.tree_builds;
  into.t_build += fs.t_build;
  into.t_walk += fs.t_walk;
  into.t_kernel += fs.t_kernel;
  into.dt_cfl_min = std::min(into.dt_cfl_min, fs.dt_cfl_min);
}

void accumulate(gravity::GravityStats& into, const gravity::GravityStats& gs) {
  into.ep_interactions += gs.ep_interactions;
  into.sp_interactions += gs.sp_interactions;
  into.targets += gs.targets;
  into.tree_builds += gs.tree_builds;
  into.t_build += gs.t_build;
  into.t_walk += gs.t_walk;
  into.t_kernel += gs.t_kernel;
}

}  // namespace

int Simulation::kmax() const {
  return cfg_.hierarchical_timestep ? std::clamp(cfg_.max_rung, 0, kMaxRungs - 1) : 0;
}

int Simulation::desiredRung(const fdps::Particle& p, double dt_global) const {
  const int k_max = kmax();
  if (k_max == 0) return 0;
  double want = dt_global;
  const double a = p.acc.norm();
  if (a > 0.0) {
    // The accel criterion carries its own margin in eta_acc: the limiter is
    // a hydro mechanism, so relaxing rung_safety must not loosen the
    // gravitational clock (eta_acc's default equals PR 2's effective
    // 0.35 * 0.3).
    want = std::min(want, cfg_.eta_acc * std::sqrt(p.eps / a));
  }
  if (p.isGas()) {
    // Per-particle CFL clock from the vsig the last hydro pass recorded —
    // the same quantity the global baseline now reads as a single minimum.
    const double v = std::max(p.vsig, p.cs);
    if (v > 0.0) {
      want = std::min(want, cfg_.rung_safety * cfg_.sph.cfl * 0.5 * p.h / v);
    }
  }
  want = std::max(want, kCflDtMin);
  int k = 0;
  double dt_k = dt_global;
  while (k < k_max && dt_k > want * (1.0 + 1e-12)) {
    dt_k *= 0.5;
    ++k;
  }
  if (cfg_.timestep_limiter && p.isGas()) {
    // Limiter floor: never schedule a step more than 2^kLimiterGap longer
    // than the deepest neighbour the last hydro pass saw. This is the
    // between-steps half of Saitoh & Makino (2009); mid-step violations are
    // handled by the wake queue.
    k = std::clamp(std::max(k, static_cast<int>(p.rung_ngb) - sph::kLimiterGap), 0,
                   k_max);
  }
  return k;
}

void Simulation::collectClosingSet(long n, StepStats& stats) {
  // Fixed-size chunks (independent of the thread count) with a serial
  // prefix scan between the count and fill passes: the output is the exact
  // index-ascending order a serial scan would produce, so positions, rung
  // histograms and every downstream kick are bitwise reproducible at any
  // OMP_NUM_THREADS.
  constexpr std::int64_t kChunk = 4096;
  const auto n_parts = static_cast<std::int64_t>(n_local_);
  const std::int64_t n_chunks = (n_parts + kChunk - 1) / kChunk;
  sweep_counts_.assign(static_cast<std::size_t>(2 * n_chunks), 0);

  std::uint64_t evals[kMaxRungs] = {};
#pragma omp parallel for schedule(static) reduction(+ : evals[:kMaxRungs])
  for (std::int64_t c = 0; c < n_chunks; ++c) {
    const std::int64_t lo = c * kChunk;
    const std::int64_t hi = std::min(lo + kChunk, n_parts);
    std::uint32_t n_all = 0, n_gas = 0;
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto& p = parts_[static_cast<std::size_t>(i)];
      if (step_end_[static_cast<std::size_t>(i)] != n) continue;
      ++n_all;
      if (p.isGas()) ++n_gas;
      ++evals[p.rung];
    }
    sweep_counts_[static_cast<std::size_t>(2 * c)] = n_all;
    sweep_counts_[static_cast<std::size_t>(2 * c + 1)] = n_gas;
  }
  for (int k = 0; k < kMaxRungs; ++k) {
    stats.rung_force_evals[static_cast<std::size_t>(k)] += evals[k];
  }

  std::uint32_t total_all = 0, total_gas = 0;
  for (std::int64_t c = 0; c < n_chunks; ++c) {
    const std::uint32_t ca = sweep_counts_[static_cast<std::size_t>(2 * c)];
    const std::uint32_t cg = sweep_counts_[static_cast<std::size_t>(2 * c + 1)];
    sweep_counts_[static_cast<std::size_t>(2 * c)] = total_all;
    sweep_counts_[static_cast<std::size_t>(2 * c + 1)] = total_gas;
    total_all += ca;
    total_gas += cg;
  }
  targets_.resize(total_all);
  gas_targets_.resize(total_gas);

#pragma omp parallel for schedule(static)
  for (std::int64_t c = 0; c < n_chunks; ++c) {
    const std::int64_t lo = c * kChunk;
    const std::int64_t hi = std::min(lo + kChunk, n_parts);
    std::uint32_t at_all = sweep_counts_[static_cast<std::size_t>(2 * c)];
    std::uint32_t at_gas = sweep_counts_[static_cast<std::size_t>(2 * c + 1)];
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto& p = parts_[static_cast<std::size_t>(i)];
      if (step_end_[static_cast<std::size_t>(i)] != n) continue;
      targets_[at_all++] = static_cast<std::uint32_t>(i);
      if (p.isGas()) gas_targets_[at_gas++] = static_cast<std::uint32_t>(i);
    }
  }
}

namespace {

/// Walk a sorted wake-request list and hand each lagging neighbour to
/// `visit(j, k_req)` with k_req = max over its requesters' *current* rungs.
/// Requests arrive sorted by (neighbour, target), so the traversal order —
/// and with it the resolution, even where a visit promotes a particle that
/// a later group reads as a requester — is deterministic for any thread
/// count. Shared by the mid-step wake sweep and the sync-point floor so the
/// grouping rule cannot diverge between them.
template <class Visit>
void forEachWakeNeighbour(const std::vector<std::uint64_t>& requests,
                          const std::vector<fdps::Particle>& parts, Visit&& visit) {
  std::size_t r = 0;
  while (r < requests.size()) {
    const std::uint32_t j = sph::wakeNeighbour(requests[r]);
    int k_req = 0;
    for (; r < requests.size() && sph::wakeNeighbour(requests[r]) == j; ++r) {
      k_req = std::max(k_req,
                       static_cast<int>(parts[sph::wakeTarget(requests[r])].rung));
    }
    visit(j, k_req);
  }
}

}  // namespace

void Simulation::applyWakes(long n, long nfull, double dt_min, StepStats& stats) {
  if (wake_requests_.empty()) return;
  forEachWakeNeighbour(wake_requests_, parts_, [&](std::uint32_t j, int k_req) {
    // Ghost neighbours cannot be woken from here: their home rank's own
    // force passes see the same pair gap and wake the real particle.
    if (static_cast<std::size_t>(j) >= n_local_) return;
    auto& p = parts_[j];
    const std::size_t js = static_cast<std::size_t>(j);
    if (step_end_[js] == n) return;  // closed this sub-step: already fresh
    const int k_target = std::clamp(k_req - sph::kLimiterGap, 0, kmax());
    if (static_cast<int>(p.rung) >= k_target) return;  // gap already closed
    dist_->markChanged(j);  // rung, and vel on a re-planned step

    // Saitoh & Makino (2009) step-shortening: the laggard's step in flight
    // is re-planned to end at the next boundary of its new rung — the first
    // multiple of stride_new after n, which the loop provably reaches
    // because the laggard's own rung now keeps k_deep >= k_target until
    // then. The opening updates it already received were sized for the old
    // (longer) plan and are corrected below on the held derivatives.
    // Positions need no fixup: every particle drifts every sub-step.
    const long stride_new = nfull >> k_target;
    const long end_new = (n / stride_new + 1) * stride_new;
    if (end_new >= step_end_[js]) {
      // Its own closing comes no later than the shortened plan would —
      // just deepen the rung so the closing update starts from the
      // limiter-consistent level.
      p.rung = static_cast<std::uint8_t>(k_target);
      return;
    }
    const double dl = dt_min * static_cast<double>(end_new - step_end_[js]);
    p.vel += 0.5 * dl * p.acc;
    if (p.isGas() && !p.frozen) {
      // The opening issued a *full* forward u update for the old plan; the
      // velocity only its half-kick — each is corrected by its own share of
      // the length change. u_pred needs nothing: it tracks the current
      // time, which the wake does not move.
      p.u = std::max(p.u + dl * p.du_dt, 1e-12);
    }
    step_end_[js] = end_new;
    p.rung = static_cast<std::uint8_t>(k_target);
    ++stats.limiter_wakes;
  });
}

void Simulation::applySyncRungFloor(StepStats& stats) {
  forEachWakeNeighbour(wake_requests_, parts_, [&](std::uint32_t j, int k_req) {
    if (static_cast<std::size_t>(j) >= n_local_) return;  // ghost: home rank's job
    const int k_target = std::min(k_req - sph::kLimiterGap, kmax());
    auto& p = parts_[j];
    if (static_cast<int>(p.rung) >= k_target) return;
    p.rung = static_cast<std::uint8_t>(k_target);
    ++stats.limiter_sync_promotions;
  });
  wake_requests_.clear();
}

void Simulation::integrate(StepStats& stats, double dt) {
  const long nfull = 1L << kmax();
  const double dt_min = dt / static_cast<double>(nfull);
  const auto n_loc = static_cast<std::int64_t>(n_local_);

  // Rung assignment at the sync point: every boundary is aligned at n = 0,
  // so each particle takes its criterion rung directly. The first step ever
  // has acc = vsig = 0 and lands everything on rung 0, exactly like the
  // seed's first kick with zero initial accelerations. Parallel sweep:
  // per-particle assignment is independent and the histogram reduces over
  // integers, so any thread count produces the identical result.
  {
    util::TimerRegistry::Scope scope(timers_, "Integration");
    // Locals only: ghosts never open, close or join an active set.
    step_begin_.assign(n_local_, 0);
    step_end_.assign(n_local_, 0);  // "opens at sub-unit 0"
    int hist[kMaxRungs] = {};
#pragma omp parallel for schedule(static) reduction(+ : hist[:kMaxRungs])
    for (std::int64_t i = 0; i < n_loc; ++i) {
      auto& p = parts_[static_cast<std::size_t>(i)];
      p.rung = static_cast<std::uint8_t>(desiredRung(p, dt));
      ++hist[p.rung];
      // Sync point: u is authoritative again (cooling, surrogate replacement
      // and direct feedback all act between steps), so prediction restarts.
      if (p.isGas()) p.u_pred = p.u;
    }
    for (int k = 0; k < kMaxRungs; ++k) {
      stats.rung_histogram[static_cast<std::size_t>(k)] += hist[k];
    }
  }

  // A rung-k boundary lies at every multiple of nfull >> k sub-units.
  const auto aligned = [nfull](long n, int rung) {
    return (n & ((nfull >> rung) - 1)) == 0;
  };

  long n = 0;
  bool first_sub = true;
  while (n < nfull) {
    // Opening kick for particles whose step starts at n (their own dt/2 and
    // the full forward u update for gas), fused with the deepest-
    // occupied-rung scan that sets this sub-step's size. Inactive particles
    // are untouched: they keep coasting on their held acceleration ("drifted
    // by prediction"). Openings are recognized from the explicit per-
    // particle step bookkeeping — after a mid-step wake shortened a step,
    // rung alignment alone no longer describes who opens where. Locals
    // only: ghost rungs belong to their home rank's loop. The sweep also
    // takes the fastest local speed the drift below moves by: the skin
    // budgets each rank's OWN displacement (the remote side budgets its
    // half), so a fast imported ghost must not force a re-exchange.
    int k_deep = 0;
    double v2max = 0.0;
    {
      util::TimerRegistry::Scope scope(timers_, "Integration");
#pragma omp parallel for schedule(static) reduction(max : k_deep, v2max)
      for (std::int64_t i = 0; i < n_loc; ++i) {
        auto& p = parts_[static_cast<std::size_t>(i)];
        k_deep = std::max(k_deep, static_cast<int>(p.rung));
        const auto is = static_cast<std::size_t>(i);
        if (step_end_[is] == n) {
          step_begin_[is] = n;
          step_end_[is] = n + (nfull >> p.rung);
          const double dt_p = dt_min * static_cast<double>(nfull >> p.rung);
          p.vel += 0.5 * dt_p * p.acc;
          if (p.isGas() && !p.frozen) {
            // u takes the seed's forward update over the whole step; the
            // *prediction* restarts from the pre-kick value so neighbour
            // lookups track u(t) instead of this end-of-step extrapolation.
            p.u_pred = p.u;
            p.u = std::max(p.u + dt_p * p.du_dt, 1e-12);
          }
        }
        v2max = std::max(v2max, p.vel.norm2());
      }
    }
    // Every rank advances by the globally deepest occupied rung: quiet
    // ranks walk empty active sets, but all ranks reach the mid-loop
    // collectives (cache decisions, reach checks) in lockstep.
    k_deep = comm().allreduce(k_deep, comm::Op::Max);
    const long stride = nfull >> k_deep;
    const double sub_dt = dt_min * static_cast<double>(stride);

    // Drift ALL particles by the sub-step (independent per particle), and
    // advance every gas particle's u prediction on its held du_dt so
    // neighbour lookups see thermodynamics at the current time instead of
    // the state frozen at the particle's last closing. The ghost suffix
    // drifts too — ballistic coasting of the home rank's integration,
    // bounded by the exchange skin.
    {
      util::TimerRegistry::Scope scope(timers_, "Integration");
      const auto n_work = static_cast<std::int64_t>(parts_.size());
#pragma omp parallel for schedule(static)
      for (std::int64_t i = 0; i < n_work; ++i) {
        auto& p = parts_[static_cast<std::size_t>(i)];
        p.pos += sub_dt * p.vel;
        if (p.isGas() && !p.frozen) {
          p.u_pred = std::max(p.u_pred + sub_dt * p.du_dt, 1e-12);
        }
      }
      dist_->noteDrift(sub_dt * std::sqrt(v2max));
    }
    n += stride;
    stats.substep_units += stride;

    // Tree maintenance: one real rebuild per global step (after the first
    // drift), then O(N) in-place position/moment refreshes keep the cached
    // trees consistent with the drifted sources without re-sorting. The
    // gravity tree refreshes its local entries in place while cached LET
    // imports hold their exchanged positions.
    if (first_sub) {
      step_ctx_.invalidate();
    } else {
      step_ctx_.refreshGravityPositions(localSpan());
      step_ctx_.refreshGasPositions(parts_);
    }

    // Make the imports valid for this sub-step *before* the closing set is
    // collected — a re-exchange resizes the work array. The step start
    // re-rungs every local and resets u_pred, so the first sub-step makes
    // the imports exact after its drift: a full exchange when stale or past
    // the skin, else a LET walk over the drifted locals and a record refresh
    // of every ghost. Later sub-steps reuse both cached sets (no exportLet
    // walk, no ghost traffic beyond the one-int dirty reduce) while clean.
    {
      util::TimerRegistry::Scope scope(timers_, "1st Exchange_LET");
      dist_->ensureExchanged(parts_, n_local_, step_ctx_, cfg_.gravity,
                             /*allow_value_refresh=*/first_sub);
    }
    first_sub = false;

    // Closing set: particles whose step ends at the updated n. The deepest
    // occupied rung closes every iteration, so the set is never empty
    // globally (a quiet rank's local set may be). The pass's ghost refresh
    // ships only the exports whose home changed a record field since the
    // previous refresh or exchange: the closers and the woken of the
    // previous sub-step (flagged below; they are also exactly this
    // sub-step's openers) and this pass's density targets (flagged by
    // computeForces). Every other ghost coasted through the same drift
    // arithmetic as its home and is already current.
    collectClosingSet(n, stats);
    computeForces(stats, targets_, gas_targets_, /*final_pass=*/false);

    // Closing kick, then rung update: refining is always allowed, while
    // coarsening may only land on boundaries aligned with n — the block
    // invariant that keeps every future boundary on the sub-step grid.
    // Parallel: each active particle touches only its own state (the
    // limiter floor reads its own rung_ngb, recorded by the pass above).
    {
      util::TimerRegistry::Scope scope(timers_, "Final_kick");
      const auto n_active = static_cast<std::int64_t>(targets_.size());
#pragma omp parallel for schedule(static)
      for (std::int64_t a = 0; a < n_active; ++a) {
        const std::size_t i = targets_[static_cast<std::size_t>(a)];
        auto& p = parts_[i];
        // Closing half-kick over the step actually taken — for a particle
        // the limiter woke mid-step this is the shortened plan, not the
        // rung-implied length.
        const double dt_p =
            dt_min * static_cast<double>(step_end_[i] - step_begin_[i]);
        p.vel += 0.5 * dt_p * p.acc;
        dist_->markChanged(i);  // vel, u_pred, rung and the pass's du_dt
        // Work accrual: one closing kick, gas costing double for its extra
        // density + hydro passes. A deep-rung particle closes many times per
        // global step, so SN-heated pockets dominate the tally — exactly the
        // signal the weighted decomposition balances on. Never read by
        // physics.
        p.work += p.isGas() ? 2.0 : 1.0;
        if (p.isGas() && !p.frozen) {
          // The forward u update issued at opening has now "arrived": the
          // stored u is the value at this closing time, so the prediction
          // re-syncs to it.
          p.u_pred = p.u;
        }
        const int want = desiredRung(p, dt);
        int k_new = static_cast<int>(p.rung);
        if (want > k_new) {
          k_new = want;
        } else {
          while (k_new > want && aligned(n, k_new - 1)) --k_new;
        }
        p.rung = static_cast<std::uint8_t>(k_new);
      }
    }

    // Saitoh–Makino wake sweep: lagging neighbours the force pass flagged
    // are kick-resynced and folded into the next sub-step's active set.
    if (cfg_.timestep_limiter) {
      util::TimerRegistry::Scope scope(timers_, "Final_kick");
      applyWakes(n, nfull, dt_min, stats);
    }
    ++stats.substeps;
    // Sub-step liveness: a deep rung spread runs many sub-steps per global
    // step, and the watchdog must see progress between sync points.
    reportProgress(16 + stats.substeps);
  }
}

sph::DensityStats Simulation::solveDensityWithReachRetries(
    std::span<const std::uint32_t> gas_targets) {
  // Snapshot the pre-solve supports: a stale-reach re-solve must start from
  // the same initial guesses the first solve got, or the closure (which
  // accepts any H inside its tolerance band) converges to a point a
  // rank-count-invariant run can't reach.
  h_save_.resize(gas_targets.size());
  for (std::size_t k = 0; k < gas_targets.size(); ++k) {
    h_save_[k] = parts_[gas_targets[k]].h;
  }
  const auto restore_h = [&] {
    for (std::size_t k = 0; k < gas_targets.size(); ++k) {
      parts_[gas_targets[k]].h = h_save_[k];
    }
  };
  const auto solve = [&]() -> sph::DensityStats {
    // Pure-compute section: timed into work_seconds_accum_ (no collectives
    // inside the solve itself — the retry protocol around it is collective).
    const double t0 = util::wtime();
    const auto ds = sph::solveDensity(step_ctx_, parts_, gas_targets, cfg_.sph);
    work_seconds_accum_ += util::wtime() - t0;
    return ds;
  };

  auto ds = solve();

  // Stale-reach loop (collective): if the solve grew any rank's gather
  // radius past its exported reach, the pre-exchanged ghost set under-
  // covers the new supports — re-exchange with the grown radii and
  // re-solve instead of silently under-importing neighbours. The retry
  // count is uniform across ranks because the escape decision is an
  // allreduce, so the collective call sequence never diverges between
  // ranks whose target sets differ (or are empty). Never entered at one rank.
  constexpr int max_retries = DistributedEngine::kMaxReachRetries;
  int retries = 0;
  while (retries < max_retries &&
         dist_->reexchangeIfReachEscaped(parts_, n_local_, step_ctx_)) {
    restore_h();
    accumulate(ds, solve());
    ++retries;
  }
  // Exhausted the cap with the reach possibly still escaped: record the
  // degraded pass instead of proceeding silently.
  if (retries == max_retries) {
    dist_->noteReachGiveupIfStillEscaped(parts_, n_local_);
  }
  return ds;
}

void Simulation::computeForces(StepStats& stats, std::span<const std::uint32_t> targets,
                               std::span<const std::uint32_t> gas_targets, bool final_pass) {
  const char* tree_cat = final_pass ? "2nd Make_Tree" : "1st Make_Local_Tree";
  const char* let_cat = final_pass ? "2nd Exchange_LET" : "1st Exchange_LET";
  const char* force_cat = final_pass ? "2nd Calc_Force" : "1st Calc_Force";
  const char* kernel_cat =
      final_pass ? "2nd Calc_Kernel_Size" : "1st Calc_Kernel_Size_and_Density";
  // Per-pass outputs: never let a skipped hydro pass leak the previous
  // pass's wake list or CFL minimum into this pass's consumers.
  wake_requests_.clear();
  last_cfl_dt_ = std::numeric_limits<double>::infinity();
  // SPH kernel size + density (+ div/curl, pressure). The gas tree built
  // here (or reused from the previous pass) is shared with the hydro force
  // below through step_ctx_; only the smoothing lengths are refreshed.
  // Sub-timer note: Tree_Build is serial wall-clock, but the walk/kernel
  // categories are reduction sums over threads (cpu-seconds) — they can
  // legitimately exceed their bracketing wall-clock category on multi-core
  // runs, hence the distinct "(cpu)" naming.
  {
    util::TimerRegistry::Scope scope(timers_, kernel_cat);
    const auto ds = solveDensityWithReachRetries(gas_targets);
    timers_.add("Tree_Build", ds.t_build);
    timers_.add("Tree_Walk (cpu)", ds.t_walk);
    timers_.add("Interaction_Kernel (cpu)", ds.t_kernel);
    if (!final_pass) accumulate(stats.density_stats, ds);
  }

  // The exchange selected ghosts *before* the density solve, so the
  // imported copies still carry pre-solve rho/pres/h (zeros on the very
  // first pass). Ship every home rank's post-solve records along the cached
  // export lists before any kernel divides by a neighbour's rho^2: the solve
  // rewrote h, rho, divv, curlv and u_pred of every target (on a full pass,
  // every export). Collective, so a rank with no targets returns only after
  // it.
  {
    util::TimerRegistry::Scope scope(timers_, let_cat);
    for (const auto i : gas_targets) dist_->markChanged(i);
    dist_->refreshGhostPayloads(parts_, n_local_, step_ctx_);
  }
  if (targets.empty()) return;

  // Gravity: the tree lives in step_ctx_ and is reused by the second pass
  // when positions did not change; sources are locals + the cached LET
  // imports (hydro ghosts are represented by their home rank's LET
  // contribution and must NOT double as gravity sources).
  {
    util::TimerRegistry::Scope scope(timers_, tree_cat);
    for (const auto i : targets) {
      parts_[i].acc = Vec3d{};
      parts_[i].pot = 0.0;
    }
  }
  {
    util::TimerRegistry::Scope scope(timers_, force_cat);
    const double t0 = util::wtime();
    const auto gs = gravity::accumulateTreeGravity(step_ctx_, localSpan(), dist_->letImports(),
                                                   targets, cfg_.gravity);
    timers_.add("Tree_Build", gs.t_build);
    timers_.add("Tree_Walk (cpu)", gs.t_walk);
    timers_.add("Interaction_Kernel (cpu)", gs.t_kernel);
    if (!final_pass) accumulate(stats.gravity_stats, gs);
    // With the limiter on, every pass doubles as its detection sweep: the
    // sub-steps' requests drive the mid-step wakes, the final pass's the
    // sync-point rung floor. On rung 0 alone no pair gap exists to request.
    const auto fs = sph::accumulateHydroForce(step_ctx_, parts_, gas_targets, cfg_.sph,
                                              cfg_.timestep_limiter ? &wake_requests_
                                                                    : nullptr);
    timers_.add("Tree_Build", fs.t_build);
    timers_.add("Tree_Walk (cpu)", fs.t_walk);
    timers_.add("Interaction_Kernel (cpu)", fs.t_kernel);
    if (!final_pass) accumulate(stats.force_stats, fs);
    // The final pass's CFL minimum is next step's adaptive-baseline timestep
    // (and the per-particle vsig behind it feeds the rung criteria) — the
    // standalone cflTimestep sweep is no longer on the step path.
    last_cfl_dt_ = fs.dt_cfl_min;
    work_seconds_accum_ += util::wtime() - t0;
  }
  stats.force_evaluations += targets.size() + gas_targets.size();
}

std::vector<stellar::SnEvent> Simulation::gatherEvents(
    std::vector<stellar::SnEvent> local) {
  const auto parts = comm().allgatherv(local);
  std::vector<stellar::SnEvent> all;
  for (const auto& v : parts) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return std::pair(a.t_explode, a.star_id) < std::pair(b.t_explode, b.star_id);
  });
  return all;
}

void Simulation::captureAndSendRegions(const std::vector<stellar::SnEvent>& events,
                                       StepStats& stats) {
  // No pool, no capture: freezing gas with nobody to ever unfreeze it would
  // silently halt its thermodynamics. Pool presence is uniform across ranks
  // (it follows use_surrogate), so the early return is collectively safe.
  if (!pool_) return;
  comm::Comm& c = comm();
  const auto& domains = dist_->domains();
  const double half = 0.5 * cfg_.sn_box_size;
  std::vector<std::vector<EvCapture>> outgoing(static_cast<std::size_t>(c.size()));
  // Per-event local captures kept at home (owner == this rank).
  std::vector<std::vector<Particle>> mine(events.size());

  for (std::size_t e = 0; e < events.size(); ++e) {
    const auto& ev = events[e];
    const int owner = domains.ownerOf(ev.pos);
    Box box;
    box.extend(ev.pos - Vec3d{half, half, half});
    box.extend(ev.pos + Vec3d{half, half, half});
    for (std::size_t i = 0; i < n_local_; ++i) {
      auto& q = parts_[i];
      if (!q.isGas() || q.frozen) continue;  // one pending prediction at a time
      if (!box.contains(q.pos)) continue;
      q.frozen = 1;
      if (owner == c.rank()) {
        mine[e].push_back(q);
      } else {
        outgoing[static_cast<std::size_t>(owner)].push_back(
            {static_cast<std::int32_t>(e), q});
      }
    }
  }

  const auto incoming = c.alltoallv(outgoing);
  for (int r = 0; r < c.size(); ++r) {
    if (r == c.rank()) continue;
    for (const auto& cap : incoming[static_cast<std::size_t>(r)]) {
      mine[static_cast<std::size_t>(cap.ev)].push_back(cap.p);
    }
  }

  for (std::size_t e = 0; e < events.size(); ++e) {
    if (domains.ownerOf(events[e].pos) != c.rank()) continue;
    auto& region = mine[e];
    if (region.empty()) continue;
    std::sort(region.begin(), region.end(),
              [](const Particle& a, const Particle& b) { return a.id < b.id; });
    pool_->submit(step_, std::move(region), events[e].pos, events[e].energy,
                  cfg_.surrogate_horizon);
    ++stats.regions_sent;
  }
}

const std::unordered_map<std::uint64_t, std::size_t>& Simulation::idIndex() {
  if (!id_index_valid_ || id_index_.size() != n_local_) {
    id_index_.clear();
    id_index_.reserve(n_local_);
    for (std::size_t i = 0; i < n_local_; ++i) id_index_[parts_[i].id] = i;
    id_index_valid_ = true;
  }
  return id_index_;
}

void Simulation::receiveAndReplace(StepStats& stats) {
  // Per-rank pools hold only regions this rank owns; the predictions
  // allgather so a frozen particle that migrated since capture is still
  // found by id wherever it now lives.
  const auto due = pool_ ? pool_->collectDue(step_) : std::vector<std::vector<Particle>>{};
  stats.regions_received += static_cast<int>(due.size());
  std::vector<Particle> flat;
  for (const auto& region : due) flat.insert(flat.end(), region.begin(), region.end());
  const auto all = comm().allgatherv(flat);
  std::vector<Particle> merged;
  for (const auto& v : all) merged.insert(merged.end(), v.begin(), v.end());
  applyPredictions(merged, stats);
}

void Simulation::applyPredictions(std::span<const Particle> preds, StepStats& stats) {
  if (preds.empty()) return;
  // The persistent id index survives across receives and steps: in-place
  // replacement keeps both ids and array positions stable, so it rebuilds
  // only after phase 0 reorders the locals (or their count changes).
  const auto* index = &idIndex();
  int replaced = 0;
  for (const auto& q : preds) {
    auto it = index->find(q.id);
    // A mismatched hit proves the index stale (an external reorder through
    // particles()). A miss is no such proof: the prediction list is global,
    // and ~(P-1)/P of its ids live on other ranks.
    if (it != index->end() && parts_[it->second].id != q.id) {
      id_index_valid_ = false;
      index = &idIndex();
      it = index->find(q.id);
    }
    if (it == index->end()) continue;  // lives on another rank / left the domain
    Particle& p = parts_[it->second];
    p.pos = q.pos;
    p.vel = q.vel;
    p.u = q.u;
    p.rho = q.rho;
    p.h = q.h;
    p.frozen = 0;
    ++replaced;
  }
  stats.particles_replaced += replaced;
  if (replaced > 0) {
    step_ctx_.invalidate();  // surrogate moved particles
    // Replaced locals may be ghost-exported elsewhere: positions jumped, so
    // the exchanged sets must rebuild before the next force pass.
    dist_->markDirty();
  }
}

void Simulation::directFeedback(const std::vector<stellar::SnEvent>& events) {
  // Conventional scheme: dump E_SN as thermal energy into the gas within
  // feedback_radius of the progenitor (falling back to the nearest particle).
  comm::Comm& c = comm();
  for (const auto& ev : events) {
    std::vector<std::size_t> sel;
    double mass_local = 0.0;
    for (std::size_t i = 0; i < n_local_; ++i) {
      const auto& q = parts_[i];
      if (!q.isGas()) continue;
      if ((q.pos - ev.pos).norm() < cfg_.feedback_radius) {
        sel.push_back(i);
        mass_local += q.mass;
      }
    }
    const double mass_total = c.allreduce(mass_local, comm::Op::Sum);
    if (mass_total > 0.0) {
      for (const auto i : sel) parts_[i].u += ev.energy / mass_total;
      continue;
    }
    // Nearest-particle fallback, resolved collectively: global minimum
    // distance, ties broken toward the lowest rank.
    double best = std::numeric_limits<double>::max();
    std::size_t arg = n_local_;
    for (std::size_t i = 0; i < n_local_; ++i) {
      if (!parts_[i].isGas()) continue;
      const double d = (parts_[i].pos - ev.pos).norm();
      if (d < best) {
        best = d;
        arg = i;
      }
    }
    const double global_best = c.allreduce(best, comm::Op::Min);
    if (global_best >= std::numeric_limits<double>::max()) continue;  // no gas at all
    const int claim =
        (arg < n_local_ && best == global_best) ? c.rank() : std::numeric_limits<int>::max();
    const int winner = c.allreduce(claim, comm::Op::Min);
    if (winner == c.rank()) parts_[arg].u += ev.energy / parts_[arg].mass;
  }
}

void Simulation::allreduceSum(double* vals, int n) {
  if (n <= 0) return;
  const std::vector<double> local(vals, vals + n);
  // allgather + rank-ordered summation: every rank computes the same sum of
  // the same addends in the same order, so the result is bitwise identical
  // across ranks and across repeated calls (a scalar allreduce per element
  // would give the same bits, at n collectives instead of one).
  const auto parts = comm().allgatherv(local);
  for (int k = 0; k < n; ++k) vals[k] = 0.0;
  for (const auto& p : parts) {
    if (static_cast<int>(p.size()) != n) {
      // A mismatched contribution means the collective was entered with
      // diverging n across ranks — a silent partial sum would break the
      // bitwise rank-invariance contract undetectably.
      throw std::runtime_error("allreduceSum: rank contribution size mismatch");
    }
    for (int k = 0; k < n; ++k) vals[k] += p[k];
  }
}

EnergyReport Simulation::energyReport() const {
  EnergyReport e;
  for (const auto& p : localSpan()) {
    e.kinetic += 0.5 * p.mass * p.vel.norm2();
    if (p.isGas()) e.thermal += p.mass * p.u;
    // pot_i = sum_j -G m_j / r_ij visits every pair from both sides, so the
    // pair potential energy is half of sum(m_i * pot_i). The seed skipped
    // the 1/2 here and compensated inside total() only, leaving direct
    // readers of `potential` with twice the physical energy.
    e.potential += 0.5 * p.mass * p.pot;
  }
  return e;
}

Vec3d Simulation::totalMomentum() const {
  Vec3d m{};
  for (const auto& p : localSpan()) m += p.mass * p.vel;
  return m;
}

Vec3d Simulation::totalAngularMomentum() const {
  Vec3d l{};
  for (const auto& p : localSpan()) l += p.mass * p.pos.cross(p.vel);
  return l;
}

EnergyReport Simulation::globalEnergyReport() {
  const EnergyReport e = energyReport();
  double v[3] = {e.kinetic, e.thermal, e.potential};
  allreduceSum(v, 3);
  return {v[0], v[1], v[2]};
}

Vec3d Simulation::globalMomentum() {
  const Vec3d m = totalMomentum();
  double v[3] = {m.x, m.y, m.z};
  allreduceSum(v, 3);
  return {v[0], v[1], v[2]};
}

Vec3d Simulation::globalAngularMomentum() {
  const Vec3d l = totalAngularMomentum();
  double v[3] = {l.x, l.y, l.z};
  allreduceSum(v, 3);
  return {v[0], v[1], v[2]};
}

util::Histogram Simulation::densityPdf(int bins) const {
  util::Histogram h(1e-8, 1e4, static_cast<std::size_t>(bins), /*log=*/true);
  for (const auto& p : localSpan()) {
    if (p.isGas()) h.add(p.rho, p.mass);
  }
  return h;
}

util::Histogram Simulation::temperaturePdf(int bins) const {
  util::Histogram h(1.0, 1e9, static_cast<std::size_t>(bins), /*log=*/true);
  for (const auto& p : localSpan()) {
    if (p.isGas()) h.add(units::u_to_temperature(p.u, 0.6), p.mass);
  }
  return h;
}

std::vector<double> Simulation::columnDensityMap(int axis, int nx, int ny,
                                                 double half_extent) const {
  std::vector<double> map(static_cast<std::size_t>(nx) * ny, 0.0);
  const double cell_x = 2.0 * half_extent / nx;
  const double cell_y = 2.0 * half_extent / ny;
  for (const auto& p : localSpan()) {
    if (!p.isGas()) continue;
    double u, v;
    switch (axis) {
      case 0: u = p.pos.y; v = p.pos.z; break;   // project along x
      case 1: u = p.pos.x; v = p.pos.z; break;   // along y (edge-on x-z)
      default: u = p.pos.x; v = p.pos.y; break;  // along z (face-on x-y)
    }
    const int ix = static_cast<int>((u + half_extent) / cell_x);
    const int iy = static_cast<int>((v + half_extent) / cell_y);
    if (ix < 0 || ix >= nx || iy < 0 || iy >= ny) continue;
    map[static_cast<std::size_t>(iy) * nx + ix] += p.mass / (cell_x * cell_y);
  }
  return map;
}

void Simulation::validateConfig() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("SimulationConfig: " + what);
  };
  if (!(cfg_.dt_global > 0.0) || !std::isfinite(cfg_.dt_global)) {
    bad("dt_global must be positive and finite");
  }
  if (!(cfg_.eta_acc > 0.0)) bad("eta_acc must be positive");
  if (!(cfg_.rung_safety > 0.0)) bad("rung_safety must be positive");
  if (cfg_.max_rung < 0 || cfg_.max_rung >= kMaxRungs) {
    bad("max_rung must lie in [0, " + std::to_string(kMaxRungs - 1) + "]");
  }
  if (!(cfg_.sn_box_size > 0.0)) bad("sn_box_size must be positive");
  if (!(cfg_.surrogate_horizon > 0.0)) bad("surrogate_horizon must be positive");
  if (cfg_.return_interval <= 0) bad("return_interval must be positive");
  if (cfg_.n_pool_nodes <= 0) bad("n_pool_nodes must be positive");
  if (!(cfg_.feedback_radius > 0.0)) bad("feedback_radius must be positive");
  if (cfg_.sph.n_ngb <= 0) bad("sph.n_ngb must be positive");
  if (!(cfg_.sph.cfl > 0.0)) bad("sph.cfl must be positive");
  if (!(cfg_.gravity.theta >= 0.0)) bad("gravity.theta must be non-negative");
  // A pinned (non-Auto) backend the host cannot execute would be silently
  // clamped by resolveIsa — an explicit pin deserves an explicit failure.
  const auto runnable = [](pikg::Isa isa) {
    return isa == pikg::Isa::Auto || pikg::resolveIsa(isa) == isa;
  };
  if (!runnable(cfg_.gravity.isa)) {
    bad("gravity.isa pins a backend this host cannot execute");
  }
  if (!runnable(cfg_.sph.isa)) bad("sph.isa pins a backend this host cannot execute");
}

void Simulation::validateStepInvariants() {
  // Local sweep: the state published at the step boundary must be finite
  // everywhere observers read it. Sequential index-order accumulation keeps
  // mass and the (mod-2^64 exact) id sum deterministic.
  std::string err;
  double mass = 0.0;
  std::uint64_t id_sum = 0;
  for (std::size_t i = 0; i < n_local_; ++i) {
    const auto& p = parts_[i];
    mass += p.mass;
    id_sum += p.id;
    const bool finite =
        std::isfinite(p.pos.x) && std::isfinite(p.pos.y) && std::isfinite(p.pos.z) &&
        std::isfinite(p.vel.x) && std::isfinite(p.vel.y) && std::isfinite(p.vel.z) &&
        std::isfinite(p.acc.x) && std::isfinite(p.acc.y) && std::isfinite(p.acc.z) &&
        (!p.isGas() || (std::isfinite(p.u) && p.u > 0.0));
    if (!finite && err.empty()) {
      err = "non-finite state on particle id " + std::to_string(p.id);
    }
  }

  // Global conservation tallies (collective and uniform: validate_steps must
  // be set on every rank, like every other config knob).
  double v[2] = {static_cast<double>(n_local_), mass};
  allreduceSum(v, 2);
  const std::uint64_t gid = comm().allreduce(id_sum, comm::Op::Sum);
  const long gcount = static_cast<long>(v[0] + 0.5);
  const double gmass = v[1];

  if (expected_count_ < 0) {
    // First validated step: capture the baselines. Every step-path operation
    // conserves count, total mass and the id population (star formation
    // converts in place; captures freeze copies; predictions preserve ids
    // and masses bitwise), so later deviation is corruption.
    expected_count_ = gcount;
    expected_mass_ = gmass;
    expected_id_sum_ = gid;
  } else if (err.empty()) {
    if (gcount != expected_count_) {
      err = "global particle count changed: " + std::to_string(expected_count_) +
            " -> " + std::to_string(gcount);
    } else if (gid != expected_id_sum_) {
      err = "global id population changed (id checksum mismatch)";
    } else if (std::abs(gmass - expected_mass_) >
               1e-10 * std::max(1.0, std::abs(expected_mass_))) {
      err = "global mass drifted: " + std::to_string(expected_mass_) + " -> " +
            std::to_string(gmass);
    }
  }

  // The trip decision is collective: either every rank proceeds to the
  // (collective) post-mortem checkpoint and throws, or none does — a locally
  // detected fault can never strand peers inside a collective.
  if (comm().allreduce(err.empty() ? 0 : 1, comm::Op::Max) == 0) return;

  if (err.empty()) err = "a peer rank failed step validation";
  std::string diag = "step validation failed at step " + std::to_string(step_) +
                     " on rank " + std::to_string(comm().rank()) + ": " + err;
  if (!cfg_.abort_checkpoint_path.empty()) {
    try {
      io::writeCheckpoint(cfg_.abort_checkpoint_path, *this);
      diag += " [post-mortem checkpoint: " + cfg_.abort_checkpoint_path + "]";
    } catch (const std::exception& e) {
      diag += std::string(" [post-mortem checkpoint failed: ") + e.what() + "]";
    }
  }
  throw ValidationError(diag);
}

namespace {

/// Payload format of serializeState. v7 (the only version read or written)
/// is: config, clocks, rng, the working array (locals, then ghosts, with
/// their work counters) and the local count, pending pool predictions with
/// job ids plus the submission counter, and the engine block every payload
/// carries: the LET imports, the staleness flag, the domain cuts, the ghost
/// export layout and the two drift accumulators. A payload of any other
/// version fails restore loudly.
constexpr std::uint32_t kStateVersion = 7;

}  // namespace

/// Checkpoint field list of the config (io/serialize.hpp). Named namespace:
/// the codec finds it by argument-dependent lookup.
template <class Io, io::Record<SimulationConfig> C>
void fields(Io& io, C& c) {
  io(c.dt_global, c.use_surrogate, c.adaptive_timestep, c.hierarchical_timestep,
     c.max_rung, c.eta_acc, c.timestep_limiter, c.rung_safety, c.sn_box_size,
     c.surrogate_horizon, c.return_interval, c.n_pool_nodes, c.gravity.G,
     c.gravity.theta, c.gravity.group_size, c.gravity.leaf_size, c.gravity.kernel,
     c.gravity.isa, c.sph.kernel.type, c.sph.n_ngb, c.sph.alpha_visc, c.sph.beta_visc,
     c.sph.cfl, c.sph.group_size, c.sph.leaf_size, c.sph.max_h_iterations,
     c.sph.h_tolerance, c.sph.isa, c.star_formation.rho_threshold,
     c.star_formation.temp_threshold, c.star_formation.efficiency, c.star_formation.mu,
     c.cooling.temp_floor, c.cooling.temp_ceil, c.cooling.heating_gamma, c.cooling.mu,
     c.enable_star_formation, c.enable_cooling, c.feedback_radius, c.validate_steps,
     c.abort_checkpoint_path, c.seed);
}

template <class Io>
void Simulation::clockAndParticleFields(Io& io, util::Pcg32::State& rng,
                                        std::uint64_t& n_local) {
  io(t_, step_, last_cfl_dt_, rng, sfr_history_, parts_, n_local);
}

void Simulation::serializeState(io::ByteWriter& w) {
  w(kStateVersion, cfg_);
  auto rng_state = rng_.saveState();
  std::uint64_t n_local = n_local_;
  clockAndParticleFields(w, rng_state, n_local);

  // Undelivered pool predictions. snapshotResults drains the pipeline —
  // predictions are pure functions of their jobs, so the drained results
  // are exactly what the continuous run would have collected later. The
  // submission counter keeps a restored run's job ids (and with them the
  // NEXT checkpoint's pending keys) those of the continuous run.
  w(pool_ != nullptr);
  if (pool_) {
    const auto pending = pool_->snapshotResults();
    w(pending, pool_->nextJobId());
  }

  // Exchange cache + engine state: restoring these keeps the cache-reuse
  // decisions (and with them the bitwise trajectory) identical to the
  // continuous run even when the cache would have survived the boundary.
  dist_->serializeState(w);
}

void Simulation::restoreState(io::ByteReader& r) {
  const auto version = r.read<std::uint32_t>();
  if (version != kStateVersion) {
    throw std::runtime_error("checkpoint: unsupported state version " +
                             std::to_string(version));
  }
  auto saved = r.read<SimulationConfig>();
  // The pool and the engine are construction-time objects; their shaping
  // knobs cannot be replayed into a live instance and must match.
  if (saved.use_surrogate != cfg_.use_surrogate) {
    throw std::runtime_error("checkpoint: use_surrogate mismatch");
  }
  if (pool_ && (saved.return_interval != pool_->returnInterval() ||
                std::max(1, saved.n_pool_nodes) != pool_->poolNodes())) {
    throw std::runtime_error(
        "checkpoint: pool shape mismatch (return_interval / n_pool_nodes)");
  }
  cfg_ = std::move(saved);

  util::Pcg32::State rng_state;
  std::uint64_t n_local = 0;
  clockAndParticleFields(r, rng_state, n_local);
  rng_.restoreState(rng_state);
  // Whether the rest may be ghosts is the engine's to check (a stale cache
  // holds none).
  if (n_local > parts_.size()) {
    throw std::runtime_error("checkpoint: local count " + std::to_string(n_local) +
                             " exceeds the " + std::to_string(parts_.size()) +
                             "-particle list");
  }
  n_local_ = static_cast<std::size_t>(n_local);
  id_index_valid_ = false;
  stats_ = StepStats{};
  wake_requests_.clear();
  // Conservation baselines recapture lazily: every quantity they track is
  // conserved, so recomputing from the restored state is identical.
  expected_count_ = -1;

  if (r.read<bool>() != (pool_ != nullptr)) {
    throw std::runtime_error("checkpoint: pool presence mismatch");
  }
  if (pool_) {
    auto pending = r.read<std::vector<PoolNodeScheduler::PendingResult>>();
    pool_->restoreResults(std::move(pending), r.read<std::uint64_t>());
    fallback_baseline_ = pool_->jobsFallback();
  }

  dist_->restoreState(r, n_local_, parts_.size() - n_local_);

  // Tree caches rebuild from the restored positions.
  step_ctx_.invalidate();
}

}  // namespace asura::core
