#pragma once
/// \file simulation.hpp
/// \brief The headline contribution: N-body/SPH integration with the
/// SN-bypassing surrogate and a fixed global timestep (paper §3.2).
///
/// One global step (categories bracket the paper's Fig. 6/7 legend):
///  0. Exchange_Particle      — domain decomposition + migration (free at
///                              one rank)
///  1. Identify_SNe           — stars exploding in (t, t + dt_global]
///  2. Send_SNe               — ship (60 pc)^3 regions to pool nodes
///  3. Integration            — first kick + drift (no feedback energy)
///     1st Make_Local_Tree / 1st Exchange_LET / 1st Calc_Force — gravity
///     1st Calc_Kernel_Size_and_Density — SPH h/rho solve
///     2nd Calc_Force (pre-kick hydro) + Final_kick
///  4. Receive_SNe            — predictions due this step replace particles
///                              by id
///  5. Star_Formation + Feedback_and_Cooling
///  6. 2nd Calc_Kernel_Size / 2nd Make_Tree / 2nd Exchange_LET /
///     2nd Calc_Force         — recompute hydro after energy changes
///  7. next step (fixed dt_global; the conventional baseline instead obeys
///     the global CFL minimum and injects SN energy directly).
///
/// # Hierarchical block timesteps (cfg.hierarchical_timestep)
///
/// With the block scheme, stage 3 above becomes a sub-step loop over
/// power-of-two rungs instead of one global kick-drift-kick. Each particle
/// carries a rung k (dt_k = dt_global / 2^k) chosen from its acceleration
/// criterion eta*sqrt(eps/|a|) and, for gas, the per-particle CFL clock
/// cfl*(h/2)/vsig recorded by the previous force pass. Sub-step n (in units
/// of dt_global / 2^max_rung, advancing by the deepest occupied rung):
///
///   a. opening kick for particles whose step starts at n (their own dt/2),
///      plus the u predictor for gas;
///   b. drift ALL particles by the sub-step (inactive particles advance
///      ballistically — the "prediction" of FAST-style schemes);
///   c. cached trees get refreshPositions (O(N) moment resweep, no rebuild,
///      first sub-step excepted) and the force pass runs on the closing set
///      (particles whose step ends at n): density, gravity and hydro force
///      walk Morton groups built over those targets only;
///   d. closing kick for particles whose step ends at n, then rung update —
///      moving to a finer rung is always allowed, coarsening only when the
///      coarser boundary is aligned with n (the block invariant).
///
/// SN identify/send/receive, star formation, cooling and the 2nd force pass
/// stay at full-step boundaries, where every rung synchronizes — exactly
/// the paper's scheme with the quiescent disc decoupled from SN-driven
/// timestep collapse (§3.2/§5.3). There is one force pass
/// (computeForces): a full pass is the sub-step pass with every local as
/// gravity target and every local gas particle as SPH target, so the
/// global, hierarchical, serial and distributed paths share its code.
///
/// # Saitoh–Makino timestep limiter (cfg.timestep_limiter)
///
/// Block rungs alone let a hot, deeply-refined particle slam energy into a
/// cold neighbour that stays inactive on a rung many levels coarser — the
/// neighbour coasts on stale forces through the whole interaction (Saitoh &
/// Makino 2009, the regime ASURA-FDPS hits when SN ejecta meet cold gas).
/// The limiter closes that hole in three places:
///
///  * every hydro force pass records each target's deepest neighbour rung
///    (Particle::rung_ngb) and, during sub-steps, emits a *wake request* for
///    any evaluated pair whose rung gap exceeds sph::kLimiterGap (= 2);
///  * after each sub-step's closing kick, requested neighbours that are
///    mid-step are woken by *step-shortening* (SM09's original move): the
///    step in flight is re-planned to end at the next boundary of the new
///    rung (requester rung - kLimiterGap), and the opening updates the
///    particle already received — the velocity half-kick and the full
///    forward u update, both sized for the old, longer plan — are
///    re-synchronized by their share of the length change on the held
///    acc/du_dt. The explicit per-particle step_begin_/step_end_
///    bookkeeping (new in this revision; PR 2 derived both from rung
///    alignment) then closes the shortened step with fresh forces at most
///    2^kLimiterGap active steps after the violation was detected;
///  * the rung criteria themselves floor a gas particle's next rung at
///    rung_ngb - 2, and the sync point promotes any rung the final force
///    pass still sees lagging — every full-step boundary is published in a
///    limiter-consistent state.
///
/// With the limiter enforcing the pair-gap invariant (and u prediction
/// keeping inactive-neighbour pressures current), the blanket rung_safety
/// margin is no longer a *stability* requirement and its default relaxes
/// from 0.35 to 0.8: on the SN blastwave this cuts active force work
/// ~1.4-1.6x at the honest cost of ~1.8x in energy-drift rate (absolute
/// drift a few percent per 0.01 Myr either way — see BENCH_timestep.json),
/// while the un-limited relaxed run both violates the pair gap (6 vs 2)
/// and tracks cold-side thermal state worse.
///
/// The sub-step loop's O(N) sweeps (rung assignment, opening-kick scan,
/// all-particle drift, closing-set collection) are OpenMP-parallel and
/// bitwise deterministic in the thread count: per-particle updates are
/// independent, reductions are over integers, and the closing set is
/// collected by fixed-chunk count-then-fill in index order.
///
/// # One step driver at every rank count (comm(), attachDistributed)
///
/// Every Simulation owns a core::DistributedEngine (see distributed.hpp):
/// by default one on a one-rank self communicator, on which every
/// collective completes locally (comm::Cluster::selfComm); attachDistributed
/// replaces it with one on a multi-rank communicator. step() is one program
/// on the engine's communicator (comm()): phase 0 (decompose + migrate),
/// force passes over locals + LET imports + hydro ghosts with collective
/// cache decisions, the SN phases, the step's reductions, the global*
/// tallies, the validator and the checkpoint collectives. The engine's
/// one-rank rules make a serial step the one-rank step, not a second path:
/// SN events are handled in (t_explode, star_id) order and regions are
/// submitted id-sorted at every rank count.
///
/// The particle array holds [locals | ghosts] with nLocal() marking the
/// boundary; the suffix is the only copy of the ghosts, stays attached
/// between steps, and is empty at one rank. Every local-state loop in this
/// file is bounded by n_local_, every all-particle drift spans the ghosts
/// too (ballistic coasting). In the hierarchical scheme the per-sub-step
/// deepest rung is max-reduced across ranks so all ranks run the same
/// sub-step cadence (mid-loop collectives would otherwise deadlock), and
/// mid-step wakes apply to local neighbours only — a ghost's home rank
/// wakes the real particle at its own passes.

#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/comm.hpp"
#include "core/pool.hpp"
#include "core/surrogate.hpp"
#include "fdps/context.hpp"
#include "fdps/particle.hpp"
#include "gravity/gravity.hpp"
#include "sph/sph.hpp"
#include "stellar/stellar.hpp"
#include "util/histogram.hpp"
#include "util/timer.hpp"

namespace asura::io {
class ByteWriter;
class ByteReader;
}  // namespace asura::io

namespace asura::core {

class DistributedEngine;

/// Thrown by the post-step run-integrity validator (cfg.validate_steps)
/// when a step published non-finite particle state or broke the global
/// mass/count/id conservation invariants. The message carries the step,
/// rank and the violated quantity; if cfg.abort_checkpoint_path is set, a
/// post-mortem checkpoint was written before the throw.
class ValidationError : public std::runtime_error {
 public:
  explicit ValidationError(const std::string& what) : std::runtime_error(what) {}
};

/// Number of representable rungs: rung k in [0, kMaxRungs) has
/// dt = dt_global / 2^k.
inline constexpr int kMaxRungs = 16;

struct SimulationConfig {
  // --- timestep scheme ---
  double dt_global = 0.002;       ///< 2,000 yr (paper §3.2)
  bool use_surrogate = true;      ///< false: conventional direct feedback
  bool adaptive_timestep = false; ///< true: global CFL minimum (baseline)
  /// Block-timestep scheme: per-particle power-of-two rungs with active-set
  /// force passes between full-step synchronization points. Takes
  /// precedence over adaptive_timestep.
  bool hierarchical_timestep = false;
  int max_rung = 10;              ///< deepest rung: dt_min = dt_global / 2^max_rung
  /// Accel criterion dt = eta * sqrt(eps/|a|), margin included. Gravity has
  /// no timestep limiter (Saitoh–Makino is a hydro mechanism), so this
  /// clock keeps its own safety and is *not* scaled by rung_safety; the
  /// default equals PR 2's effective accel margin (0.3 x the old blanket
  /// rung_safety = 0.35).
  double eta_acc = 0.105;
  /// Saitoh & Makino (2009) limiter: wake inactive neighbours whose rung
  /// lags an active particle's by more than sph::kLimiterGap mid-step
  /// instead of letting them coast on stale forces until their own (coarse)
  /// boundary. Only meaningful with hierarchical_timestep.
  bool timestep_limiter = true;
  /// Safety factor on the per-particle CFL rung criterion. Individual
  /// timesteps lose the global scheme's accidental margin (everyone shared
  /// the *minimum* dt), so marginal rungs integrate right at their
  /// stability edge. PR 2 pinned this at a blanket 0.35; with the limiter
  /// waking lagging cold neighbours (plus u prediction for inactive
  /// neighbours) the margin is a cost/accuracy dial rather than a
  /// stability requirement, and the default relaxes to 0.8 — ~1.4-1.6x
  /// less active-set force work on SN-driven phases for ~1.8x the (small)
  /// energy-drift rate. Set 0.35 to reproduce PR 2's accuracy point.
  double rung_safety = 0.8;

  // --- surrogate / pool nodes ---
  double sn_box_size = 60.0;      ///< pc, region side length
  double surrogate_horizon = 0.1; ///< Myr (= 50 x 2,000 yr)
  long return_interval = 50;      ///< steps until predictions come back
  int n_pool_nodes = 4;           ///< worker threads (paper: <50 nodes)

  // --- physics ---
  /// gravity.isa and sph.isa pick each force pass's PIKG kernel backend:
  /// Auto resolves to the widest ISA the host CPU and the build both support
  /// (kernels/registry.hpp); a pin (Scalar / Avx2 / Avx512) the host cannot
  /// execute is rejected by validateConfig.
  gravity::GravityParams gravity{};
  sph::SphParams sph{};
  stellar::StarFormationParams star_formation{};
  stellar::CoolingParams cooling{};
  bool enable_star_formation = true;
  bool enable_cooling = true;
  double feedback_radius = 2.0;  ///< pc, conventional direct-injection radius

  // --- run integrity ---
  /// Run the cheap post-step validator: finite positions/velocities/energies
  /// on every local, plus global particle-count, mass and id conservation
  /// (collective when distributed). A violation throws ValidationError.
  bool validate_steps = false;
  /// When the validator trips and this is non-empty, a post-mortem
  /// checkpoint of the (corrupt) state is written here before the throw so
  /// the failure can be inspected offline.
  std::string abort_checkpoint_path;

  std::uint64_t seed = 12345;
};

struct StepStats {
  int sn_identified = 0;
  int regions_sent = 0;
  int regions_received = 0;
  int particles_replaced = 0;
  /// Pool jobs (completed since the last step) whose prediction came from
  /// the fallback backend or the identity last resort instead of the primary
  /// surrogate — the graceful-degradation visibility counter.
  int surrogate_fallbacks = 0;
  int stars_formed = 0;
  double dt_used = 0.0;
  int tree_builds = 0;    ///< trees (re)built this step (seed: 6; pipeline: <=3 quiet)
  int tree_refreshes = 0; ///< O(N) smoothing/position refreshes standing in for rebuilds
  // --- hierarchical block timesteps ---
  int substeps = 0;  ///< sub-step iterations executed (0 in global-step mode)
  /// Sub-units (dt_global / 2^max_rung) actually advanced by the sub-step
  /// loop. The time-consistency invariant: whenever substeps > 0 this equals
  /// 2^max_rung *exactly* — drift bookkeeping is integer, so the per-particle
  /// drifts tile dt_global with no floating-point shortfall.
  long substep_units = 0;
  // --- Saitoh–Makino timestep limiter ---
  int limiter_wakes = 0;  ///< inactive particles woken (kick-resynced) mid-step
  /// Lagging rungs promoted at the sync point from the final force pass's
  /// requests (no kick resync needed: every particle is synchronized there).
  int limiter_sync_promotions = 0;
  std::array<int, kMaxRungs> rung_histogram{};  ///< particles per rung at step start
  std::array<std::uint64_t, kMaxRungs> rung_force_evals{};  ///< closing targets per rung
  /// Per-particle force-pass target evaluations this step (gravity targets +
  /// gas hydro targets, all passes). The hierarchical scheme's headline
  /// metric: force evaluations per simulated Myr drop by the rung decoupling.
  std::uint64_t force_evaluations = 0;
  gravity::GravityStats gravity_stats{};  ///< hierarchical: summed over sub-steps
  sph::DensityStats density_stats{};
  sph::ForceStats force_stats{};
  // --- distributed exchange cache (all zero at one rank) ---
  int let_exchanges = 0;         ///< LET walks + alltoalls this step (full or re-walk)
  int let_export_walks = 0;      ///< exportLet tree walks (P-1 per exchange)
  int let_reuses = 0;            ///< force passes served from the cached LET set
  int ghost_exchanges = 0;       ///< full ghost selections + alltoalls
  int ghost_value_refreshes = 0; ///< payload-only refreshes of the cached list
  int ghost_reuses = 0;          ///< passes that reused the coasted ghosts as-is
  int migrated = 0;              ///< particles that changed owner (global)
  int reach_retries = 0;         ///< stale-reach re-exchange + re-solve rounds
  /// Passes that hit kMaxReachRetries with the reach still escaped — the
  /// pass proceeded on a truncated neighbour set (raise ghost_h_margin).
  int reach_giveups = 0;
  // --- work-weighted balancing (the first two are zero at one rank) ---
  int rebalances = 0;            ///< imbalance-triggered domain re-cuts this step
  /// Rank load max/mean measured by this step's DomainDecomposer::maintain
  /// (0 unless the engine runs with decompose_interval = 0).
  double balance_max_over_mean = 0.0;
  /// Wall-clock seconds this rank spent in the pure-compute sections of the
  /// step (density solves, gravity and hydro force accumulation). The
  /// imbalance metrics below are allgathered from this.
  double work_seconds = 0.0;
  double rank_work_max = 0.0;   ///< max over ranks of work_seconds
  double rank_work_mean = 0.0;  ///< mean over ranks of work_seconds
  /// Same max/mean over the per-rank force_evaluations — a deterministic
  /// load measure immune to the scheduler noise wall clocks pick up when
  /// ranks share cores (the in-process cluster always does).
  double rank_evals_max = 0.0;
  double rank_evals_mean = 0.0;
};

struct EnergyReport {
  double kinetic = 0.0;
  double thermal = 0.0;
  /// Gravitational potential energy, pair-counted once: the accumulation
  /// applies the 1/2 to sum(m_i * pot_i), which visits every pair from both
  /// sides. (The seed exported the doubled sum and halved it only inside
  /// total(), so direct consumers of `potential` read 2x the energy.)
  double potential = 0.0;
  [[nodiscard]] double total() const { return kinetic + thermal + potential; }
};

class Simulation {
 public:
  Simulation(std::vector<fdps::Particle> particles, SimulationConfig cfg,
             std::shared_ptr<SurrogateBackend> backend = nullptr);
  ~Simulation();

  /// Replace the default one-rank engine with `engine` (see the step-driver
  /// section above). Must be called before the first step, by every rank of
  /// the engine's communicator.
  void attachDistributed(std::unique_ptr<DistributedEngine> engine);
  /// The engine (never null).
  [[nodiscard]] DistributedEngine* distributed() { return dist_.get(); }
  /// The engine's communicator, on which step(), the global* tallies and
  /// the checkpoint entry points run their collectives. Without an attached
  /// engine it is this simulation's one-rank self communicator, which sends
  /// nothing.
  [[nodiscard]] comm::Comm& comm();

  /// Advance one global step; returns per-step statistics. Collective
  /// across the engine's ranks.
  StepStats step();

  /// Statistics of the most recent step. Backed by a member that step()
  /// must fully reset at entry — in particular rung_histogram and the
  /// limiter counters, which would otherwise leak stale counts into
  /// global-step mode when a run alternates hierarchical on/off.
  [[nodiscard]] const StepStats& lastStats() const { return stats_; }

  /// Mutable configuration access, e.g. to alternate hierarchical_timestep
  /// on/off or tune rung_safety between steps. Takes effect at the next
  /// step() (mid-step reconfiguration is impossible by construction: the
  /// sub-step loop runs to the sync point within one step() call).
  [[nodiscard]] SimulationConfig& config() { return cfg_; }
  [[nodiscard]] const SimulationConfig& config() const { return cfg_; }

  [[nodiscard]] double time() const { return t_; }
  [[nodiscard]] long stepCount() const { return step_; }
  /// Count of locally *owned* particles: particles()[0, nLocal()) are
  /// locals, anything beyond is an imported ghost (none at one rank). The
  /// engine sets it at every rank count and nothing resyncs it.
  [[nodiscard]] std::size_t nLocal() const { return n_local_; }
  [[nodiscard]] const std::vector<fdps::Particle>& particles() const { return parts_; }
  /// Mutable access for drivers/tests: particle state, not the array's
  /// length — nLocal() would not follow a resize, so changing the length is
  /// unsupported. External mutation of thermodynamic state (u, vel) between
  /// steps is only reflected in the timestep logic after the next force
  /// pass refreshes cs/vsig — true of the adaptive baseline's recorded CFL
  /// minimum and of the rung criteria alike.
  [[nodiscard]] std::vector<fdps::Particle>& particles() { return parts_; }
  [[nodiscard]] const util::TimerRegistry& timers() const { return timers_; }
  [[nodiscard]] const std::vector<double>& sfrHistory() const { return sfr_history_; }
  [[nodiscard]] PoolNodeScheduler* pool() { return pool_ ? pool_.get() : nullptr; }

  /// Energy/momentum bookkeeping (potential from the last force pass).
  /// Local-owned particles only — on a distributed rank this is the rank's
  /// share; use the global* variants for the whole system.
  [[nodiscard]] EnergyReport energyReport() const;
  [[nodiscard]] util::Vec3d totalMomentum() const;
  [[nodiscard]] util::Vec3d totalAngularMomentum() const;

  /// Whole-system energy/momentum: the local variants summed over comm()
  /// by allreduceSum. *Collective* (every rank of comm() must call in the
  /// same order); every rank gets the deterministic rank-ordered sum, so
  /// drivers and tests never gather particle arrays to total them.
  [[nodiscard]] EnergyReport globalEnergyReport();
  [[nodiscard]] util::Vec3d globalMomentum();
  [[nodiscard]] util::Vec3d globalAngularMomentum();

  /// Density-temperature phase PDFs (paper §3.3 validation metrics).
  [[nodiscard]] util::Histogram densityPdf(int bins = 40) const;
  [[nodiscard]] util::Histogram temperaturePdf(int bins = 40) const;

  /// Gas column-density map projected along an axis (0=x,1=y,2=z), for the
  /// Fig. 5 face-on / edge-on panels. Returns row-major ny*nx values
  /// [Msun/pc^2].
  [[nodiscard]] std::vector<double> columnDensityMap(int axis, int nx, int ny,
                                                     double half_extent) const;

  // --- checkpoint / restart -------------------------------------------------
  // The byte-level container (file header, per-rank gather, CRC framing)
  // lives in io/checkpoint.hpp; these two methods (de)serialize ONE rank's
  // complete restart state. Call between steps only. serializeState drains
  // the pool pipeline first — an equivalent transformation (predictions are
  // pure functions of their jobs) — and leaves the particle array as it is,
  // so a run that checkpoints and continues stays bitwise identical to one
  // that never checkpointed.

  /// Serialize this rank's full restart state: config, clocks, rng stream,
  /// the working array (locals, then the coasted ghost suffix) and the local
  /// count, undelivered pool predictions, and the distributed engine block
  /// (LET imports, staleness flag, domain cuts, ghost export layout, drift
  /// accumulators). Not const: the pool drains.
  void serializeState(io::ByteWriter& w);

  /// Liveness hook for run supervisors: called with (current step, phase id)
  /// at a handful of fixed points inside step() — entry, after integration,
  /// after the final force pass, and once per hierarchical sub-step (phase
  /// 16 + substeps, so deep steps keep publishing between sync points). A
  /// supervisor typically forwards these to Cluster::noteStep so the
  /// watchdog can tell a slow sub-step loop from a hung rank; serial and
  /// distributed ranks publish alike. Empty (the default) costs nothing.
  void setProgressReporter(std::function<void(long step, int phase)> reporter) {
    progress_ = std::move(reporter);
  }

  /// Inverse of serializeState. The Simulation must have been constructed
  /// with a compatible shape (same use_surrogate / return_interval /
  /// n_pool_nodes, an engine on the writer's rank count) — the pool and
  /// engine are construction-time objects; everything else is overwritten
  /// from the checkpoint. Throws std::runtime_error on any mismatch or
  /// malformed payload, including a local count above the particle-list
  /// length (the engine rejects a ghost suffix behind a stale cache).
  void restoreState(io::ByteReader& r);

  /// Reject configurations step() cannot integrate (non-positive dt/eta/box
  /// sizes, out-of-range rungs, nonsense pool shaping, a pinned kernel ISA
  /// the host cannot run) with a descriptive std::invalid_argument. step()
  /// calls this at entry — before any collective, so all ranks throw
  /// symmetrically; admission paths (the scenario service's create) call it
  /// up front so a bad config is rejected at the request, not steps later
  /// on a worker thread.
  void validateConfig() const;

  /// Replace the rng stream with a fresh one seeded from `seed` (and record
  /// the seed in the config). This is the ONLY sanctioned divergence point
  /// for a clone: a scenario instance restored from another instance's
  /// snapshot is bitwise identical to its source, and reseeding makes its
  /// future trajectory differ exclusively through rng-consuming paths
  /// (star formation draws, Gibbs resampling) — everything deterministic
  /// stays in lockstep. A clone that skips the reseed continues the
  /// source's exact trajectory.
  void reseedRng(std::uint64_t seed) {
    cfg_.seed = seed;
    rng_ = util::Pcg32(seed, 0x51D);
  }

 private:
  /// The clocks, rng stream, SFR history, working array and local count in
  /// checkpoint wire order; serializeState and restoreState both call it.
  /// `rng` stages the stream's state, which Pcg32 keeps private; `n_local`
  /// stages the local count, which restore validates before installing.
  template <class Io>
  void clockAndParticleFields(Io& io, util::Pcg32::State& rng, std::uint64_t& n_local);

  /// The force pass: density solve (with the distributed stale-reach
  /// protocol), ghost payload refresh, tree gravity and hydro force on
  /// `targets` (local indices) and `gas_targets` (their gas subset). A full
  /// pass names every local; a sub-step names its closing set. The caller
  /// makes the exchange valid first (DistributedEngine::ensureExchanged).
  /// Non-final passes time into the "1st …" categories and accumulate the
  /// StepStats density/gravity/force stats; the final pass of a step times
  /// into "2nd …". Wake requests are collected on block-timestep passes
  /// with the limiter on.
  void computeForces(StepStats& stats, std::span<const std::uint32_t> targets,
                     std::span<const std::uint32_t> gas_targets, bool final_pass);
  /// Block-timestep integration of one global step (replaces the global
  /// kick-drift-kick + first force pass + final kick).
  void hierarchicalIntegrate(StepStats& stats, double dt);
  /// Rung from the per-particle criteria (accel; CFL via the vsig recorded
  /// by the last hydro pass; the limiter's neighbour-rung floor), clamped
  /// to [0, max_rung].
  [[nodiscard]] int desiredRung(const fdps::Particle& p, double dt_global) const;
  /// Deterministic fixed-chunk count-then-fill of the closing set at
  /// sub-unit `n` over the locals into targets_/gas_targets_ (exact index
  /// order for any thread count), accumulating per-rung force-eval counters.
  void collectClosingSet(long n, StepStats& stats);
  /// Saitoh–Makino wake processing after the closing kick of the sub-step
  /// ending at `n`: resolve the per-neighbour target rung from the sorted
  /// request list and shorten each mid-step laggard's step in flight to end
  /// at the next boundary of its new rung, correcting the opening half-kick
  /// for the length change.
  void applyWakes(long n, long nfull, double dt_min, int kmax, StepStats& stats);
  /// Sync-point half of the limiter: promote rungs the final (full) force
  /// pass still saw lagging. Every particle is synchronized at the step
  /// boundary, so promotion needs no kick resync and publishes a
  /// limiter-consistent rung state to observers.
  void applySyncRungFloor(StepStats& stats);

  // --- SN phases (all collective on comm()) ---------------------------------

  /// Gather every rank's SN events; returns the global list sorted by
  /// (t_explode, star_id) so all ranks process events in the same order.
  [[nodiscard]] std::vector<stellar::SnEvent> gatherEvents(
      std::vector<stellar::SnEvent> local);
  /// Region capture: freeze local gas inside each event's (sn_box_size)^3
  /// box, route the copies to the event's owner rank, and submit each
  /// merged id-sorted region to the pool there.
  /// Counts the submissions in stats.regions_sent.
  void captureAndSendRegions(const std::vector<stellar::SnEvent>& events,
                             StepStats& stats);
  /// Collect the predictions due this step from this rank's pool, allgather
  /// them, and replace every rank's own locals by id from the merged list —
  /// a frozen particle that migrated since capture is found wherever it
  /// now lives.
  void receiveAndReplace(StepStats& stats);
  /// Replace locals by id from a list of predicted particles.
  void applyPredictions(std::span<const fdps::Particle> preds, StepStats& stats);
  /// Conventional direct feedback with a *global* mass normalization: gas
  /// within feedback_radius of each event shares E_SN by mass across ranks;
  /// the nearest-particle fallback resolves its owner collectively.
  void directFeedback(const std::vector<stellar::SnEvent>& events);
  /// Collective sum-reduction of `n` doubles in place, the energy/momentum
  /// tally primitive. Deterministic and identical on every rank:
  /// contributions are summed in rank order, not arrival order.
  void allreduceSum(double* vals, int n);

  /// Local span of the working array ([0, n_local_)): force targets, kicks,
  /// rung bookkeeping and diagnostics never touch the ghost suffix.
  [[nodiscard]] std::span<fdps::Particle> localSpan() { return {parts_.data(), n_local_}; }
  [[nodiscard]] std::span<const fdps::Particle> localSpan() const {
    return {parts_.data(), n_local_};
  }
  /// Density solve on `gas_targets` plus the distributed stale-reach
  /// protocol (snapshot the targets' pre-solve supports, re-exchange +
  /// restored-h re-solve while any rank's reach escaped, record a give-up
  /// at the cap). Collective, also on a rank with no targets.
  sph::DensityStats solveDensityWithReachRetries(
      std::span<const std::uint32_t> gas_targets);
  /// Id -> index lookup, rebuilt lazily after the particle array changes
  /// (add/reorder) instead of on every surrogate receive.
  const std::unordered_map<std::uint64_t, std::size_t>& idIndex();
  /// Post-step run-integrity validator (cfg_.validate_steps): finite local
  /// state plus global count/mass/id conservation, reduced over comm() (the
  /// trip decision is an allreduce, so either every rank throws or none
  /// does — no rank is left blocked in a collective).
  void validateStepInvariants();
  /// Publish a liveness phase through the progress reporter (no-op when none
  /// is installed).
  void reportProgress(int phase) {
    if (progress_) progress_(step_, phase);
  }

  std::vector<fdps::Particle> parts_;
  /// Owned-particle count; parts_[n_local_, end) is the ghost suffix (empty
  /// at one rank).
  std::size_t n_local_ = 0;
  SimulationConfig cfg_;
  std::shared_ptr<SurrogateBackend> backend_;
  std::unique_ptr<PoolNodeScheduler> pool_;
  /// The one-rank cluster behind the default engine, declared before dist_,
  /// which refers to its communicator.
  comm::Cluster self_cluster_{1};
  comm::Comm self_comm_;
  /// The exchange engine: the default one on self_comm_, or the attached one.
  std::unique_ptr<DistributedEngine> dist_;
  util::TimerRegistry timers_;
  util::Pcg32 rng_;
  stellar::KroupaImf imf_;
  double t_ = 0.0;
  long step_ = 0;
  std::vector<double> sfr_history_;  ///< Msun/Myr per step
  fdps::StepContext step_ctx_;       ///< once-per-pass tree pipeline cache
  std::unordered_map<std::uint64_t, std::size_t> id_index_;
  bool id_index_valid_ = false;
  /// CFL minimum recorded by the most recent hydro force pass — replaces
  /// the adaptive baseline's separate full-particle cflTimestep sweep.
  double last_cfl_dt_ = std::numeric_limits<double>::infinity();
  /// Pool fallback counter at the end of the previous step; the per-step
  /// StepStats::surrogate_fallbacks is the delta. Monotonic and run-local
  /// (not checkpointed — restore re-baselines from the live pool).
  std::uint64_t fallback_baseline_ = 0;
  /// Conservation baselines of the post-step validator, captured lazily at
  /// its first run (every step-path operation conserves global count, total
  /// mass and the id population, so any later deviation is corruption).
  /// Not checkpointed: recapturing from the restored state is identical.
  long expected_count_ = -1;
  double expected_mass_ = 0.0;
  std::uint64_t expected_id_sum_ = 0;
  /// Target lists of the current force pass (all locals and their gas
  /// subset on a full pass, the closing set on a sub-step), reused across
  /// passes.
  std::vector<std::uint32_t> targets_, gas_targets_;
  /// Per-local step bookkeeping of the sub-step loop (sized to n_local_;
  /// ghosts never open, close or join an active set), in sub-units of
  /// dt_global / 2^max_rung: the boundary each particle's current step
  /// opened at and the boundary it will close at. PR 2 derived both from
  /// the rung alone (per-sub-step-static); the limiter makes them explicit
  /// state because a mid-step wake *shortens* a step in flight — the woken
  /// particle's end moves to the next boundary of its new rung, which its
  /// (unchanged) opening boundary need not be aligned with.
  std::vector<long> step_begin_, step_end_;
  /// Most recent step's statistics (lastStats). step() resets this at entry.
  StepStats stats_;
  /// Wall clock accumulated around the step's pure-compute sections
  /// (density solves, gravity/hydro accumulation) — reset at step entry,
  /// published as StepStats::work_seconds and allgathered for the
  /// rank_work_max/mean imbalance metrics.
  double work_seconds_accum_ = 0.0;
  /// Liveness callback of setProgressReporter (empty: no reporting).
  std::function<void(long, int)> progress_;
  /// Saitoh–Makino wake requests of the current force pass (packed
  /// neighbour<<32|target, canonically sorted by the pass).
  std::vector<std::uint64_t> wake_requests_;
  /// Per-chunk [all, gas] counters of the closing-set collection sweep.
  std::vector<std::uint32_t> sweep_counts_;
  /// Pre-solve smoothing lengths of the pass's targets, restored before a
  /// stale-reach re-solve so the closure path matches a serial run's.
  std::vector<double> h_save_;
};

}  // namespace asura::core
