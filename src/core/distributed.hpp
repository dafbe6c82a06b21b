#pragma once
/// \file distributed.hpp
/// \brief Multi-rank step driver over the in-process SPMD Cluster
/// (paper §3.4, §5.2.1-§5.2.3).
///
/// The paper calls the LET all-to-all "the most time-consuming part with
/// the full system of Fugaku". This engine makes Simulation::step run the
/// full distributed step anatomy per rank:
///
///   decompose -> exchange owned particles -> exchange gravity LET + hydro
///   ghosts -> density/force passes over locals + imports -> SN
///   identify/send/receive with cross-rank region capture -> star
///   formation / cooling
///
/// while reusing the serial pipeline (cached trees, hierarchical rungs,
/// Saitoh-Makino limiter) within each rank. One DistributedEngine is
/// attached to each rank's Simulation; every method marked *collective*
/// must be entered by all ranks of the communicator in the same order —
/// the engine guarantees this internally by making every cache decision a
/// collective reduction over per-rank dirty flags.
///
/// # Exchange caching (the ASURA-FDPS-ML production-loop optimization)
///
/// The imported LET entry set and the hydro ghost list live in the rank's
/// fdps::StepContext and are *reused* across force passes and block-
/// timestep sub-steps. Validity contract (mirrored in context.hpp):
///
///  * invalidated by a new domain decomposition, any owned-particle
///    migration, star formation / surrogate replacement (count, species or
///    position jumps), or accumulated local drift beyond skin/2 on any
///    rank;
///  * ghosts additionally obey the stale-reach rule: exports are inflated
///    by ghost_h_margin (the density solver's growth allowance) plus the
///    skin, and any rank whose post-solve gather radius escapes its
///    exported reach triggers a collective re-exchange followed by a
///    re-solve (the old single-shot ghost exchange collected the radii before
///    the solve grew h, silently under-importing neighbours);
///  * between full exchanges, force passes may re-ship fresh *payloads*
///    for the unchanged ghost list (refreshGhostValues) — no exportLet
///    walk, no selection scan, no reach allgather.
///
/// A quiet multi-rank step therefore performs exactly one LET exchange
/// (P-1 exportLet walks) and one full ghost exchange, with the second
/// force pass and every quiet sub-step walking zero exportLet trees.
///
/// # Working-array layout
///
/// Between ensureExchanged() and detachGhosts() the rank's particle array
/// is [locals | ghost imports] with Simulation::nLocal() marking the
/// boundary. Ghosts coast ballistically through drift sweeps (their home
/// rank integrates the real particle); kicks, rung bookkeeping, star
/// formation, cooling, capture and diagnostics touch the local prefix
/// only.

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/comm.hpp"
#include "comm/torus.hpp"
#include "core/pool.hpp"
#include "fdps/context.hpp"
#include "fdps/domain.hpp"
#include "fdps/let.hpp"
#include "fdps/particle.hpp"
#include "fdps/tree.hpp"
#include "gravity/gravity.hpp"
#include "sph/sph.hpp"
#include "stellar/stellar.hpp"
#include "util/rng.hpp"

namespace asura::core {

using fdps::Particle;

struct DistributedConfig {
  /// Domain grid; 0 means factor comm.size() into near-cubes (comm::factor3).
  int px = 0, py = 0, pz = 0;
  /// Route the all-to-alls through the 3-phase 3D-torus algorithm (§3.4).
  bool use_torus = false;
  /// Steps between re-decompositions (1 = every step, the paper's cadence).
  /// Owned-particle migration still runs every step; the exchange cache
  /// survives a step boundary only when neither fired.
  int decompose_interval = 1;
  int sample_cap = 4096;  ///< decomposition sample budget per rank
  /// Drift budget [pc] of the LET/ghost cache: both sides of an exchange may
  /// accumulate skin/2 of displacement before a collective re-exchange.
  double skin = 0.5;
  /// Density-solver growth allowance on every exported reach (stale-reach
  /// fix); 1.0 reproduces the pre-fix export radii.
  double ghost_h_margin = 1.3;
  /// Safety bound on the solve -> reach-escaped -> re-exchange loop.
  int max_reach_retries = 4;
  /// Work-weighted Morton-segment decomposition instead of the equal-count
  /// rectilinear split: segments weighted by the decayed per-particle work
  /// counters, greedy segment->rank assignment, and a cheap maintain() pass
  /// between full re-decompositions. Pair with decompose_interval = 0 so
  /// maintain() is the only rebalancer after the initial decomposition and
  /// the exchange cache survives quiet step boundaries.
  bool weighted_decomposition = false;
  /// Segments per rank (over-decomposition factor) of the weighted mode.
  int oversub = 12;
  /// maintain() re-runs the greedy assignment only when the per-rank
  /// segment-weight imbalance max/mean exceeds this.
  double imbalance_threshold = 1.15;
};

/// Per-step exchange statistics of one rank (also exported via StepStats).
struct ExchangeStats {
  int migrated = 0;          ///< locals that changed owner this step (global)
  int decompositions = 0;    ///< 1 when the domain grid was recut this step
  int reach_retries = 0;     ///< density re-solves forced by reach escapes
  /// Passes that exhausted max_reach_retries with some rank's reach STILL
  /// escaped: densities near boundaries were computed on a truncated
  /// neighbour set. Nonzero means ghost_h_margin / max_reach_retries need
  /// raising for this scenario.
  int reach_giveups = 0;
  /// Incremental maintain() reassignments this step (weighted mode only).
  int rebalances = 0;
  /// Per-rank segment-weight imbalance max/mean measured by the last
  /// maintain() this step; 0 when maintain() did not run.
  double balance_max_over_mean = 0.0;
};

class DistributedEngine {
 public:
  /// Collective: splits the torus communicators when use_torus is set.
  DistributedEngine(comm::Comm& comm, DistributedConfig cfg);

  [[nodiscard]] comm::Comm& comm() { return comm_; }
  [[nodiscard]] const DistributedConfig& config() const { return cfg_; }
  [[nodiscard]] const fdps::DomainDecomposer& domains() const { return dd_; }
  [[nodiscard]] const ExchangeStats& stats() const { return stats_; }
  void beginStep() { stats_ = ExchangeStats{}; }

  /// Collective. Phase 0 of the distributed step: re-decompose when due,
  /// ship every local to its owner, sort locals by id (deterministic force
  /// summation order), and invalidate the exchange cache iff the domains
  /// changed or any particle migrated. `parts` must hold locals only.
  void exchangeParticles(std::vector<Particle>& parts, fdps::StepContext& ctx,
                         util::Pcg32& rng, long step);

  /// Collective. Guarantee valid LET imports + ghosts and attach the ghost
  /// suffix to `parts` (updating n_local). Reuses the cached sets when every
  /// rank is clean; `allow_value_refresh` (uniform across ranks: full passes
  /// pass true, sub-steps false) re-ships ghost payloads on reuse.
  void ensureExchanged(std::vector<Particle>& parts, std::size_t& n_local,
                       fdps::StepContext& ctx, const gravity::GravityParams& grav,
                       bool allow_value_refresh);

  /// Collective. Stale-reach check after a density solve: if any rank's
  /// gather radius escaped its exported reach, re-exchange ghosts (with the
  /// grown supports) and return true — the caller must re-solve.
  bool reexchangeIfReachEscaped(std::vector<Particle>& parts, std::size_t& n_local,
                                fdps::StepContext& ctx);

  /// Collective, read-only: does any rank's gather radius still exceed its
  /// exported reach? Called after the retry cap to record the give-up in
  /// stats().reach_giveups instead of degrading silently.
  bool noteReachGiveupIfStillEscaped(std::span<const Particle> parts,
                                     std::size_t n_local);

  /// Collective. Ship fresh payloads for the cached ghost list along the
  /// remembered export index lists. MUST run between the density solve and
  /// the hydro force pass of every distributed pass: the exchange selected
  /// ghosts *before* the solve, so the copies carry pre-solve rho/pres/h —
  /// zeros on the very first pass — and the force kernel divides by rho^2.
  /// All ranks solve in lockstep, so by the time this refresh runs every
  /// home rank's locals hold post-solve state. No exportLet walk, no
  /// selection scan.
  void refreshGhostPayloads(std::vector<Particle>& parts, std::size_t& n_local,
                            fdps::StepContext& ctx);

  /// Move the ghost suffix back into the context cache (preserving the
  /// coasted state) so star formation, cooling, capture and diagnostics see
  /// pure locals. No comm.
  void detachGhosts(std::vector<Particle>& parts, std::size_t& n_local,
                    fdps::StepContext& ctx);

  /// Accumulate a bound on local displacement since the last exchange (and
  /// since the last LET value sync, which resets independently).
  void noteDrift(double dmax) {
    drift_accum_ += dmax;
    let_drift_ += dmax;
  }
  /// Flag this rank dirty (surrogate replacement, star formation); the next
  /// ensureExchanged turns it into a collective re-exchange.
  void markDirty() { dirty_local_ = true; }

  /// Collective max-reduction (the block-timestep loop uses it to keep every
  /// rank's sub-step cadence in lockstep so mid-loop collectives can't
  /// deadlock on diverging iteration counts).
  [[nodiscard]] int reduceMaxInt(int v);

  /// Collective sum-reduction of `n` doubles in place, the energy/momentum
  /// tally primitive for drivers (Simulation::globalEnergyReport and
  /// friends). Deterministic and identical on every rank: contributions are
  /// summed in rank order, not arrival order.
  void allreduceSum(double* vals, int n);

  // --- SN routing (all collective) -----------------------------------------

  /// Gather every rank's SN events; returns the global list sorted by
  /// (t_explode, star_id) so all ranks process events in the same order.
  [[nodiscard]] std::vector<stellar::SnEvent> gatherEvents(
      std::vector<stellar::SnEvent> local);

  /// Cross-rank region capture: freeze local gas inside each event's
  /// (box_size)^3 box, route the copies to the event's owner rank, and
  /// submit each merged id-sorted region to `pool` there. Returns the number
  /// of regions submitted on this rank.
  int captureAndSubmit(std::vector<Particle>& parts, std::size_t n_local,
                       const std::vector<stellar::SnEvent>& events,
                       PoolNodeScheduler* pool, double box_size, double horizon,
                       long step);

  /// Allgather the predictions due on every rank this step; returns the
  /// flattened particle list every rank replaces its own locals from by id.
  [[nodiscard]] std::vector<Particle> gatherPredictions(
      const std::vector<std::vector<Particle>>& due);

  /// Conventional direct feedback with a *global* mass normalization: gas
  /// within feedback_radius of each event shares E_SN by mass across ranks;
  /// the nearest-particle fallback resolves its owner collectively.
  void directFeedback(std::vector<Particle>& parts, std::size_t n_local,
                      const std::vector<stellar::SnEvent>& events,
                      double feedback_radius);

  // --- checkpoint support ---------------------------------------------------

  /// Everything a restarted engine needs to behave bitwise like the original:
  /// the domain cuts (re-decomposing would consume rng and reshuffle owners),
  /// the live ghost-export lists/reach, and the cache-invalidation inputs
  /// (accumulated drift, the local dirty flag). Call with ghosts detached;
  /// restoreState leaves them detached. stats_ is per-step scratch and the
  /// export tree is rebuilt on the next full exchange — neither is state.
  struct EngineState {
    fdps::DomainDecomposer::Cuts cuts;
    fdps::GhostExchange ghost_cache;
    double drift_accum = 0.0;
    bool dirty_local = false;
    /// Walk provenance of the live LET entry set plus the drift accumulated
    /// since its values were last synced — without these a restored run
    /// would skip (or differently compute) the payload-style LET refresh
    /// and diverge from the continuous run.
    fdps::LetExportRecord let_record;
    double let_drift = 0.0;
  };
  [[nodiscard]] EngineState saveState() const;
  void restoreState(EngineState s);

 private:
  void fullExchange(std::vector<Particle>& parts, std::size_t& n_local,
                    fdps::StepContext& ctx, const gravity::GravityParams& grav);
  void attachGhosts(std::vector<Particle>& parts, std::size_t& n_local,
                    fdps::StepContext& ctx);
  [[nodiscard]] comm::TorusTopology* torus() { return torus_ ? torus_.get() : nullptr; }

  comm::Comm& comm_;
  DistributedConfig cfg_;
  fdps::DomainDecomposer dd_;
  std::unique_ptr<comm::TorusTopology> torus_;

  fdps::SourceTree export_tree_;     ///< locals-only tree for exportLet walks
  fdps::GhostExchange ghost_cache_;  ///< export lists + reach of the live set
  fdps::LetExportRecord let_record_; ///< walk provenance of the live LET set
  double drift_accum_ = 0.0;         ///< local displacement since exchange
  double let_drift_ = 0.0;           ///< displacement since last LET value sync
  bool dirty_local_ = false;
  bool attached_ = false;
  ExchangeStats stats_;
};

/// Contiguous deterministic pre-partition of a full IC for rank `rank` of
/// `nranks` (the first exchangeParticles redistributes by position).
[[nodiscard]] std::vector<Particle> blockPartition(const std::vector<Particle>& all,
                                                   int rank, int nranks);

}  // namespace asura::core
