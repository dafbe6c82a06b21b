#pragma once
/// \file distributed.hpp
/// \brief The exchange state of a multi-rank step over the in-process SPMD
/// Cluster (paper §3.4, §5.2.1-§5.2.3).
///
/// The paper calls the LET all-to-all "the most time-consuming part with
/// the full system of Fugaku". This engine holds what a rank exchanges with
/// its peers and Simulation::step does not own:
///
///   domain decomposition -> migration of owned particles -> gravity LET
///   and hydro ghosts (with their cache and its checkpoint block)
///
/// Everything else — the force passes, the cached trees, hierarchical
/// rungs, the Saitoh-Makino limiter, the SN phases and every step
/// reduction — is Simulation's, and runs on the engine's communicator
/// (Simulation::comm()). Every Simulation owns one engine: a default one on
/// its one-rank self communicator, or the one attachDistributed installs.
/// Every method marked *collective* must be entered by all ranks of the
/// communicator in the same order — the engine guarantees this internally
/// by making every cache decision a collective reduction over per-rank
/// dirty flags.
///
/// # One rank is the serial path
///
/// Three rules make a one-rank engine free, so a serial run needs no second
/// step path: a one-cell grid is never cut or sampled (no rng draw); phase 0
/// ships and sorts only when a re-cut ran or a particle moved; the cache
/// methods return at once without a peer (no export tree, no tree
/// invalidation, no counter), so the cache stays stale and the suffix empty.
///
/// # Exchange caching (the ASURA-FDPS-ML production-loop optimization)
///
/// The engine is the one home of the exchange state: the imported LET entry
/// set, the ghost export layout, one staleness flag and the per-step
/// counters. The ghosts themselves live only in the rank's working array
/// (see below). Both imported sets are *reused* across force passes and
/// block-timestep sub-steps. Validity contract:
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
///  * between full exchanges, force passes re-ship fresh ghost *records*
///    for the unchanged ghost list (see below) — no selection scan, no
///    reach allgather — and the sync pass and each step's first sub-step
///    walk the LET again (exportLet over a fresh locals-only tree) when any
///    rank moved since the last walk. A LET import is therefore always what
///    exchangeGravityLet returns over the locals of its walk; nothing
///    re-derives its values along a recorded walk.
///
/// A quiet multi-rank step therefore performs at most one full ghost
/// exchange and walks the LET (P-1 exportLet walks) at most twice: at its
/// first sub-step, after the drift, and at the sync pass when any rank
/// moved since. A global step's sync pass reuses the walk of its one
/// sub-step, and every later sub-step walks zero exportLet trees.
///
/// # Working-array layout
///
/// The rank's particle array is [locals | ghost imports], with
/// Simulation::nLocal() marking the boundary. The suffix is the only copy of
/// the ghosts: a ghost exchange rewrites it, a record refresh overwrites
/// slots of it in place, and it stays attached between steps. Phase 0 keeps
/// it when the cache survives and drops it otherwise. A ghost holds what its
/// 128-byte fdps::GhostRecord carries — the fields a neighbour reads (the
/// reader of each is listed in fdps/let.hpp: the gas tree, the density and
/// hydro kernels, the limiter and the drift) — and Particle{} defaults
/// everywhere else. Ghosts coast ballistically through drift sweeps (their
/// home rank integrates the real particle); kicks, rung bookkeeping, star
/// formation, cooling, capture and diagnostics touch the local prefix only.
///
/// # Ghost refreshes: exact at the step's first sub-step, then the changed
///
/// The sync pass and each step's first sub-step make every ghost exact
/// before the density solve, inside ensureExchanged: a full exchange, or on
/// a clean cache a refresh of every export (refreshGhostValues). The first
/// sub-step needs this: the step start re-rungs every local and resets
/// u_pred, every local opens at sub-unit 0, and the previous step's final
/// pass set du_dt and the sync rung floor after its last refresh. After every
/// density solve a refresh ships only the exports whose home local
/// Simulation flagged (markChanged) since the previous refresh or exchange
/// (refreshChangedGhosts):
///
///  * at the closing kick: vel, u_pred and rung change, and du_dt changed
///    in that pass's hydro force, whose targets are the closers;
///  * in applyWakes, for every local it deepens or re-plans (rung, vel);
///  * for the pass's density targets, just before the refresh: the solve
///    rewrites h, rho, divv, curlv and u_pred.
///
/// The opening kick (vel, u, u_pred) needs no flag of its own: the openers
/// at sub-unit n are exactly the locals that closed at n — a closer's next
/// step opens where it closed, and a wake only moves a step's end past n —
/// so they were flagged when they closed at n. Every other record field
/// changes only in the drift, which applies the same arithmetic to a ghost
/// and its home (pos += sub_dt * vel; u_pred += sub_dt * du_dt unless
/// frozen), so an unflagged ghost is already bitwise its home's record.
/// A full pass's density targets are every gas local, so its post-solve
/// refresh still ships every export. The cut is exact: trajectories and
/// every counter stay as with full refreshes, which the 8-rank gate in
/// test_distributed checks against a run that flags every local after
/// every sub-step. The flags are one byte per local, sized by each full
/// exchange and each refresh of every ghost and dropped by phase 0; they
/// are not checkpoint state, because each step's first sub-step ships
/// every ghost before it reads a flag. On sn_storm_p8 (seed 1) the record,
/// the changed subset and the exact first sub-step cut comm_bytes_per_step
/// from 236.0 MB to 51.6 MB; docs/distributed.md has the breakdown.

#include <cstdint>
#include <optional>
#include <vector>

#include "comm/comm.hpp"
#include "fdps/context.hpp"
#include "fdps/domain.hpp"
#include "fdps/let.hpp"
#include "fdps/particle.hpp"
#include "fdps/tree.hpp"
#include "gravity/gravity.hpp"
#include "io/serialize.hpp"
#include "sph/sph.hpp"
#include "util/rng.hpp"

namespace asura::core {

using fdps::Particle;

/// The domain grid is always comm.size() factored into near-cubes
/// (comm::factor3); the decomposition sample budget is
/// fdps::DomainDecomposer::kSampleCap. The engine constructor validates the
/// fields and throws std::invalid_argument naming the first bad one.
struct DistributedConfig {
  /// 1: re-cut the domain grid every step (the paper's cadence). 0: cut on
  /// the first step, then re-cut only when the measured rank load max/mean
  /// exceeds imbalance_threshold. Owned-particle migration still runs every
  /// step; the exchange cache survives a step boundary only when neither a
  /// re-cut nor a migration happened. Other values are rejected.
  int decompose_interval = 1;
  /// Drift budget [pc] of the LET/ghost cache: both sides of an exchange may
  /// accumulate skin/2 of displacement before a collective re-exchange.
  /// Finite and >= 0.
  double skin = 0.5;
  /// Density-solver growth allowance on every exported reach (stale-reach
  /// fix); 1.0 reproduces the pre-fix export radii. Finite and >= 1.
  double ghost_h_margin = 1.3;
  /// Weigh every decomposition sample, and every local in the rank load,
  /// by 1 + Particle::work (the decayed force-pass work counter) instead of
  /// 1, so cuts split sampled work instead of particle count.
  bool weighted_decomposition = false;
  /// With decompose_interval = 0, a step re-cuts when the rank load max/mean
  /// exceeds this. Finite and >= 1 (a max/mean is never below 1).
  double imbalance_threshold = 1.15;
};

/// Per-step exchange statistics of one rank; Simulation::step copies them
/// into the StepStats fields of the same names.
struct ExchangeStats {
  int let_exchanges = 0;          ///< LET walks + alltoalls (full exchange or re-walk)
  int let_export_walks = 0;       ///< exportLet tree walks (P-1 per exchange)
  int let_reuses = 0;             ///< passes served from the cached LET set
  int ghost_exchanges = 0;        ///< full ghost selections + alltoalls
  int ghost_value_refreshes = 0;  ///< record refreshes of the ghost suffix (all or changed)
  int ghost_reuses = 0;           ///< passes that reused the coasted suffix as-is
  int migrated = 0;          ///< locals that changed owner this step (global)
  int reach_retries = 0;     ///< density re-solves forced by reach escapes
  /// Passes that exhausted kMaxReachRetries with some rank's reach STILL
  /// escaped: densities near boundaries were computed on a truncated
  /// neighbour set. Nonzero means ghost_h_margin needs raising for this
  /// scenario.
  int reach_giveups = 0;
  /// Imbalance-triggered re-cuts this step (decompose_interval = 0 only).
  int rebalances = 0;
  /// Rank load max/mean measured this step (decompose_interval = 0 only);
  /// 0 on steps that did not measure it.
  double balance_max_over_mean = 0.0;
};

class DistributedEngine {
 public:
  /// Safety bound on the solve -> reach-escaped -> re-exchange loop.
  static constexpr int kMaxReachRetries = 4;

  /// Throws std::invalid_argument naming the field for an invalid `cfg`.
  DistributedEngine(comm::Comm& comm, DistributedConfig cfg);

  [[nodiscard]] comm::Comm& comm() { return comm_; }
  [[nodiscard]] const DistributedConfig& config() const { return cfg_; }
  [[nodiscard]] const fdps::DomainDecomposer& domains() const { return dd_; }
  [[nodiscard]] const ExchangeStats& stats() const { return stats_; }
  void beginStep() { stats_ = ExchangeStats{}; }

  /// Collective. Phase 0 of the step: re-cut the domain grid when due (see
  /// DistributedConfig::decompose_interval). Iff that cut or any rank
  /// holds a local parts[0, n_local) another rank owns, ship every local to
  /// its owner, sort locals by id (deterministic force summation order),
  /// update n_local, mark the cache stale and return true. Otherwise the
  /// ghost suffix stays exactly when the cache is clean.
  bool exchangeParticles(std::vector<Particle>& parts, std::size_t& n_local,
                         fdps::StepContext& ctx, util::Pcg32& rng, long step);

  /// Collective. Guarantee valid LET imports and a valid ghost suffix in
  /// parts[n_local, end): a full exchange when any rank is stale or past
  /// skin/2, else the cached sets. `allow_value_refresh` (uniform across
  /// ranks: the final pass and each step's first sub-step pass true, later
  /// sub-steps false) makes a reuse exact: it walks the LET again when any
  /// rank drifted since the last walk and ships every ghost's record. Both a
  /// full exchange and that refresh size the markChanged flags. Returns at
  /// once without a peer.
  void ensureExchanged(std::vector<Particle>& parts, std::size_t n_local,
                       fdps::StepContext& ctx, const gravity::GravityParams& grav,
                       bool allow_value_refresh);

  /// Collective. Stale-reach check after a density solve: if any rank's
  /// gather radius escaped its exported reach, re-exchange ghosts (with the
  /// grown supports) and return true — the caller must re-solve.
  bool reexchangeIfReachEscaped(std::vector<Particle>& parts, std::size_t n_local,
                                fdps::StepContext& ctx);

  /// Collective: count a give-up in stats().reach_giveups if any rank's
  /// gather radius still exceeds its exported reach. Called after the retry
  /// cap, so a degraded pass is recorded instead of passing silently.
  void noteReachGiveupIfStillEscaped(std::span<const Particle> parts,
                                     std::size_t n_local);

  /// Collective. Ship fresh records of the exports flagged by markChanged
  /// since the last refresh along the remembered export index lists, then
  /// clear the flags. MUST run between the density solve and the hydro force
  /// pass of every distributed pass, after the caller flagged the solve's
  /// targets: the ghosts carry pre-solve rho/h — zeros on the very first
  /// pass — and the force kernel divides by rho^2. All ranks solve in
  /// lockstep, so by the time this refresh runs every home rank's locals
  /// hold post-solve state. No exportLet walk, no selection scan; the
  /// flagged slots are overwritten in place. Exact when every unflagged
  /// export's ghost already equals its home's record (the rule in the file
  /// comment). Needs the flags this step's first ensureExchanged sized:
  /// without them a rank holding locals throws std::invalid_argument.
  /// Returns at once without a peer.
  void refreshGhostPayloads(std::vector<Particle>& parts, std::size_t n_local,
                            fdps::StepContext& ctx);

  /// Flag local `i` as changed, since the last refresh, in a field its
  /// ghost record carries. Thread-safe across distinct `i`. A no-op until
  /// the step's first ensureExchanged sizes the flags (nothing before it
  /// needs one) and on a one-rank engine.
  void markChanged(std::size_t i) {
    if (i < changed_.size()) changed_[i] = 1;
  }

  /// Accumulate a bound on local displacement since the last exchange (and
  /// since the last LET walk, which resets independently).
  void noteDrift(double dmax) {
    drift_accum_ += dmax;
    let_drift_ += dmax;
  }
  /// Flag this rank dirty (surrogate replacement, star formation); the next
  /// ensureExchanged turns it into a collective re-exchange.
  void markDirty() { stale_ = true; }

  // --- checkpoint support ---------------------------------------------------

  /// The engine block of a rank's checkpoint payload: everything a restarted
  /// engine needs to behave bitwise like the original — the LET imports, the
  /// staleness flag, the three domain cut vectors (re-decomposing would
  /// consume rng and reshuffle owners), the ghost export layout, the
  /// accumulated drift and the LET drift. The ghosts are in the particle
  /// list Simulation writes. stats_ is per-step scratch and the export tree
  /// is rebuilt from the locals at the next LET walk — neither is state.
  /// Both directions share one field list (stateFields), so the reader
  /// cannot disagree with the writer.
  void serializeState(io::ByteWriter& w) const;
  /// `n_local` and `n_ghosts` are the restored local count and suffix
  /// length. Throws std::runtime_error naming the field when the block
  /// breaks an invariant the next step would index by: domain cut counts
  /// that do not match the grid (see DomainDecomposer::Cuts), a ghost-export
  /// cache whose per-rank lists are not comm().size() long, an export_idx
  /// entry that is not below `n_local`, a stale cache with a ghost suffix
  /// (phase 0 would drop it; the message names the local count), or a clean
  /// cache whose import_counts do not sum to `n_ghosts`. A throw leaves the
  /// engine unusable until a restore succeeds.
  void restoreState(io::ByteReader& r, std::size_t n_local, std::size_t n_ghosts);

  /// The imported LET entries (remote monopoles + boundary particles) the
  /// gravity passes merge with the locals.
  [[nodiscard]] const std::vector<fdps::SourceEntry>& letImports() const {
    return let_imports_;
  }
  /// The live ghost-export cache (read-only).
  [[nodiscard]] const fdps::GhostExchange& ghostExports() const { return ghost_cache_; }

 private:
  template <class Io, class Engine>
  static void stateFields(Io& io, Engine& e, fdps::DomainDecomposer::Cuts& cuts);

  /// The LET half of a full exchange: walk a fresh locals-only tree for
  /// every peer and install the imports. Does not touch the trees of `ctx`.
  void exchangeLet(std::span<const Particle> locals, const gravity::GravityParams& grav);
  void fullExchange(std::vector<Particle>& parts, std::size_t n_local,
                    fdps::StepContext& ctx, const gravity::GravityParams& grav);
  /// Collective: the local gather radius if any rank's escaped its exported
  /// reach (never without a peer).
  std::optional<double> escapedReach(std::span<const Particle> parts, std::size_t n_local);

  comm::Comm& comm_;
  DistributedConfig cfg_;
  fdps::DomainDecomposer dd_;

  fdps::SourceTree export_tree_;     ///< locals-only tree for exportLet walks
  std::vector<fdps::SourceEntry> let_imports_;  ///< the live LET entry set
  fdps::GhostExchange ghost_cache_;  ///< export lists + reach of the live set
  double drift_accum_ = 0.0;         ///< local displacement since exchange
  double let_drift_ = 0.0;           ///< displacement since the last LET walk
  /// The cache must be rebuilt before its next use: set by a new engine, a
  /// re-cut or migration, and markDirty; cleared by a full exchange.
  bool stale_ = true;
  /// One markChanged flag per local, the refresh's selection: sized and
  /// zeroed by each full exchange and each refresh of every ghost, zeroed by
  /// every refresh, dropped by phase 0. Not checkpoint state: each step's
  /// first sub-step ships every ghost before it reads a flag.
  std::vector<std::uint8_t> changed_;
  ExchangeStats stats_;
};

/// Contiguous deterministic pre-partition of a full IC for rank `rank` of
/// `nranks` (the first exchangeParticles redistributes by position).
[[nodiscard]] std::vector<Particle> blockPartition(const std::vector<Particle>& all,
                                                   int rank, int nranks);

}  // namespace asura::core
