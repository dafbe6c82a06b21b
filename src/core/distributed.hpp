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
/// The rank's particle array is [locals | ghost imports], with
/// Simulation::nLocal() marking the boundary. The suffix is the only copy of
/// the ghosts: a ghost exchange rewrites it, a payload refresh overwrites it
/// in place, and it stays attached between steps. Phase 0 keeps it when the
/// cache survives and drops it otherwise. Ghosts coast ballistically through
/// drift sweeps (their home rank integrates the real particle); kicks, rung
/// bookkeeping, star formation, cooling, capture and diagnostics touch the
/// local prefix only.

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
  int let_exchanges = 0;          ///< full LET exchanges
  int let_export_walks = 0;       ///< exportLet tree walks (P-1 per exchange)
  int let_reuses = 0;             ///< passes served from the cached LET set
  int let_value_refreshes = 0;    ///< payload-style refreshes of the LET values
  int ghost_exchanges = 0;        ///< full ghost selections + alltoalls
  int ghost_value_refreshes = 0;  ///< payload-only refreshes of the ghost suffix
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
  /// parts[n_local, end). Reuses the cached sets when every rank is clean;
  /// `allow_value_refresh` (uniform across ranks: full passes pass true,
  /// sub-steps false) re-ships LET values and ghost payloads on reuse.
  /// Returns at once without a peer.
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

  /// Collective. Ship fresh payloads for the cached ghost list along the
  /// remembered export index lists. MUST run between the density solve and
  /// the hydro force pass of every distributed pass: the exchange selected
  /// ghosts *before* the solve, so the copies carry pre-solve rho/pres/h —
  /// zeros on the very first pass — and the force kernel divides by rho^2.
  /// All ranks solve in lockstep, so by the time this refresh runs every
  /// home rank's locals hold post-solve state. No exportLet walk, no
  /// selection scan; the suffix is overwritten in place. Returns at once
  /// without a peer.
  void refreshGhostPayloads(std::vector<Particle>& parts, std::size_t n_local,
                            fdps::StepContext& ctx);

  /// Accumulate a bound on local displacement since the last exchange (and
  /// since the last LET value sync, which resets independently).
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
  /// accumulated drift, the LET export record and the LET drift. The ghosts
  /// are in the particle list Simulation writes. stats_ is per-step scratch
  /// and the export tree is rebuilt on the next full exchange — neither is
  /// state. Both directions share one field list (stateFields), so the
  /// reader cannot disagree with the writer.
  void serializeState(io::ByteWriter& w) const;
  /// `n_local` and `n_ghosts` are the restored local count and suffix
  /// length. Throws std::runtime_error naming the field when the block
  /// breaks an invariant the next step would index by: domain cut counts
  /// that do not match the grid (see DomainDecomposer::Cuts), a ghost-export
  /// cache whose per-rank lists are not comm().size() long, an export_idx or
  /// LET-record perm entry that is not below `n_local`, a LET item whose
  /// entry range leaves perm, a stale cache with a ghost suffix (phase 0
  /// would drop it; the message names the local count), or a clean cache
  /// whose LET record is not per rank or whose import_counts do not sum to
  /// `n_ghosts`. A throw leaves the engine unusable until a restore
  /// succeeds.
  void restoreState(io::ByteReader& r, std::size_t n_local, std::size_t n_ghosts);

  /// The imported LET entries (remote monopoles + boundary particles) the
  /// gravity passes merge with the locals.
  [[nodiscard]] const std::vector<fdps::SourceEntry>& letImports() const {
    return let_imports_;
  }
  /// The live ghost-export cache and LET export record (read-only).
  [[nodiscard]] const fdps::GhostExchange& ghostExports() const { return ghost_cache_; }
  [[nodiscard]] const fdps::LetExportRecord& letRecord() const { return let_record_; }

 private:
  template <class Io, class Engine>
  static void stateFields(Io& io, Engine& e, fdps::DomainDecomposer::Cuts& cuts);

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
  fdps::LetExportRecord let_record_; ///< walk provenance of the live LET set
  double drift_accum_ = 0.0;         ///< local displacement since exchange
  double let_drift_ = 0.0;           ///< displacement since last LET value sync
  /// The cache must be rebuilt before its next use: set by a new engine, a
  /// re-cut or migration, and markDirty; cleared by a full exchange.
  bool stale_ = true;
  ExchangeStats stats_;
};

/// Contiguous deterministic pre-partition of a full IC for rank `rank` of
/// `nranks` (the first exchangeParticles redistributes by position).
[[nodiscard]] std::vector<Particle> blockPartition(const std::vector<Particle>& all,
                                                   int rank, int nranks);

}  // namespace asura::core
