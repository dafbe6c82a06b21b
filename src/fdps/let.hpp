#pragma once
/// \file let.hpp
/// \brief Local Essential Tree (LET) exchange (paper §3.4, §5.2.3).
///
/// Gravity reaches the whole system, so every rank needs a coarse view of
/// every other rank's particles: for each remote domain box the local tree
/// is walked with the multipole acceptance criterion, emitting monopoles for
/// far subtrees and raw particles near the domain boundary. The resulting
/// per-destination export lists are exchanged with an all-to-all — "the most
/// time-consuming part with the full system of Fugaku".
///
/// SPH needs ghost neighbours instead: gas particles near a remote domain
/// are exported if their own support radius reaches the remote box (scatter)
/// or if they lie within the remote rank's maximum gather radius.

#include <vector>

#include "comm/comm.hpp"
#include "comm/torus.hpp"
#include "fdps/domain.hpp"
#include "fdps/tree.hpp"

namespace asura::fdps {

/// Everything needed to recompute the *values* of a previous LET exchange
/// from live particle state, without re-walking any tree: per destination
/// rank the emitted (first, count) descriptors, the exporting tree's
/// entry->local-particle permutation, and the import layout to verify
/// against. Counterpart of GhostExchange for the gravity side; serialized
/// with the engine state so a restored run refreshes bitwise identically.
struct LetExportRecord {
  std::vector<std::vector<LetExportItem>> items;  ///< per destination rank
  std::vector<std::uint32_t> perm;      ///< tree entry order -> local particle index
  std::vector<std::size_t> import_counts;  ///< per-source entry counts
  [[nodiscard]] bool ready(int comm_size) const {
    return items.size() == static_cast<std::size_t>(comm_size) &&
           import_counts.size() == static_cast<std::size_t>(comm_size);
  }
};

/// Exchange gravity LETs. `local_tree` must be built over this rank's
/// sources. Returns the imported entries (remote monopoles + boundary
/// particles) to be merged with local sources before force evaluation.
/// When `record` is non-null it is overwritten with the walk provenance
/// that refreshLetValues needs.
std::vector<SourceEntry> exchangeGravityLet(comm::Comm& comm,
                                            const DomainDecomposer& dd,
                                            const SourceTree& local_tree, double theta,
                                            comm::TorusTopology* torus = nullptr,
                                            LetExportRecord* record = nullptr);

/// Payload-style LET refresh: rebuild every previously exported entry's
/// values from current particle state — monopoles by direct summation over
/// their recorded entry ranges in a fixed (ascending) order, raw entries
/// straight from the particle — and exchange them along the remembered
/// layout. No exportLet walk, no tree build. The returned vector has exactly
/// `record.import_counts` entries per source, in the same order as the
/// original exchange; throws if any count changed.
std::vector<SourceEntry> refreshLetValues(comm::Comm& comm, const LetExportRecord& record,
                                          const std::vector<Particle>& particles,
                                          comm::TorusTopology* torus = nullptr);

/// Result of a cacheable ghost exchange.
struct GhostExchange {
  std::vector<Particle> ghosts;  ///< imported, concatenated in source-rank order
  /// Local particle indices shipped to each destination rank, remembered so
  /// refreshGhostValues can re-send current payloads without re-running the
  /// O(N * P) selection scan or the reach allgather.
  std::vector<std::vector<std::uint32_t>> export_idx;
  /// Per-source import counts (parallel to ranks), fixing the concatenation
  /// layout a value refresh must reproduce.
  std::vector<std::size_t> import_counts;
  /// The margin-inflated local gather radius this exchange covered. The
  /// stale-reach validity rule: the ghost set stays sufficient while
  /// maxGatherRadius(locals) <= exported_reach on every rank (checked
  /// collectively after each density solve).
  double exported_reach = 0.0;
};

/// Cacheable ghost exchange with the stale-reach fix: every reach — the
/// scatter reach of each exported particle and the gather reach of each
/// remote rank — is inflated by `h_margin` (the density solver's growth
/// allowance, >= 1) and widened by `skin` (the drift budget both sides may
/// consume before re-exchange). `local_max_h` is this rank's maximum gather
/// support at export time.
GhostExchange exchangeHydroGhostsCached(comm::Comm& comm, const DomainDecomposer& dd,
                                        const std::vector<Particle>& particles,
                                        std::size_t n_local, double local_max_h,
                                        double h_margin, double skin,
                                        comm::TorusTopology* torus = nullptr);

/// Re-ship current payloads for a previously established ghost list: every
/// rank re-sends particles[idx] for its remembered export_idx lists and
/// overwrites nothing structurally — the returned vector has exactly
/// `import_counts` entries per source in the same order as the original
/// exchange. No selection walk, no allgather; the cheap per-pass freshness
/// path between full exchanges.
std::vector<Particle> refreshGhostValues(comm::Comm& comm, const GhostExchange& cache,
                                         const std::vector<Particle>& particles,
                                         comm::TorusTopology* torus = nullptr);

}  // namespace asura::fdps
