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
/// or if they lie within the remote rank's maximum gather radius. The
/// imported ghosts have one home, the suffix parts[n_local, end) of the
/// rank's working array: a ghost exchange rewrites that suffix, a value
/// refresh overwrites slots of it in place along the remembered layout.
///
/// # The ghost wire record
///
/// A ghost travels as a 128-byte GhostRecord, not as a 240-byte Particle:
/// it carries what a neighbour reads of a ghost and nothing else. Who reads
/// each field on the receiving rank:
///
///   id       no kernel: it names the ghost in checkpoints and tests
///   type     makeSourceEntries' gas-only filter (the gas tree) and the
///            drift's isGas() test
///   mass     the gas tree's source entries: density sum, hydro pair force
///   eps      makeSourceEntries copies it into the gas tree's entries (no
///            SPH kernel reads it)
///   pos      the gas tree's entries and refreshes; the drift advances it
///   vel      density div/curl v and hydro viscosity; the drift reads it
///   h        the gas tree's entries (scatter reach, node max_h) and the
///            hydro pair kernel's support
///   rho      hydro force: P/rho^2, the viscosity's mean density
///   u_pred   hydro force: pressure and sound speed; the drift advances it
///   du_dt    the drift's u_pred advance
///   divv,    hydro force: the Balsara switch
///   curlv
///   rung     hydro force: the limiter's rung_ngb and wake requests
///   frozen   the drift (a frozen ghost's u_pred does not advance)
///
/// Every other field of a received ghost holds its Particle{} default. The
/// record also names its slot: the index of the ghost in the receiver's
/// import list from its source, so a refresh may ship any subset
/// (refreshChangedGhosts). On sn_storm_p8 (seed 1) the record alone cuts
/// the bytes per step from 236.0 MB to 123.4 MB, and shipping only the
/// changed ghosts on sub-steps to 54.5 MB (docs/distributed.md).

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/comm.hpp"
#include "fdps/domain.hpp"
#include "fdps/tree.hpp"

namespace asura::fdps {

/// Exchange gravity LETs. `local_tree` must be built over this rank's
/// sources. Returns the imported entries (remote monopoles + boundary
/// particles) to be merged with local sources before force evaluation.
std::vector<SourceEntry> exchangeGravityLet(comm::Comm& comm,
                                            const DomainDecomposer& dd,
                                            const SourceTree& local_tree, double theta);

/// What a neighbour reads of a ghost (see the file comment for the reader
/// of each field), plus the ghost's slot in its receiver's import list from
/// this source.
struct GhostRecord {
  std::uint64_t id = 0;
  double mass = 0.0;
  double eps = 0.0;
  Vec3d pos{};
  Vec3d vel{};
  double h = 0.0;
  double rho = 0.0;
  double u_pred = 0.0;
  double du_dt = 0.0;
  double divv = 0.0;
  double curlv = 0.0;
  std::uint32_t slot = 0;
  Species type = Species::Gas;
  std::uint8_t rung = 0;
  std::uint8_t frozen = 0;
};

static_assert(sizeof(GhostRecord) == 128, "one ghost record is 128 bytes on the wire");
static_assert(std::is_trivially_copyable_v<GhostRecord>,
              "ghost records must be shippable through the comm layer");

/// Layout of a cacheable ghost exchange (the ghosts themselves live in the
/// working array's suffix).
struct GhostExchange {
  /// Local particle indices shipped to each destination rank, remembered so
  /// a value refresh can re-send current records without re-running the
  /// O(N * P) selection scan or the reach allgather. The position of an
  /// index in its list is the slot its records name.
  std::vector<std::vector<std::uint32_t>> export_idx;
  /// Per-source import counts (parallel to ranks), fixing the concatenation
  /// layout a value refresh writes into.
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
/// support at export time. Exports are selected from parts[0, n_local);
/// `parts` is then truncated to n_local and the imports are appended in
/// source-rank order, each holding its record's fields and Particle{}
/// defaults everywhere else.
GhostExchange exchangeHydroGhostsCached(comm::Comm& comm, const DomainDecomposer& dd,
                                        std::vector<Particle>& parts, std::size_t n_local,
                                        double local_max_h, double h_margin, double skin);

/// Re-ship current records for a previously established ghost list: every
/// rank re-sends parts[idx] for its remembered export_idx lists, and each
/// record overwrites its slot of the suffix parts[n_local, end) in place.
/// No selection walk, no allgather; the cheap per-pass freshness path
/// between full exchanges. Throws std::runtime_error, before writing
/// anything, when a source's count differs from import_counts, a record's
/// slot is not below its source's import count, or the suffix length is
/// not the sum of import_counts.
void refreshGhostValues(comm::Comm& comm, const GhostExchange& cache,
                        std::vector<Particle>& parts, std::size_t n_local);

/// The delta form of refreshGhostValues: every rank ships only the exports
/// parts[i] with changed[i] != 0 (one flag per local, so `changed` holds
/// n_local flags), and only their slots are written; every other suffix
/// byte stays as it is. Exact when every unflagged export's ghost already
/// equals its home's record, e.g. after both sides coasted through the same
/// drift. Collective like the full form: the caller picks the form, the
/// same on every rank, and a rank with no locals passes an empty list and
/// still takes part. Throws std::invalid_argument when `changed` does not
/// hold n_local flags, and std::runtime_error, before writing anything, on
/// the layout errors of refreshGhostValues (a source may send fewer
/// records than its import count, never more).
void refreshChangedGhosts(comm::Comm& comm, const GhostExchange& cache,
                          std::vector<Particle>& parts, std::size_t n_local,
                          std::span<const std::uint8_t> changed);

}  // namespace asura::fdps
