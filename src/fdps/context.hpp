#pragma once
/// \file context.hpp
/// \brief Per-step tree/neighbour pipeline cache (the once-per-pass tree
/// pipeline).
///
/// The seed rebuilt a Morton tree up to six times per Simulation::step —
/// the gravity tree twice and the gas tree four times across the two force
/// passes — even though particle positions are frozen between the drift and
/// the end of the step. StepContext owns the trees, the Morton-sorted
/// target groups and the per-thread scratch arenas, so each force pass
/// builds each tree at most once and the second pass reuses the first
/// pass's trees outright when nothing moved.
///
/// # Pipeline invariants (the contract every caller relies on)
///
/// **Cache validity.** A cached tree/group set is valid from the moment it
/// is built until `invalidate()` is called. Callers MUST invalidate when
/// any of the following change: particle *positions* (drift, surrogate
/// replacement), particle *species* (star formation converts gas), the
/// particle *count* (exchange, star formation), or the imported LET entry
/// set. Changes to thermodynamic state (u, rho, pres, cs, du_dt) and to
/// velocities do NOT require invalidation — trees store only pos/mass/eps/h.
///
/// **Smoothing lengths.** The density solve updates Particle::h; the cached
/// gas tree is brought up to date with `refreshGasSmoothing()` (entry h +
/// per-node max_h, an O(N + nodes) sweep) instead of a rebuild. The hydro
/// force pass therefore sees exactly the supports a fresh build would —
/// positions unchanged implies identical Morton order and topology.
///
/// **Mismatch guards.** As a belt-and-braces check, each cached tree also
/// remembers the (count, leaf_size, LET size) it was built from and
/// rebuilds automatically when a caller asks with different parameters.
/// Target groups are keyed by the content of the caller's target list and
/// the group size instead. This guards against count changes; *silent
/// position mutation cannot be detected* and is the caller's
/// responsibility.
///
/// # Distributed steps
///
/// The context caches trees, groups and arenas only. The distributed
/// exchange state (LET imports, the ghost export layout, the staleness flag
/// and its counters) lives in core::DistributedEngine, and the ghosts live
/// in the working array's suffix, so a gas tree over that array covers them.
/// The gravity tree holds the engine's LET imports: the engine calls
/// `invalidateGravityTree()` when a LET walk between full exchanges
/// replaces them; full exchanges and restores call `invalidate()`.
///
/// **Scratch arenas.** `arena(tid)` hands each OpenMP thread a private
/// ThreadArena holding interaction-list and SoA staging buffers. Arenas are
/// grown on demand and never shrink, so steady-state force passes perform
/// no per-group allocation. A ThreadArena must only ever be touched by the
/// thread that owns the index — there is no internal locking.
///
/// **Thread safety.** StepContext itself is NOT thread-safe: the accessor
/// methods (gravityTree, gasTree, gravityGroups, gasGroups,
/// refreshGasSmoothing, invalidate, beginStep) must be called from serial
/// code (outside any parallel region). The returned trees/groups are immutable during the
/// parallel force loops and may be read concurrently. One StepContext per
/// Simulation (or per thread of independent simulations).
///
/// **Observability.** Every tree build and refresh is counted
/// (buildsThisStep/totalBuilds, refreshesThisStep/totalRefreshes);
/// Simulation::step resets the per-step counts via beginStep() and exports
/// them through StepStats so tests can assert the 6-to-≤3 reduction.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fdps/particle.hpp"
#include "fdps/tree.hpp"

namespace asura::fdps {

/// Per-thread scratch for tree walks and SoA-staged interaction kernels.
/// Owned by StepContext; indexed by omp_get_thread_num().
struct ThreadArena {
  // Tree-walk outputs.
  std::vector<std::uint32_t> idx;  ///< EP indices / neighbour candidates
  std::vector<Monopole> sp;        ///< accepted multipoles

  // SoA source staging, single precision (mixed-precision gravity kernel).
  std::vector<float> fx, fy, fz, fm, fe2;
  // SoA source staging, double precision (F64 gravity, SPH candidates).
  std::vector<double> sx, sy, sz, sm, se2;

  // Per-candidate scratch for the SPH passes: both the density closure and
  // the hydro-force prefilter store *squared* distances here — treat the
  // contents as owned by whichever kernel filled it last.
  std::vector<double> r2;             ///< per-candidate squared distances
  std::vector<std::uint32_t> sel;     ///< compacted survivor slots

  // SoA candidate fields for the hydro-force kernel.
  std::vector<double> qvx, qvy, qvz, qh, qrho, qpres, qcs, qdivv, qcurlv;
  std::vector<std::uint32_t> qidx;
  std::vector<std::uint8_t> qrung;  ///< candidate rungs (timestep limiter)

  /// Saitoh–Makino wake requests collected by the hydro force pass (packed
  /// neighbour<<32|target); merged serially after the parallel region so the
  /// published list is canonically ordered regardless of scheduling.
  std::vector<std::uint64_t> wake;

  // Target-side staging.
  std::vector<util::Vec3d> tpos, tacc;
  std::vector<double> teps, tpot;

  // Target-side staging for the PIKG mixed-F32 gravity kernel: group-centre-
  // relative positions in single precision, accumulator outputs in double
  // (the §4.3 mixed-precision reduction).
  std::vector<float> tx, ty, tz, te2;
  std::vector<double> tax, tay, taz, tpt;

  // Per-candidate derived quantities of the hydro-force pass, staged once
  // per group (pure j-functions: 1/H, H/2, 1/H^4, P/rho^2, Balsara factor).
  std::vector<double> qhinv, qhh, qh4, qp2, qbal;
  // Per-target packed neighbour lists (the compacted `sel` gathered into
  // contiguous SoA) handed to the PIKG SPH kernels.
  std::vector<double> kx, ky, kz, km, kvx, kvy, kvz, khf, khh, khi, kh4, kp2,
      krho, kcs, kbal;
};

class StepContext {
 public:
  StepContext();

  /// Reset the per-step counters (call once at the top of Simulation::step).
  void beginStep();

  /// Drop every cached tree/group: positions, species, counts or the LET
  /// import set changed.
  void invalidate();

  /// Drop the gravity tree only: the LET imports were replaced.
  void invalidateGravityTree() { gravity_tree_valid_ = false; }

  /// Gravity tree over all `particles` plus the imported LET entries.
  /// Builds lazily; returns the cached tree while valid.
  SourceTree& gravityTree(std::span<const Particle> particles,
                          std::span<const SourceEntry> let_entries, int leaf_size);

  /// Gas-only tree over the working array (locals + ghosts).
  SourceTree& gasTree(std::span<const Particle> work, int leaf_size);

  /// Morton-ordered target groups over `targets` (indices into the array
  /// the targets live in: `particles` for gravity, the locals + ghosts
  /// working array for gas). Each tree has one slot, cached by the target
  /// list's content and the group size, so a repeated request with no
  /// intervening drift — the hydro force after the density solve, or the
  /// second pass of a global step — is a hit. invalidate() and the
  /// position refreshes clear the slot (positions moved, so the bboxes went
  /// stale even for an identical list). The reference is valid until the
  /// next call on the same slot.
  const std::vector<TargetGroup>& gravityGroups(std::span<const Particle> particles,
                                                std::span<const std::uint32_t> targets,
                                                int group_size);
  const std::vector<TargetGroup>& gasGroups(std::span<const Particle> work,
                                            std::span<const std::uint32_t> targets,
                                            int group_size);

  /// Propagate updated Particle::h into the cached gas tree (entry h and
  /// node max_h) — an O(N + nodes) sweep instead of a rebuild.
  void refreshGasSmoothing(std::span<const Particle> work);

  /// Block-timestep drift support: propagate updated particle positions into
  /// the cached trees and recompute their moments in place (O(N + nodes))
  /// instead of invalidating. Topology and Morton order stay from the last
  /// build, so per-sub-step cost is a sweep, not a sort. The tree's cached
  /// target groups are dropped (their bboxes went stale) and rebuilt on the
  /// next request. In a gravity tree holding LET imports only the local
  /// entries move; the imports keep their exchanged positions, the coasting
  /// the exchange skin bounds.
  void refreshGravityPositions(std::span<const Particle> particles);
  void refreshGasPositions(std::span<const Particle> work);

  [[nodiscard]] ThreadArena& arena(int tid) { return arenas_[static_cast<std::size_t>(tid)]; }
  [[nodiscard]] int numArenas() const { return static_cast<int>(arenas_.size()); }

  /// Grow the arena pool to the current omp_get_max_threads(). Called from
  /// the serial prologue of every force pass so a later omp_set_num_threads
  /// increase cannot index past the pool built at construction time.
  void ensureArenas();

  [[nodiscard]] int buildsThisStep() const { return builds_step_; }
  [[nodiscard]] std::uint64_t totalBuilds() const { return builds_total_; }
  [[nodiscard]] int refreshesThisStep() const { return refreshes_step_; }
  [[nodiscard]] std::uint64_t totalRefreshes() const { return refreshes_total_; }

 private:
  /// One tree's target-group slot, keyed by target-list content.
  struct GroupCache {
    std::vector<TargetGroup> groups;
    std::vector<std::uint32_t> key;  ///< the targets the groups were built from
    int gs = 0;
    bool valid = false;
    const std::vector<TargetGroup>& get(std::span<const Particle> particles,
                                        std::span<const std::uint32_t> targets,
                                        int group_size);
  };

  SourceTree gravity_tree_, gas_tree_;
  GroupCache gravity_groups_, gas_groups_;

  bool gravity_tree_valid_ = false, gas_tree_valid_ = false;
  // Build-parameter fingerprints for the mismatch guard.
  std::size_t gravity_n_ = 0, gravity_let_n_ = 0, gas_n_ = 0;
  int gravity_leaf_ = 0, gas_leaf_ = 0;

  std::vector<ThreadArena> arenas_;

  int builds_step_ = 0, refreshes_step_ = 0;
  std::uint64_t builds_total_ = 0, refreshes_total_ = 0;
};

}  // namespace asura::fdps
