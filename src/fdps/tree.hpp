#pragma once
/// \file tree.hpp
/// \brief Linear Barnes-Hut octree with monopole moments (paper §3.4).
///
/// FDPS assigns particles to a tree and provides O(N log N) interaction
/// calculation. This reimplementation:
///  * sorts source entries by 63-bit Morton key;
///  * builds a pointer-free node array by bit-partitioning the sorted keys;
///  * computes monopole moments (mass, centre of mass) and per-node maximum
///    smoothing length bottom-up;
///  * serves three traversals:
///     - gravity interaction lists for a target group box (MAC: s/d < theta),
///     - neighbour candidate gathering for SPH (gather & scatter radii),
///     - LET export walks for remote domain boxes (in let.hpp).
///
/// The group-wise traversal ("interaction list shared by n_g particles",
/// §5.2.4) is realized by chunking Morton-sorted local particles into target
/// groups; the same n_g knob trades list length against walk cost exactly as
/// discussed in the paper.

#include <cstdint>
#include <span>
#include <vector>

#include "fdps/box.hpp"
#include "fdps/particle.hpp"

namespace asura::fdps {

/// A gravity/neighbour source: either a real particle (idx < kMultipole) or
/// a LET monopole standing in for a remote subtree.
struct SourceEntry {
  Vec3d pos{};
  double mass = 0.0;
  double eps = 1.0;        ///< softening (mass-weighted mean for monopoles)
  double h = 0.0;          ///< SPH support radius; 0 for collisionless/monopole
  std::uint32_t idx = 0;   ///< index into the originating array
  static constexpr std::uint32_t kMultipole = 0xffffffffu;
  [[nodiscard]] bool isMultipole() const { return idx == kMultipole; }
};

static_assert(std::is_trivially_copyable_v<SourceEntry>);

/// Monopole pseudo-particle emitted by the MAC.
struct Monopole {
  Vec3d com{};
  double mass = 0.0;
  double eps = 1.0;
};

/// Provenance of one exported LET entry, in terms of the exporting tree's
/// Morton-sorted entry order: count > 0 is a monopole over entries
/// [first, first+count); count == 0 is the raw entry at `first`. Together
/// with the tree's entry->particle permutation this is enough to recompute
/// the entry's *values* from live particle state in a fixed summation order
/// — the payload-style LET refresh.
struct LetExportItem {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

static_assert(std::is_trivially_copyable_v<LetExportItem>);

class SourceTree {
 public:
  struct Node {
    Box bbox;                 ///< tight bounding box of contents
    double mass = 0.0;
    Vec3d com{};
    double eps_mean = 1.0;    ///< mass-weighted softening
    double max_h = 0.0;       ///< max SPH support in subtree (scatter search)
    std::uint32_t first = 0;  ///< entry range [first, first+count)
    std::uint32_t count = 0;
    std::int32_t first_child = -1;  ///< index of first child; -1 for leaves
    std::int32_t n_children = 0;    ///< children are contiguous
    [[nodiscard]] bool isLeaf() const { return first_child < 0; }
    /// Cell size used by the multipole acceptance criterion.
    [[nodiscard]] double size() const {
      const Vec3d e = bbox.extent();
      return std::max({e.x, e.y, e.z});
    }
  };

  /// Build over a copy of the entries (sorted internally by Morton key).
  void build(std::vector<SourceEntry> entries, int leaf_size = 16);

  /// Refresh the SPH support radii stored in the tree (entry h and per-node
  /// max_h) from the originating particle array, without rebuilding topology
  /// or sort order. Valid only while particle *positions* are unchanged since
  /// build(); multipole entries (LET imports) keep their h.
  void refreshSmoothing(std::span<const Particle> particles);

  /// Refresh entry positions (and h) from the originating particle array and
  /// recompute every node moment (bbox, mass-weighted com, max_h) bottom-up
  /// — an O(N + nodes) sweep instead of a rebuild. The Morton topology and
  /// entry order are kept, so after large displacements the tree degrades in
  /// *quality* (looser bboxes, longer walks) but never in *correctness*:
  /// MAC distances and neighbour reach tests always use the recomputed
  /// boxes. Used by the block-timestep sub-step loop, where particles drift
  /// a little every sub-step and a full rebuild per sub-step would erase the
  /// active-set savings. Multipole-tagged entries (every LET import) keep
  /// their exchanged values; every other entry's idx must reference
  /// `particles`.
  void refreshPositions(std::span<const Particle> particles);

  [[nodiscard]] const std::vector<SourceEntry>& entries() const { return entries_; }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] double totalMass() const { return nodes_.empty() ? 0.0 : nodes_[0].mass; }
  [[nodiscard]] const Box& rootBox() const;

  /// Gravity traversal: fill `ep` with indices (into entries()) of sources
  /// that must be treated particle-particle and `sp` with accepted
  /// monopoles, for targets inside `target`.
  void gatherInteraction(const Box& target, double theta, std::vector<std::uint32_t>& ep,
                         std::vector<Monopole>& sp) const;

  /// Neighbour traversal: indices of entries within
  /// max(gather_radius, entry-subtree max_h) of `target` (superset filter —
  /// callers do the exact per-pair test).
  void gatherNeighbors(const Box& target, double gather_radius,
                       std::vector<std::uint32_t>& out) const;

  /// LET export walk: emit monopole entries for subtrees satisfying the MAC
  /// with respect to a *remote domain box*, raw entries otherwise. When
  /// `items` is non-null, one LetExportItem per emitted entry records which
  /// entry range it came from, so the payload can later be recomputed from
  /// live particle state without re-walking (see refreshLetValues).
  void exportLet(const Box& remote_box, double theta, std::vector<SourceEntry>& out,
                 std::vector<LetExportItem>* items = nullptr) const;

 private:
  void buildTopology(int leaf_size);
  void computeMoments();
  /// Octant boundaries of a Morton-sorted entry range at `level`.
  void splitOctants(std::uint32_t first, std::uint32_t count, int level,
                    std::uint32_t (&child_first)[9]) const;
  /// Depth-first expansion of `nodes[root]` (first/count already set),
  /// appending descendants in pre-order and computing leaf moments. Shared
  /// by the serial (global arrays) and parallel (thread-local arrays +
  /// splice) build paths so their node layouts cannot diverge.
  void buildSubtree(std::int32_t root, int root_level, int leaf_size,
                    std::vector<Node>& nodes, std::vector<std::int32_t>& links) const;

  std::vector<SourceEntry> entries_;
  std::vector<std::uint64_t> keys_;  ///< Morton keys parallel to entries_
  std::vector<Node> nodes_;
  /// Child-node indices; Node::first_child indexes into this table because
  /// direct children are not contiguous in nodes_ (grandchildren interleave
  /// during the depth-first build).
  std::vector<std::int32_t> child_links_;

  /// Persistent sort/permute scratch: rebuilding every step out of fresh
  /// allocations costs more in page faults than in arithmetic, so a tree
  /// that lives in a StepContext keeps its working set warm across steps.
  std::vector<std::uint64_t> sort_key_scratch_;
  std::vector<std::uint32_t> sort_idx_a_, sort_idx_b_, sort_counts_;
  std::vector<SourceEntry> entry_scratch_;
};

/// A contiguous chunk of Morton-sorted local targets sharing one interaction
/// list (the paper's n_g grouping).
struct TargetGroup {
  Box bbox;
  std::vector<std::uint32_t> indices;  ///< indices into the particle array
};

/// Indices of every particle in `particles` (gas only when `gas_only`), in
/// ascending order: the target list of a full force pass.
std::vector<std::uint32_t> targetIndices(std::span<const Particle> particles,
                                         bool gas_only = false);

/// Group the particles named by `targets` (indices into `particles`):
/// Morton-sorted by their *current* positions within the targets' bounding
/// cube and chunked into runs of at most `group_size`, so group bboxes are
/// exact even while the cached source trees run on refreshed-in-place
/// moments. A full pass passes targetIndices(); the block-timestep
/// sub-steps pass their closing set.
std::vector<TargetGroup> makeTargetGroups(std::span<const Particle> particles,
                                          std::span<const std::uint32_t> targets,
                                          int group_size);

/// Convenience: build gravity source entries from local particles.
std::vector<SourceEntry> makeSourceEntries(std::span<const Particle> particles,
                                           bool gas_only = false);

/// Stable parallel LSD radix sort: fill `order` with a permutation such that
/// keys[order[i]] is non-decreasing and ties keep ascending original index —
/// exactly the ordering of the comparator-based indirect std::sort it
/// replaces, at O(N) instead of O(N log N) key comparisons. Exposed for the
/// regression tests and the tree-pipeline benchmark.
void radixSortByKey(std::span<const std::uint64_t> keys,
                    std::vector<std::uint32_t>& order);

}  // namespace asura::fdps
