#pragma once
/// \file domain.hpp
/// \brief Sample-based multisection domain decomposition + particle exchange.
///
/// FDPS decomposes space into a px x py x pz grid of rectilinear domains by
/// recursive multisection on sampled particle positions: equal-count cuts
/// along x, then per-slab cuts along y, then per-column cuts along z. With a
/// centrally-concentrated galaxy this produces the long, thin central
/// domains seen in the paper's Figure 4 — which is exactly why particle
/// exchange grows expensive at scale (§5.2.1).
///
/// The exchange itself is an all-to-all with O(p^{1/3}) structure when a
/// TorusTopology is supplied (§3.4), or a flat alltoallv otherwise.
///
/// A second, work-weighted mode (MP-Gadget's domain architecture) replaces
/// the rectilinear grid with Morton-curve *segments*: the key space is
/// over-decomposed into ~kSegmentsPerRank x P aligned octree segments, each
/// segment weighted by the decayed per-particle work counters, and
/// contiguous runs of segments are assigned to ranks by a greedy weighted
/// bin-packer. A cheap `maintain()` pass re-runs only the assignment over
/// fresh weights when the rank imbalance drifts past a threshold — segment
/// boundaries move by whole segments, so between full re-decompositions only
/// boundary segments migrate and the cached LET/ghost exchange products
/// survive.

#include <cstdint>
#include <vector>

#include "comm/comm.hpp"
#include "comm/torus.hpp"
#include "fdps/box.hpp"
#include "fdps/particle.hpp"
#include "util/rng.hpp"

namespace asura::fdps {

/// Contiguous greedy assignment of weighted segments to `ranks` bins: the
/// boundary after rank r is placed where the cumulative weight best matches
/// r+1 fair shares of the total, while guaranteeing every rank at least one
/// segment. Deterministic for identical inputs (ties keep the earlier cut).
[[nodiscard]] std::vector<int> assignSegmentsGreedy(const std::vector<double>& weights,
                                                    int ranks);

class DomainDecomposer {
 public:
  DomainDecomposer(int px, int py, int pz);

  /// Decomposition sample budget per rank.
  static constexpr int kSampleCap = 4096;
  /// Segments per rank (over-decomposition factor) of the weighted mode.
  static constexpr int kSegmentsPerRank = 12;

  /// Collective over `comm`: sample up to kSampleCap local positions,
  /// compute the cut hierarchy on rank 0 with equal-count multisection,
  /// broadcast.
  void decompose(comm::Comm& comm, const std::vector<Particle>& local, util::Pcg32& rng);

  /// Serial convenience (single "rank"): decompose from the full set.
  void decomposeSerial(const std::vector<Particle>& all);

  /// Collective: work-weighted Morton-segment decomposition. Samples
  /// (position, 1 + work) pairs with the same rng draw pattern as
  /// decompose(), over-decomposes the key space into ~kSegmentsPerRank x P
  /// segments by octant refinement until a segment holds at most
  /// 1/(kSegmentsPerRank x P) of the total sampled work, then greedily
  /// assigns contiguous segment runs to ranks. Every rank computes the
  /// identical result redundantly from the allgathered samples (rank-ordered,
  /// so bitwise identical).
  void decomposeWeighted(comm::Comm& comm, const std::vector<Particle>& local,
                         util::Pcg32& rng);

  /// Collective, cheap (no sampling, no rng): re-weigh the *existing*
  /// segments from the current locals' work counters and, if the per-rank
  /// weight imbalance max/mean exceeds `threshold`, re-run the greedy
  /// assignment over the unchanged segment structure — only boundary
  /// segments change owner. Returns true iff the assignment changed;
  /// `imbalance_out` (optional) receives the pre-rebalance max/mean ratio.
  bool maintain(comm::Comm& comm, const std::vector<Particle>& local, double threshold,
                double* imbalance_out = nullptr);

  [[nodiscard]] bool weighted() const { return weighted_mode_; }
  [[nodiscard]] std::size_t segmentCount() const { return seg_keys_.size(); }
  [[nodiscard]] const Box& rootCube() const { return cube_; }

  [[nodiscard]] int ranks() const { return px_ * py_ * pz_; }
  [[nodiscard]] int px() const { return px_; }
  [[nodiscard]] int py() const { return py_; }
  [[nodiscard]] int pz() const { return pz_; }

  /// Rank owning a position (rank = ix + px*(iy + py*iz)).
  [[nodiscard]] int ownerOf(const Vec3d& pos) const;

  /// Domain box of a rank. Outer faces sit at +-kHuge; `clamped` trims them
  /// to `frame` for display (Fig. 4).
  [[nodiscard]] Box domainOf(int rank) const;
  [[nodiscard]] Box domainOfClamped(int rank, const Box& frame) const;

  [[nodiscard]] bool ready() const { return weighted_mode_ || !xcuts_.empty(); }

  static constexpr double kHuge = 1.0e30;

  /// Snapshot of the cut hierarchy (checkpoint support). Restoring the cuts
  /// of a previous run makes ownerOf() bitwise identical to that run without
  /// re-sampling — re-decomposition would consume rng state and shift every
  /// downstream migration decision. In weighted mode the segment map (root
  /// cube, start keys, owners, last weights) is the authoritative state; the
  /// per-rank boxes are recomputed deterministically on restore.
  /// restoreCuts rejects, with a std::runtime_error naming the field, a map
  /// that ownerOf()/domainOf() could not index: owners outside [0, ranks),
  /// segment vectors of unequal length, segment keys not strictly increasing
  /// from 0 inside the key space, or cut vectors that are neither empty (not
  /// yet decomposed) nor px+1, px*(py+1) and px*py*(pz+1) long.
  struct Cuts {
    std::vector<double> x, y, z;
    bool weighted = false;
    Box cube;
    std::vector<std::uint64_t> seg_keys;
    std::vector<int> seg_rank;
    std::vector<double> seg_weight;
  };
  [[nodiscard]] Cuts saveCuts() const {
    return {xcuts_, ycuts_, zcuts_, weighted_mode_, cube_, seg_keys_, seg_rank_, seg_weight_};
  }
  void restoreCuts(Cuts cuts);

  /// Ship every particle to its owner; returns the new local population.
  /// Uses the 3-phase torus alltoallv when `torus` is non-null.
  [[nodiscard]] std::vector<Particle> exchange(comm::Comm& comm,
                                               std::vector<Particle> parts,
                                               comm::TorusTopology* torus = nullptr) const;

 private:
  void computeCuts(std::vector<Vec3d> samples);
  void computeRankBoxes();
  [[nodiscard]] std::size_t segmentOf(std::uint64_t key) const;

  int px_, py_, pz_;
  std::vector<double> xcuts_;  ///< px+1 values
  std::vector<double> ycuts_;  ///< px rows of (py+1)
  std::vector<double> zcuts_;  ///< px*py rows of (pz+1)

  // Work-weighted Morton-segment mode.
  bool weighted_mode_ = false;
  Box cube_;                               ///< root cube the keys are built in
  std::vector<std::uint64_t> seg_keys_;    ///< segment start keys (sorted, [0]==0)
  std::vector<int> seg_rank_;              ///< owner of each segment
  std::vector<double> seg_weight_;         ///< last measured segment weights
  std::vector<Box> rank_box_;              ///< cached union box per rank
};

}  // namespace asura::fdps
