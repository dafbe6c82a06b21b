#pragma once
/// \file domain.hpp
/// \brief Sample-based multisection domain decomposition + particle exchange.
///
/// FDPS decomposes space into a px x py x pz grid of rectilinear domains by
/// recursive multisection on sampled particle positions: cuts along x, then
/// per-slab cuts along y, then per-column cuts along z. With a
/// centrally-concentrated galaxy this produces the long, thin central
/// domains seen in the paper's Figure 4 — which is exactly why particle
/// exchange grows expensive at scale (§5.2.1).
///
/// Every cut places an equal share of the sampled *weight* on each side of
/// it. Unweighted samples weigh 1, so the cuts are equal-count. Weighted
/// samples carry 1 + Particle::work (FDPS's sampling method with cost
/// weights), so each domain holds an equal share of the sampled force-pass
/// work. Either way every rank owns one disjoint box.
///
/// The particle exchange is one flat alltoallv (docs/distributed.md says
/// why the engine does not route it like the paper's 3-D torus all-to-all,
/// §3.4).

#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "fdps/box.hpp"
#include "fdps/particle.hpp"
#include "util/rng.hpp"

namespace asura::fdps {

class DomainDecomposer {
 public:
  /// A one-cell (1x1x1) grid holds its only decomposition, every cut at
  /// +-kHuge, from construction: it is never cut, sampled or measured.
  DomainDecomposer(int px, int py, int pz);

  /// Decomposition sample budget per rank.
  static constexpr int kSampleCap = 4096;

  /// Collective over `comm`: sample up to kSampleCap local positions, each
  /// weighted 1 + work when `weighted` (1 otherwise), compute the cut
  /// hierarchy on rank 0 and broadcast it. Returns whether it cut: false at
  /// once on a one-cell grid, drawing nothing from `rng`.
  bool decompose(comm::Comm& comm, std::span<const Particle> local, util::Pcg32& rng,
                 bool weighted);

  /// Serial convenience (single "rank"): equal-count cuts from the full set.
  void decomposeSerial(const std::vector<Particle>& all);

  /// Collective: measure the rank load (the sum over locals of the sample
  /// weight decompose() would give them) and re-run decompose() iff
  /// max/mean over ranks exceeds `threshold`. Returns true iff it re-cut;
  /// `imbalance_out` (optional) receives the measured max/mean, identical
  /// on every rank. A one-cell grid returns false at once.
  bool maintain(comm::Comm& comm, std::span<const Particle> local, util::Pcg32& rng,
                bool weighted, double threshold, double* imbalance_out = nullptr);

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

  [[nodiscard]] bool ready() const { return !xcuts_.empty(); }

  static constexpr double kHuge = 1.0e30;

  /// Snapshot of the cut hierarchy (checkpoint support). Restoring the cuts
  /// of a previous run makes ownerOf() bitwise identical to that run without
  /// re-sampling — re-decomposition would consume rng state and shift every
  /// downstream migration decision. restoreCuts rejects, with a
  /// std::runtime_error, cut vectors that are neither empty (a multi-cell
  /// grid not yet decomposed) nor px+1, px*(py+1) and px*py*(pz+1) long.
  struct Cuts {
    std::vector<double> x, y, z;
  };
  [[nodiscard]] Cuts saveCuts() const { return {xcuts_, ycuts_, zcuts_}; }
  void restoreCuts(Cuts cuts);

  /// Ship every particle to its owner; returns the new local population in
  /// source-rank order (a particle that stays keeps its relative order).
  [[nodiscard]] std::vector<Particle> exchange(comm::Comm& comm,
                                               std::span<const Particle> parts) const;

 private:
  int px_, py_, pz_;
  std::vector<double> xcuts_;  ///< px+1 values
  std::vector<double> ycuts_;  ///< px rows of (py+1)
  std::vector<double> zcuts_;  ///< px*py rows of (pz+1)
};

}  // namespace asura::fdps
