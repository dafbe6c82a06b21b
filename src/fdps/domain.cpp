#include "fdps/domain.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "fdps/morton.hpp"

namespace asura::fdps {

std::vector<int> assignSegmentsGreedy(const std::vector<double>& weights, int ranks) {
  const std::size_t s_count = weights.size();
  if (ranks <= 0) throw std::invalid_argument("assignSegmentsGreedy: ranks must be positive");
  if (s_count < static_cast<std::size_t>(ranks)) {
    throw std::invalid_argument("assignSegmentsGreedy: fewer segments than ranks");
  }
  std::vector<double> pre(s_count + 1, 0.0);
  for (std::size_t i = 0; i < s_count; ++i) pre[i + 1] = pre[i] + weights[i];

  std::vector<int> owner(s_count, ranks - 1);
  std::size_t begin = 0;
  for (int r = 0; r + 1 < ranks; ++r) {
    const double target = pre[s_count] * (r + 1) / ranks;
    auto it = std::lower_bound(pre.begin() + static_cast<std::ptrdiff_t>(begin + 1),
                               pre.end(), target);
    auto b = static_cast<std::size_t>(it - pre.begin());
    // pre[b] >= target >= pre[b-1]: keep whichever boundary is closer to the
    // fair share; ties take the earlier cut.
    if (b > begin + 1 && b <= s_count && target - pre[b - 1] <= pre[b] - target) --b;
    // Leave at least one segment for each remaining rank, take at least one.
    const std::size_t max_end = s_count - static_cast<std::size_t>(ranks - 1 - r);
    b = std::min(std::max(b, begin + 1), max_end);
    for (std::size_t i = begin; i < b; ++i) owner[i] = r;
    begin = b;
  }
  return owner;
}

DomainDecomposer::DomainDecomposer(int px, int py, int pz) : px_(px), py_(py), pz_(pz) {
  if (px <= 0 || py <= 0 || pz <= 0) {
    throw std::invalid_argument("DomainDecomposer: grid dims must be positive");
  }
}

void DomainDecomposer::decompose(comm::Comm& comm, const std::vector<Particle>& local,
                                 util::Pcg32& rng) {
  if (comm.size() != ranks()) {
    throw std::invalid_argument("DomainDecomposer: comm size != px*py*pz");
  }
  // Uniform sampling keeps the sample budget O(p * cap) independent of N.
  std::vector<Vec3d> samples;
  constexpr auto cap = static_cast<std::size_t>(kSampleCap);
  if (local.size() <= cap) {
    samples.reserve(local.size());
    for (const auto& p : local) samples.push_back(p.pos);
  } else {
    samples.reserve(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      samples.push_back(local[rng.below(static_cast<std::uint32_t>(local.size()))].pos);
    }
  }

  // Flatten for transport.
  std::vector<double> flat;
  flat.reserve(samples.size() * 3);
  for (const auto& s : samples) {
    flat.push_back(s.x);
    flat.push_back(s.y);
    flat.push_back(s.z);
  }
  const auto gathered = comm.allgatherv(flat);

  if (comm.rank() == 0) {
    std::vector<Vec3d> all;
    for (const auto& part : gathered) {
      for (std::size_t i = 0; i + 2 < part.size(); i += 3) {
        all.push_back({part[i], part[i + 1], part[i + 2]});
      }
    }
    computeCuts(std::move(all));
  }
  xcuts_ = comm.bcast(xcuts_, 0);
  ycuts_ = comm.bcast(ycuts_, 0);
  zcuts_ = comm.bcast(zcuts_, 0);
  weighted_mode_ = false;
}

namespace {

/// Hard cap on octant refinement: 12 levels = up to 8^12 cells, far beyond
/// any realistic segment count, while keeping recursion bounded when samples
/// pile up at one point.
constexpr int kMaxSegmentDepth = 12;

/// Recursively split the key-sorted sample range [lo, hi) (cell [key_lo,
/// key_lo + span(depth))) by octants until a cell's weight drops to the
/// target; emit leaf cells' start keys in curve order.
void refineSegments(const std::vector<std::pair<std::uint64_t, double>>& samples,
                    const std::vector<double>& pre, std::size_t lo, std::size_t hi,
                    std::uint64_t key_lo, int depth, double target,
                    std::vector<std::uint64_t>& out_keys) {
  const double w = pre[hi] - pre[lo];
  if (depth >= kMaxSegmentDepth || hi - lo <= 1 || w <= target) {
    out_keys.push_back(key_lo);
    return;
  }
  const std::uint64_t child_span = mortonCellSpan(depth + 1);
  std::size_t child_lo = lo;
  for (unsigned c = 0; c < 8; ++c) {
    const std::uint64_t child_end = key_lo + (c + 1) * child_span;
    const auto it = std::lower_bound(
        samples.begin() + static_cast<std::ptrdiff_t>(child_lo),
        samples.begin() + static_cast<std::ptrdiff_t>(hi), child_end,
        [](const std::pair<std::uint64_t, double>& s, std::uint64_t k) { return s.first < k; });
    const auto child_hi = static_cast<std::size_t>(it - samples.begin());
    refineSegments(samples, pre, child_lo, child_hi, key_lo + c * child_span, depth + 1,
                   target, out_keys);
    child_lo = child_hi;
  }
}

}  // namespace

void DomainDecomposer::decomposeWeighted(comm::Comm& comm, const std::vector<Particle>& local,
                                         util::Pcg32& rng) {
  if (comm.size() != ranks()) {
    throw std::invalid_argument("DomainDecomposer: comm size != px*py*pz");
  }

  // Root cube: global bounding box of every particle (not just samples), so
  // only later drift relies on the boundary-cell clamp in mortonKey().
  Vec3d lo{kHuge, kHuge, kHuge}, hi{-kHuge, -kHuge, -kHuge};
  for (const auto& p : local) {
    lo.x = std::min(lo.x, p.pos.x);
    lo.y = std::min(lo.y, p.pos.y);
    lo.z = std::min(lo.z, p.pos.z);
    hi.x = std::max(hi.x, p.pos.x);
    hi.y = std::max(hi.y, p.pos.y);
    hi.z = std::max(hi.z, p.pos.z);
  }
  lo.x = comm.allreduce(lo.x, comm::Op::Min);
  lo.y = comm.allreduce(lo.y, comm::Op::Min);
  lo.z = comm.allreduce(lo.z, comm::Op::Min);
  hi.x = comm.allreduce(hi.x, comm::Op::Max);
  hi.y = comm.allreduce(hi.y, comm::Op::Max);
  hi.z = comm.allreduce(hi.z, comm::Op::Max);
  if (lo.x > hi.x) throw std::invalid_argument("DomainDecomposer: no samples");
  Box bounds;
  bounds.extend(lo);
  bounds.extend(hi);
  cube_ = bounds.boundingCube();

  // Same sampling pattern (and rng consumption) as decompose(), but each
  // sample carries its particle's decayed work as weight.
  std::vector<double> flat;
  constexpr auto cap = static_cast<std::size_t>(kSampleCap);
  auto push = [&flat](const Particle& p) {
    flat.push_back(p.pos.x);
    flat.push_back(p.pos.y);
    flat.push_back(p.pos.z);
    flat.push_back(1.0 + p.work);
  };
  if (local.size() <= cap) {
    flat.reserve(local.size() * 4);
    for (const auto& p : local) push(p);
  } else {
    flat.reserve(cap * 4);
    for (std::size_t i = 0; i < cap; ++i) {
      push(local[rng.below(static_cast<std::uint32_t>(local.size()))]);
    }
  }

  // Every rank assembles the identical rank-ordered sample list and computes
  // the segment map redundantly — no bcast, bitwise identical everywhere.
  const auto gathered = comm.allgatherv(flat);
  std::vector<std::pair<std::uint64_t, double>> samples;
  for (const auto& part : gathered) {
    for (std::size_t i = 0; i + 3 < part.size(); i += 4) {
      samples.push_back({mortonKey({part[i], part[i + 1], part[i + 2]}, cube_), part[i + 3]});
    }
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<double> pre(samples.size() + 1, 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) pre[i + 1] = pre[i] + samples[i].second;
  const double total = pre.back();
  const double target = total / (static_cast<double>(kSegmentsPerRank) * ranks());

  seg_keys_.clear();
  refineSegments(samples, pre, 0, samples.size(), 0, 0, target, seg_keys_);

  // Degenerate sample sets can leave fewer segments than ranks: split the
  // widest key span at its midpoint until every rank can own one.
  while (seg_keys_.size() < static_cast<std::size_t>(ranks())) {
    std::size_t widest = 0;
    std::uint64_t widest_span = 0;
    for (std::size_t s = 0; s < seg_keys_.size(); ++s) {
      const std::uint64_t end = s + 1 < seg_keys_.size() ? seg_keys_[s + 1] : kMortonKeyEnd;
      if (end - seg_keys_[s] > widest_span) {
        widest_span = end - seg_keys_[s];
        widest = s;
      }
    }
    if (widest_span < 2) throw std::logic_error("DomainDecomposer: cannot split segments");
    seg_keys_.insert(seg_keys_.begin() + static_cast<std::ptrdiff_t>(widest) + 1,
                     seg_keys_[widest] + widest_span / 2);
  }

  // Per-segment weights: one merge walk over the key-sorted samples.
  seg_weight_.assign(seg_keys_.size(), 0.0);
  std::size_t s = 0;
  for (const auto& [key, w] : samples) {
    while (s + 1 < seg_keys_.size() && key >= seg_keys_[s + 1]) ++s;
    seg_weight_[s] += w;
  }

  seg_rank_ = assignSegmentsGreedy(seg_weight_, ranks());
  weighted_mode_ = true;
  computeRankBoxes();
}

bool DomainDecomposer::maintain(comm::Comm& comm, const std::vector<Particle>& local,
                                double threshold, double* imbalance_out) {
  if (!weighted_mode_ || seg_keys_.empty()) {
    throw std::logic_error("DomainDecomposer: maintain() requires a weighted decomposition");
  }
  // Fresh per-segment weights from *all* locals (no sampling, no rng): the
  // global sum is assembled rank-ordered so every rank sees identical bits.
  std::vector<double> w_local(seg_keys_.size(), 0.0);
  for (const auto& p : local) {
    w_local[segmentOf(mortonKey(p.pos, cube_))] += 1.0 + p.work;
  }
  const auto gathered = comm.allgatherv(w_local);
  std::vector<double> w(seg_keys_.size(), 0.0);
  for (const auto& part : gathered) {
    for (std::size_t i = 0; i < w.size() && i < part.size(); ++i) w[i] += part[i];
  }

  std::vector<double> rank_w(static_cast<std::size_t>(ranks()), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    rank_w[static_cast<std::size_t>(seg_rank_[i])] += w[i];
    total += w[i];
  }
  const double mean = total / ranks();
  double imbalance = 1.0;
  if (mean > 0.0) {
    imbalance = *std::max_element(rank_w.begin(), rank_w.end()) / mean;
  }
  if (imbalance_out) *imbalance_out = imbalance;

  seg_weight_ = std::move(w);
  if (imbalance <= threshold) return false;
  auto owner = assignSegmentsGreedy(seg_weight_, ranks());
  if (owner == seg_rank_) return false;
  seg_rank_ = std::move(owner);
  computeRankBoxes();
  return true;
}

void DomainDecomposer::restoreCuts(Cuts cuts) {
  const auto fail = [](const char* what) {
    throw std::runtime_error(std::string("checkpoint: invalid domain cuts: ") + what);
  };
  const auto px = static_cast<std::size_t>(px_), py = static_cast<std::size_t>(py_),
             pz = static_cast<std::size_t>(pz_);
  const bool no_cuts = cuts.x.empty() && cuts.y.empty() && cuts.z.empty();
  if (!no_cuts && (cuts.x.size() != px + 1 || cuts.y.size() != px * (py + 1) ||
                   cuts.z.size() != px * py * (pz + 1))) {
    fail("x/y/z cut counts do not match the px*py*pz grid");
  }
  if (cuts.seg_rank.size() != cuts.seg_keys.size() ||
      cuts.seg_weight.size() != cuts.seg_keys.size()) {
    fail("seg_keys/seg_rank/seg_weight lengths differ");
  }
  if (cuts.weighted && (cuts.seg_keys.empty() || cuts.seg_keys.front() != 0)) {
    fail("seg_keys must start at key 0");
  }
  for (std::size_t s = 0; s < cuts.seg_keys.size(); ++s) {
    if ((s > 0 && cuts.seg_keys[s] <= cuts.seg_keys[s - 1]) ||
        cuts.seg_keys[s] >= kMortonKeyEnd) {
      fail("seg_keys not strictly increasing inside the key space");
    }
    if (cuts.seg_rank[s] < 0 || cuts.seg_rank[s] >= ranks()) {
      fail("seg_rank owner outside [0, ranks)");
    }
  }
  xcuts_ = std::move(cuts.x);
  ycuts_ = std::move(cuts.y);
  zcuts_ = std::move(cuts.z);
  weighted_mode_ = cuts.weighted;
  cube_ = cuts.cube;
  seg_keys_ = std::move(cuts.seg_keys);
  seg_rank_ = std::move(cuts.seg_rank);
  seg_weight_ = std::move(cuts.seg_weight);
  if (weighted_mode_) computeRankBoxes();
}

std::size_t DomainDecomposer::segmentOf(std::uint64_t key) const {
  const auto it = std::upper_bound(seg_keys_.begin(), seg_keys_.end(), key);
  return static_cast<std::size_t>(it - seg_keys_.begin()) - 1;
}

void DomainDecomposer::computeRankBoxes() {
  rank_box_.assign(static_cast<std::size_t>(ranks()), Box{});
  const Vec3d e = cube_.extent();
  constexpr double kInv = 1.0 / (1 << 21);
  // FP slack so a particle a rounding error past a cell face still counts as
  // inside its owner's box (the boxes are conservative supersets anyway).
  const double pad = 1e-12 * std::max(e.x, std::max(e.y, e.z));
  std::vector<MortonCell> cells;
  for (std::size_t s = 0; s < seg_keys_.size(); ++s) {
    const std::uint64_t end = s + 1 < seg_keys_.size() ? seg_keys_[s + 1] : kMortonKeyEnd;
    cells.clear();
    mortonRangeCells(seg_keys_[s], end, cells);
    Box& rb = rank_box_[static_cast<std::size_t>(seg_rank_[s])];
    for (const auto& cell : cells) {
      const auto c = mortonCellCoords(cell);
      Box b;
      b.lo = {cube_.lo.x + static_cast<double>(c.ix) * kInv * e.x - pad,
              cube_.lo.y + static_cast<double>(c.iy) * kInv * e.y - pad,
              cube_.lo.z + static_cast<double>(c.iz) * kInv * e.z - pad};
      b.hi = {cube_.lo.x + static_cast<double>(c.ix + c.side) * kInv * e.x + pad,
              cube_.lo.y + static_cast<double>(c.iy + c.side) * kInv * e.y + pad,
              cube_.lo.z + static_cast<double>(c.iz + c.side) * kInv * e.z + pad};
      // Cells on a cube face also own every clamped out-of-cube position.
      constexpr std::uint64_t kGrid = 1ULL << 21;
      if (c.ix == 0) b.lo.x = -kHuge;
      if (c.iy == 0) b.lo.y = -kHuge;
      if (c.iz == 0) b.lo.z = -kHuge;
      if (c.ix + c.side == kGrid) b.hi.x = kHuge;
      if (c.iy + c.side == kGrid) b.hi.y = kHuge;
      if (c.iz + c.side == kGrid) b.hi.z = kHuge;
      rb.extend(b);
    }
  }
}

void DomainDecomposer::decomposeSerial(const std::vector<Particle>& all) {
  std::vector<Vec3d> samples;
  samples.reserve(all.size());
  for (const auto& p : all) samples.push_back(p.pos);
  computeCuts(std::move(samples));
  weighted_mode_ = false;
}

void DomainDecomposer::computeCuts(std::vector<Vec3d> samples) {
  if (samples.empty()) throw std::invalid_argument("DomainDecomposer: no samples");
  const std::size_t n = samples.size();

  xcuts_.assign(static_cast<std::size_t>(px_) + 1, 0.0);
  ycuts_.assign(static_cast<std::size_t>(px_) * (py_ + 1), 0.0);
  zcuts_.assign(static_cast<std::size_t>(px_) * py_ * (pz_ + 1), 0.0);

  std::sort(samples.begin(), samples.end(),
            [](const Vec3d& a, const Vec3d& b) { return a.x < b.x; });
  xcuts_.front() = -kHuge;
  xcuts_.back() = kHuge;
  for (int ix = 1; ix < px_; ++ix) {
    xcuts_[static_cast<std::size_t>(ix)] =
        samples[n * static_cast<std::size_t>(ix) / static_cast<std::size_t>(px_)].x;
  }

  for (int ix = 0; ix < px_; ++ix) {
    const std::size_t slab_lo = n * static_cast<std::size_t>(ix) / static_cast<std::size_t>(px_);
    const std::size_t slab_hi =
        n * static_cast<std::size_t>(ix + 1) / static_cast<std::size_t>(px_);
    std::sort(samples.begin() + static_cast<std::ptrdiff_t>(slab_lo),
              samples.begin() + static_cast<std::ptrdiff_t>(slab_hi),
              [](const Vec3d& a, const Vec3d& b) { return a.y < b.y; });
    const std::size_t m = slab_hi - slab_lo;
    double* yrow = &ycuts_[static_cast<std::size_t>(ix) * (py_ + 1)];
    yrow[0] = -kHuge;
    yrow[py_] = kHuge;
    for (int iy = 1; iy < py_; ++iy) {
      yrow[iy] = m == 0 ? yrow[iy - 1]
                        : samples[slab_lo + m * static_cast<std::size_t>(iy) /
                                                static_cast<std::size_t>(py_)]
                              .y;
    }

    for (int iy = 0; iy < py_; ++iy) {
      const std::size_t col_lo = slab_lo + (m == 0 ? 0
                                                   : m * static_cast<std::size_t>(iy) /
                                                         static_cast<std::size_t>(py_));
      const std::size_t col_hi = slab_lo + (m == 0 ? 0
                                                   : m * static_cast<std::size_t>(iy + 1) /
                                                         static_cast<std::size_t>(py_));
      std::sort(samples.begin() + static_cast<std::ptrdiff_t>(col_lo),
                samples.begin() + static_cast<std::ptrdiff_t>(col_hi),
                [](const Vec3d& a, const Vec3d& b) { return a.z < b.z; });
      const std::size_t k = col_hi - col_lo;
      double* zrow =
          &zcuts_[(static_cast<std::size_t>(ix) * py_ + static_cast<std::size_t>(iy)) *
                  (pz_ + 1)];
      zrow[0] = -kHuge;
      zrow[pz_] = kHuge;
      for (int iz = 1; iz < pz_; ++iz) {
        zrow[iz] = k == 0 ? zrow[iz - 1]
                          : samples[col_lo + k * static_cast<std::size_t>(iz) /
                                                 static_cast<std::size_t>(pz_)]
                                .z;
      }
    }
  }
}

namespace {

/// Index of the half-open interval [cuts[i], cuts[i+1]) containing v.
int findInterval(const double* cuts, int n, double v) {
  int lo = 0, hi = n;  // v is always inside [-kHuge, kHuge)
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (v < cuts[mid]) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

}  // namespace

int DomainDecomposer::ownerOf(const Vec3d& pos) const {
  if (!ready()) throw std::logic_error("DomainDecomposer: decompose() not called");
  if (weighted_mode_) {
    return seg_rank_[segmentOf(mortonKey(pos, cube_))];
  }
  const int ix = findInterval(xcuts_.data(), px_, pos.x);
  const int iy = findInterval(&ycuts_[static_cast<std::size_t>(ix) * (py_ + 1)], py_, pos.y);
  const int iz = findInterval(
      &zcuts_[(static_cast<std::size_t>(ix) * py_ + static_cast<std::size_t>(iy)) *
              (pz_ + 1)],
      pz_, pos.z);
  return comm::TorusTopology::rankOf(ix, iy, iz, px_, py_);
}

Box DomainDecomposer::domainOf(int rank) const {
  if (!ready()) throw std::logic_error("DomainDecomposer: decompose() not called");
  if (weighted_mode_) return rank_box_[static_cast<std::size_t>(rank)];
  const int ix = rank % px_;
  const int iy = (rank / px_) % py_;
  const int iz = rank / (px_ * py_);
  const double* yrow = &ycuts_[static_cast<std::size_t>(ix) * (py_ + 1)];
  const double* zrow =
      &zcuts_[(static_cast<std::size_t>(ix) * py_ + static_cast<std::size_t>(iy)) *
              (pz_ + 1)];
  Box b;
  b.lo = {xcuts_[static_cast<std::size_t>(ix)], yrow[iy], zrow[iz]};
  b.hi = {xcuts_[static_cast<std::size_t>(ix) + 1], yrow[iy + 1], zrow[iz + 1]};
  return b;
}

Box DomainDecomposer::domainOfClamped(int rank, const Box& frame) const {
  Box b = domainOf(rank);
  b.lo.x = std::max(b.lo.x, frame.lo.x);
  b.lo.y = std::max(b.lo.y, frame.lo.y);
  b.lo.z = std::max(b.lo.z, frame.lo.z);
  b.hi.x = std::min(b.hi.x, frame.hi.x);
  b.hi.y = std::min(b.hi.y, frame.hi.y);
  b.hi.z = std::min(b.hi.z, frame.hi.z);
  return b;
}

std::vector<Particle> DomainDecomposer::exchange(comm::Comm& comm,
                                                 std::vector<Particle> parts,
                                                 comm::TorusTopology* torus) const {
  const auto p = static_cast<std::size_t>(comm.size());
  std::vector<std::vector<Particle>> outgoing(p);
  for (const auto& part : parts) {
    outgoing[static_cast<std::size_t>(ownerOf(part.pos))].push_back(part);
  }
  const auto incoming =
      torus ? torus->alltoallv3d(outgoing) : comm.alltoallv(outgoing);
  std::vector<Particle> result;
  std::size_t total = 0;
  for (const auto& v : incoming) total += v.size();
  result.reserve(total);
  for (const auto& v : incoming) result.insert(result.end(), v.begin(), v.end());
  return result;
}

}  // namespace asura::fdps
