#include "fdps/domain.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace asura::fdps {

namespace {

/// A decomposition sample: a position and its weight.
struct Sample {
  Vec3d pos;
  double w = 1.0;
};

/// Sort samples[lo, hi) along `axis` and split the range into `parts` runs
/// of equal weight. Boundary k (0 < k < parts) is the first index whose
/// inclusive weight sum from lo exceeds total * k / parts; with unit weights
/// the sums are exact integers and that index is lo + (hi - lo) * k / parts
/// in integer division. Boundaries never decrease, and a non-empty range
/// keeps every one below hi even when a weight is not finite. Writes the
/// parts + 1 run bounds to `bounds` and the cut coordinates (outer cuts at
/// -+kHuge; an empty range repeats -kHuge) to `cuts`.
void cutRange(std::vector<Sample>& s, std::size_t lo, std::size_t hi, std::size_t axis,
              int parts, double* cuts, std::size_t* bounds) {
  constexpr double kHuge = DomainDecomposer::kHuge;
  std::sort(s.begin() + static_cast<std::ptrdiff_t>(lo),
            s.begin() + static_cast<std::ptrdiff_t>(hi),
            [axis](const Sample& a, const Sample& b) { return a.pos[axis] < b.pos[axis]; });
  cuts[0] = -kHuge;
  cuts[parts] = kHuge;
  bounds[0] = lo;
  bounds[parts] = hi;
  if (lo == hi) {
    for (int k = 1; k < parts; ++k) {
      cuts[k] = -kHuge;
      bounds[k] = lo;
    }
    return;
  }
  double total = 0.0;
  for (std::size_t i = lo; i < hi; ++i) total += s[i].w;
  std::size_t i = lo;
  double sum = s[lo].w;  // inclusive weight sum from lo up to i
  for (int k = 1; k < parts; ++k) {
    const double share = total * static_cast<double>(k) / static_cast<double>(parts);
    while (i + 1 < hi && !(sum > share)) sum += s[++i].w;
    cuts[k] = s[i].pos[axis];
    bounds[k] = i;
  }
}

/// The full x -> y -> z multisection of `samples` into a px x py x pz grid.
void multisection(std::vector<Sample> samples, int px, int py, int pz,
                  std::vector<double>& xcuts, std::vector<double>& ycuts,
                  std::vector<double>& zcuts) {
  if (samples.empty()) throw std::invalid_argument("DomainDecomposer: no samples");
  const auto upx = static_cast<std::size_t>(px), upy = static_cast<std::size_t>(py),
             upz = static_cast<std::size_t>(pz);
  xcuts.assign(upx + 1, 0.0);
  ycuts.assign(upx * (upy + 1), 0.0);
  zcuts.assign(upx * upy * (upz + 1), 0.0);
  std::vector<std::size_t> xb(upx + 1), yb(upy + 1), zb(upz + 1);
  cutRange(samples, 0, samples.size(), 0, px, xcuts.data(), xb.data());
  for (std::size_t ix = 0; ix < upx; ++ix) {
    cutRange(samples, xb[ix], xb[ix + 1], 1, py, &ycuts[ix * (upy + 1)], yb.data());
    for (std::size_t iy = 0; iy < upy; ++iy) {
      cutRange(samples, yb[iy], yb[iy + 1], 2, pz, &zcuts[(ix * upy + iy) * (upz + 1)],
               zb.data());
    }
  }
}

/// Sample weight of a particle.
double sampleWeight(const Particle& p, bool weighted) { return weighted ? 1.0 + p.work : 1.0; }

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

DomainDecomposer::DomainDecomposer(int px, int py, int pz) : px_(px), py_(py), pz_(pz) {
  if (px <= 0 || py <= 0 || pz <= 0) {
    throw std::invalid_argument("DomainDecomposer: grid dims must be positive");
  }
  if (ranks() == 1) xcuts_ = ycuts_ = zcuts_ = {-kHuge, kHuge};
}

bool DomainDecomposer::decompose(comm::Comm& comm, std::span<const Particle> local,
                                 util::Pcg32& rng, bool weighted) {
  if (comm.size() != ranks()) {
    throw std::invalid_argument("DomainDecomposer: comm size != px*py*pz");
  }
  if (ranks() == 1) return false;  // the one cell's cuts are held from construction
  // Uniform sampling keeps the sample budget O(p * cap) independent of N.
  // Each sample travels as (x, y, z, w).
  std::vector<double> flat;
  auto push = [&flat, weighted](const Particle& p) {
    flat.insert(flat.end(), {p.pos.x, p.pos.y, p.pos.z, sampleWeight(p, weighted)});
  };
  constexpr auto cap = static_cast<std::size_t>(kSampleCap);
  if (local.size() <= cap) {
    flat.reserve(local.size() * 4);
    for (const auto& p : local) push(p);
  } else {
    flat.reserve(cap * 4);
    for (std::size_t i = 0; i < cap; ++i) {
      push(local[rng.below(static_cast<std::uint32_t>(local.size()))]);
    }
  }
  const auto gathered = comm.allgatherv(flat);

  if (comm.rank() == 0) {
    std::vector<Sample> all;
    for (const auto& part : gathered) {
      for (std::size_t i = 0; i + 3 < part.size(); i += 4) {
        all.push_back({{part[i], part[i + 1], part[i + 2]}, part[i + 3]});
      }
    }
    multisection(std::move(all), px_, py_, pz_, xcuts_, ycuts_, zcuts_);
  }
  xcuts_ = comm.bcast(xcuts_, 0);
  ycuts_ = comm.bcast(ycuts_, 0);
  zcuts_ = comm.bcast(zcuts_, 0);
  return true;
}

void DomainDecomposer::decomposeSerial(const std::vector<Particle>& all) {
  std::vector<Sample> samples;
  samples.reserve(all.size());
  for (const auto& p : all) samples.push_back({p.pos});
  multisection(std::move(samples), px_, py_, pz_, xcuts_, ycuts_, zcuts_);
}

bool DomainDecomposer::maintain(comm::Comm& comm, std::span<const Particle> local,
                                util::Pcg32& rng, bool weighted, double threshold,
                                double* imbalance_out) {
  if (comm.size() != ranks()) {
    throw std::invalid_argument("DomainDecomposer: comm size != px*py*pz");
  }
  if (ranks() == 1) return false;
  double load = 0.0;
  for (const auto& p : local) load += sampleWeight(p, weighted);
  // Rank-ordered sum: every rank sees the same total, bit for bit.
  double total = 0.0, max_load = 0.0;
  for (const double l : comm.allgather(load)) {
    total += l;
    max_load = std::max(max_load, l);
  }
  const double mean = total / ranks();
  const double imbalance = mean > 0.0 ? max_load / mean : 1.0;
  if (imbalance_out) *imbalance_out = imbalance;
  if (imbalance <= threshold) return false;
  return decompose(comm, local, rng, weighted);
}

void DomainDecomposer::restoreCuts(Cuts cuts) {
  const auto px = static_cast<std::size_t>(px_), py = static_cast<std::size_t>(py_),
             pz = static_cast<std::size_t>(pz_);
  const bool undecomposed = ranks() > 1 && cuts.x.empty() && cuts.y.empty() && cuts.z.empty();
  if (!undecomposed && (cuts.x.size() != px + 1 || cuts.y.size() != px * (py + 1) ||
                        cuts.z.size() != px * py * (pz + 1))) {
    throw std::runtime_error(
        "checkpoint: invalid domain cuts: x/y/z cut counts do not match the px*py*pz grid");
  }
  xcuts_ = std::move(cuts.x);
  ycuts_ = std::move(cuts.y);
  zcuts_ = std::move(cuts.z);
}

int DomainDecomposer::ownerOf(const Vec3d& pos) const {
  if (!ready()) throw std::logic_error("DomainDecomposer: decompose() not called");
  const int ix = findInterval(xcuts_.data(), px_, pos.x);
  const int iy = findInterval(&ycuts_[static_cast<std::size_t>(ix) * (py_ + 1)], py_, pos.y);
  const int iz = findInterval(
      &zcuts_[(static_cast<std::size_t>(ix) * py_ + static_cast<std::size_t>(iy)) *
              (pz_ + 1)],
      pz_, pos.z);
  return ix + px_ * (iy + py_ * iz);
}

Box DomainDecomposer::domainOf(int rank) const {
  if (!ready()) throw std::logic_error("DomainDecomposer: decompose() not called");
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
                                                 std::span<const Particle> parts) const {
  const auto p = static_cast<std::size_t>(comm.size());
  std::vector<std::vector<Particle>> outgoing(p);
  for (const auto& part : parts) {
    outgoing[static_cast<std::size_t>(ownerOf(part.pos))].push_back(part);
  }
  const auto incoming = comm.alltoallv(outgoing);
  std::vector<Particle> result;
  std::size_t total = 0;
  for (const auto& v : incoming) total += v.size();
  result.reserve(total);
  for (const auto& v : incoming) result.insert(result.end(), v.begin(), v.end());
  return result;
}

}  // namespace asura::fdps
