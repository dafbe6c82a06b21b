#include "voxel/voxel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sph/kernels.hpp"
#include "util/units.hpp"

namespace asura::voxel {

VoxelGrid::VoxelGrid(int n_, double box, Vec3d orig) : n(n_), box_size(box), origin(orig) {
  const auto sz = static_cast<std::size_t>(n) * n * n;
  rho.assign(sz, 0.0);
  temp.assign(sz, 0.0);
  vx.assign(sz, 0.0);
  vy.assign(sz, 0.0);
  vz.assign(sz, 0.0);
}

double VoxelGrid::totalMass() const {
  double m = 0.0;
  for (double r : rho) m += r;
  return m * cellVolume();
}

double VoxelGrid::sample(const std::vector<double>& field, const Vec3d& p) const {
  const double a = cellSize();
  // Continuous cell coordinates of the sample point relative to cell centers.
  const double fx = std::clamp((p.x - origin.x) / a - 0.5, 0.0, n - 1.0);
  const double fy = std::clamp((p.y - origin.y) / a - 0.5, 0.0, n - 1.0);
  const double fz = std::clamp((p.z - origin.z) / a - 0.5, 0.0, n - 1.0);
  const int i0 = std::min(static_cast<int>(fx), n - 2 >= 0 ? n - 2 : 0);
  const int j0 = std::min(static_cast<int>(fy), n - 2 >= 0 ? n - 2 : 0);
  const int k0 = std::min(static_cast<int>(fz), n - 2 >= 0 ? n - 2 : 0);
  const double tx = fx - i0, ty = fy - j0, tz = fz - k0;
  double acc = 0.0;
  for (int di = 0; di < 2; ++di) {
    for (int dj = 0; dj < 2; ++dj) {
      for (int dk = 0; dk < 2; ++dk) {
        const double w = (di ? tx : 1.0 - tx) * (dj ? ty : 1.0 - ty) * (dk ? tz : 1.0 - tz);
        const int ii = std::min(i0 + di, n - 1);
        const int jj = std::min(j0 + dj, n - 1);
        const int kk = std::min(k0 + dk, n - 1);
        acc += w * field[idx(ii, jj, kk)];
      }
    }
  }
  return acc;
}

VoxelGrid depositParticles(std::span<const Particle> gas, const Vec3d& center,
                           double box_size, const VoxelParams& params) {
  const int n = params.grid_n;
  VoxelGrid g(n, box_size, center - Vec3d{0.5 * box_size, 0.5 * box_size, 0.5 * box_size});
  const double a = g.cellSize();

  std::vector<double> shepard(g.rho.size(), 0.0);

  for (const auto& p : gas) {
    if (!p.isGas()) continue;
    // Effective support: at least ~1.5 cells so every particle touches the grid.
    const double H = std::max(p.h, 1.5 * a);
    const Vec3d rel = p.pos - g.origin;
    const int i_lo = std::max(0, static_cast<int>((rel.x - H) / a));
    const int i_hi = std::min(n - 1, static_cast<int>((rel.x + H) / a));
    const int j_lo = std::max(0, static_cast<int>((rel.y - H) / a));
    const int j_hi = std::min(n - 1, static_cast<int>((rel.y + H) / a));
    const int k_lo = std::max(0, static_cast<int>((rel.z - H) / a));
    const int k_hi = std::min(n - 1, static_cast<int>((rel.z + H) / a));
    const double T = units::u_to_temperature(p.u, units::mu_gas);

    for (int i = i_lo; i <= i_hi; ++i) {
      for (int j = j_lo; j <= j_hi; ++j) {
        for (int k = k_lo; k <= k_hi; ++k) {
          const double r = (g.cellCenter(i, j, k) - p.pos).norm();
          const double w = sph::CubicSplineKernel::w(r, H);
          if (w <= 0.0) continue;
          const std::size_t c = g.idx(i, j, k);
          const double mw = p.mass * w;
          g.rho[c] += mw;  // SPH density estimate: sum m W
          shepard[c] += mw;
          g.temp[c] += mw * T;
          g.vx[c] += mw * p.vel.x;
          g.vy[c] += mw * p.vel.y;
          g.vz[c] += mw * p.vel.z;
        }
      }
    }
  }

  // Shepard normalization of the intensive fields; floors for empty cells.
  for (std::size_t c = 0; c < g.rho.size(); ++c) {
    if (shepard[c] > 0.0) {
      g.temp[c] /= shepard[c];
      g.vx[c] /= shepard[c];
      g.vy[c] /= shepard[c];
      g.vz[c] /= shepard[c];
    } else {
      g.rho[c] = kRhoFloor;
      g.temp[c] = kTempFloor;
    }
    g.rho[c] = std::max(g.rho[c], kRhoFloor);
    g.temp[c] = std::max(g.temp[c], kTempFloor);
  }
  return g;
}

ml::Tensor encodeGrid(const VoxelGrid& g) {
  const int n = g.n;
  ml::Tensor t({8, n, n, n});
  const double lvf = std::log10(kVelFloor);
  auto enc_vel = [&](double v, bool positive) {
    const double mag = positive ? std::max(v, 0.0) : std::max(-v, 0.0);
    return static_cast<float>(std::log10(std::max(mag, kVelFloor)) - lvf);
  };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        const std::size_t c = g.idx(i, j, k);
        t.at(0, i, j, k) = static_cast<float>(std::log10(std::max(g.rho[c], kRhoFloor)));
        t.at(1, i, j, k) = static_cast<float>(std::log10(std::max(g.temp[c], kTempFloor)));
        t.at(2, i, j, k) = enc_vel(g.vx[c], true);
        t.at(3, i, j, k) = enc_vel(g.vx[c], false);
        t.at(4, i, j, k) = enc_vel(g.vy[c], true);
        t.at(5, i, j, k) = enc_vel(g.vy[c], false);
        t.at(6, i, j, k) = enc_vel(g.vz[c], true);
        t.at(7, i, j, k) = enc_vel(g.vz[c], false);
      }
    }
  }
  return t;
}

VoxelGrid decodeGrid(const ml::Tensor& t, double box_size, const Vec3d& origin) {
  const int n = t.dim(1);
  VoxelGrid g(n, box_size, origin);
  const double lvf = std::log10(kVelFloor);
  auto dec_vel = [&](float cp, float cm) {
    const double vp = std::pow(10.0, static_cast<double>(cp) + lvf);
    const double vm = std::pow(10.0, static_cast<double>(cm) + lvf);
    // Components at the floor encode "zero"; their difference cancels.
    return vp - vm;
  };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        const std::size_t c = g.idx(i, j, k);
        g.rho[c] = std::pow(10.0, static_cast<double>(t.at(0, i, j, k)));
        g.temp[c] = std::pow(10.0, static_cast<double>(t.at(1, i, j, k)));
        g.vx[c] = dec_vel(t.at(2, i, j, k), t.at(3, i, j, k));
        g.vy[c] = dec_vel(t.at(4, i, j, k), t.at(5, i, j, k));
        g.vz[c] = dec_vel(t.at(6, i, j, k), t.at(7, i, j, k));
      }
    }
  }
  return g;
}

namespace {

/// Sample an index from an unnormalized discrete density (uniform fallback).
int sampleDiscrete(const std::vector<double>& w, util::Pcg32& rng) {
  double total = 0.0;
  for (double x : w) total += x;
  if (total <= 0.0) return static_cast<int>(rng.below(static_cast<std::uint32_t>(w.size())));
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < w.size(); ++i) {
    u -= w[i];
    if (u <= 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(w.size()) - 1;
}

}  // namespace

std::vector<Particle> gridToParticles(const VoxelGrid& g,
                                      std::span<const Particle> originals,
                                      util::Pcg32& rng) {
  const int n = g.n;
  const double a = g.cellSize();
  std::vector<Particle> out(originals.begin(), originals.end());

  // Marginals for the ancestral initialization (computed once; the Gibbs
  // sweeps below then decorrelate and track the full joint).
  std::vector<double> marg_x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> marg_xy(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int k = 0; k < n; ++k) s += g.rho[g.idx(i, j, k)];
      marg_xy[static_cast<std::size_t>(i) * n + j] = s;
      marg_x[static_cast<std::size_t>(i)] += s;
    }
  }

  std::vector<double> cond(static_cast<std::size_t>(n));
  for (auto& p : out) {
    // Initialize from the chain of marginals p(x) p(y|x) p(z|x,y), then
    // Gibbs-sweep the per-axis conditionals p(x|y,z), p(y|x,z), p(z|x,y);
    // the stationary distribution is the (normalized) voxel density field.
    int ci = sampleDiscrete(marg_x, rng);
    std::copy_n(marg_xy.begin() + static_cast<std::ptrdiff_t>(ci) * n, n, cond.begin());
    int cj = sampleDiscrete(cond, rng);
    for (int k = 0; k < n; ++k) cond[static_cast<std::size_t>(k)] = g.rho[g.idx(ci, cj, k)];
    int ck = sampleDiscrete(cond, rng);

    for (int sweep = 0; sweep < kGibbsSweeps; ++sweep) {
      for (int i = 0; i < n; ++i) cond[static_cast<std::size_t>(i)] = g.rho[g.idx(i, cj, ck)];
      ci = sampleDiscrete(cond, rng);
      for (int j = 0; j < n; ++j) cond[static_cast<std::size_t>(j)] = g.rho[g.idx(ci, j, ck)];
      cj = sampleDiscrete(cond, rng);
      for (int k = 0; k < n; ++k) cond[static_cast<std::size_t>(k)] = g.rho[g.idx(ci, cj, k)];
      ck = sampleDiscrete(cond, rng);
    }

    p.pos = g.origin + Vec3d{(ci + rng.uniform()) * a, (cj + rng.uniform()) * a,
                             (ck + rng.uniform()) * a};
    p.vel = {g.sample(g.vx, p.pos), g.sample(g.vy, p.pos), g.sample(g.vz, p.pos)};
    const double T = std::max(g.sample(g.temp, p.pos), kTempFloor);
    p.u = units::temperature_to_u(T, units::mu_gas);
    const double rho_local = std::max(g.sample(g.rho, p.pos), kRhoFloor);
    p.rho = rho_local;
    p.h = sph::supportFromDensity(p.mass, rho_local, 64);
    p.frozen = 0;
  }
  return out;
}

VoxelGrid projectRoi(std::span<const Particle> parts, const RoiSpec& spec) {
  if (spec.grid_n <= 0) {
    throw std::invalid_argument("RoiSpec: grid_n must be positive");
  }
  if (!(spec.box_size > 0.0)) {
    throw std::invalid_argument("RoiSpec: box_size must be positive");
  }
  const double a = spec.box_size / spec.grid_n;
  const double half = 0.5 * spec.box_size;

  // Conservative overlap prefilter in deposit order. Any particle whose
  // (inflated) support cannot touch a cell contributes an exactly-empty
  // index range in depositParticles, so dropping it is bitwise neutral —
  // an ROI covering the whole domain reproduces a full deposit exactly.
  std::vector<Particle> clipped;
  for (const auto& q : parts) {
    if (!q.isGas()) continue;
    const double H = std::max(q.h, 1.5 * a) + a;
    const Vec3d rel = q.pos - spec.center;
    if (std::abs(rel.x) <= half + H && std::abs(rel.y) <= half + H &&
        std::abs(rel.z) <= half + H) {
      clipped.push_back(q);
    }
  }
  return depositParticles(clipped, spec.center, spec.box_size, VoxelParams{spec.grid_n});
}

}  // namespace asura::voxel
