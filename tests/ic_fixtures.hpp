#pragma once
/// \file ic_fixtures.hpp
/// \brief Shared initial-condition generators for the block-timestep test
/// and benchmark: a uniform gas ball and the dense SN-blastwave clump. Kept
/// in one place so the benchmarked scenario can never silently diverge from
/// the tested one.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fdps/particle.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace asura::testing {

inline std::vector<fdps::Particle> gasBall(int n, double radius, double rho_scale,
                                           std::uint64_t seed,
                                           double temp = 100.0) {
  util::Pcg32 rng(seed);
  std::vector<fdps::Particle> parts;
  parts.reserve(static_cast<std::size_t>(n));
  const double mass =
      rho_scale * 4.0 / 3.0 * 3.14159265358979 * radius * radius * radius / n;
  for (int i = 0; i < n; ++i) {
    fdps::Particle p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.type = fdps::Species::Gas;
    p.mass = mass;
    double r;
    util::Vec3d pos;
    do {
      pos = {rng.uniform(-radius, radius), rng.uniform(-radius, radius),
             rng.uniform(-radius, radius)};
      r = pos.norm();
    } while (r > radius);
    p.pos = pos;
    p.u = units::temperature_to_u(temp, 1.27);
    p.h = radius * std::cbrt(32.0 / n);
    p.eps = 0.2;
    parts.push_back(p);
  }
  return parts;
}

/// Dense star-forming clump with one SN progenitor about to fire: light
/// particles and small h make the post-SN CFL clock collapse hard (the
/// paper's §5.3 observation needs star-by-star resolution).
inline std::vector<fdps::Particle> blastwaveIc(int n, std::uint64_t seed) {
  auto parts = gasBall(n, 6.0, 50.0, seed, 100.0);
  fdps::Particle star;
  star.id = 900000;
  star.type = fdps::Species::Star;
  star.mass = 20.0;
  star.star_mass = 20.0;
  star.pos = {0, 0, 0};
  star.t_sn = 1e-9;  // fires on the first step
  star.eps = 0.5;
  parts.push_back(star);
  return parts;
}

/// Hot–cold interface: a cold ball whose core is flash-heated to ~1e6 K.
/// The hot side's CFL clock drives it to deep rungs immediately while the
/// cold shell's criteria sit many rungs coarser — exactly the lagging-
/// neighbour configuration the Saitoh & Makino (2009) limiter exists for.
/// Without the limiter, interface particles are integrated on steps >4x
/// longer than the hot neighbours pounding them.
inline std::vector<fdps::Particle> hotColdInterfaceIc(int n, std::uint64_t seed,
                                                      double core_radius = 2.0,
                                                      double t_hot = 1e6) {
  auto parts = gasBall(n, 6.0, 20.0, seed, 40.0);
  for (auto& p : parts) {
    if (p.pos.norm() < core_radius) p.u = units::temperature_to_u(t_hot, 0.6);
  }
  return parts;
}

/// Multiphase random fixture for the limiter property tests: per-particle
/// temperatures drawn log-uniform over [t_lo, t_hi] scatter the rung
/// criteria across many levels, so each seed yields a different random rung
/// distribution at the first sync assignment.
inline std::vector<fdps::Particle> multiphaseBall(int n, std::uint64_t seed,
                                                  double t_lo = 10.0,
                                                  double t_hi = 3e5) {
  auto parts = gasBall(n, 8.0, 10.0, seed, t_lo);
  util::Pcg32 rng(seed ^ 0x9e3779b9u);
  for (auto& p : parts) {
    const double logt = rng.uniform(std::log(t_lo), std::log(t_hi));
    p.u = units::temperature_to_u(std::exp(logt), 0.6);
  }
  return parts;
}

/// SN-storm fixture: a diffuse ambient ball plus a dense off-centre clump
/// seeded with several SN progenitors firing on successive early steps.
/// The staggered explosions drive the clump to deep rungs while the ambient
/// medium idles at the coarse rung, so with a spatial split the clump's
/// owner rank does nearly all of the closing-kick work — the pathological
/// load imbalance the work-weighted decomposition exists to fix. Used by
/// the balancing tests in test_distributed_balance.cpp.
inline std::vector<fdps::Particle> snStormIc(int n, std::uint64_t seed,
                                             int n_sn = 4) {
  // Ambient: ~3/4 of the particles, diffuse and cool.
  auto parts = gasBall(3 * n / 4, 10.0, 1.0, seed, 100.0);
  // Clump: the remaining quarter, dense, shifted off-centre so the spatial
  // split cannot accidentally share it evenly across ranks.
  auto clump = gasBall(n - 3 * n / 4, 1.5, 60.0, seed ^ 0x5bd1e995u, 100.0);
  const util::Vec3d shift{4.0, 4.0, 4.0};
  for (auto& p : clump) {
    p.id += 1'000'000;
    p.pos += shift;
    parts.push_back(p);
  }
  // SN progenitors inside the clump, staggered so each early global step
  // fires one — a rolling storm, not a single blast.
  util::Pcg32 rng(seed ^ 0xdeadbeefu);
  for (int i = 0; i < n_sn; ++i) {
    fdps::Particle star;
    star.id = 2'000'000 + static_cast<std::uint64_t>(i);
    star.type = fdps::Species::Star;
    star.mass = 20.0;
    star.star_mass = 20.0;
    star.pos = shift + util::Vec3d{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                   rng.uniform(-0.5, 0.5)};
    star.t_sn = 1e-9 + static_cast<double>(i) * 5e-3;
    star.eps = 0.5;
    parts.push_back(star);
  }
  return parts;
}

/// Largest rung lag visible to the last hydro force pass: max over gas of
/// (deepest neighbour rung - own rung). The limiter's pair-gap invariant is
/// that this never exceeds sph::kLimiterGap at a published step boundary —
/// measured against the neighbour rungs the final force pass actually
/// recorded, i.e. exactly the state the next assignment will be floored by.
inline int limiterGapExcess(const std::vector<fdps::Particle>& parts) {
  int gap = 0;
  for (const auto& p : parts) {
    if (!p.isGas()) continue;
    gap = std::max(gap, static_cast<int>(p.rung_ngb) - static_cast<int>(p.rung));
  }
  return gap;
}

}  // namespace asura::testing
