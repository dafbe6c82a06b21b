#include "core/surrogate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "sph/kernels.hpp"

namespace asura::core {

namespace {

/// splitmix64 finalizer: the standard bijective avalanche mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic per-job rng stream: a hash of the region's particle ids
/// and the SN position. Two pool workers never share generator state, and
/// the sampled particles are a pure function of the job — independent of
/// worker count, scheduling order, and how many jobs ran before.
std::uint64_t jobStream(const std::vector<Particle>& region, const Vec3d& sn_pos) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi digits: arbitrary nonzero
  for (const auto& p : region) h = mix64(h ^ p.id);
  h = mix64(h ^ std::bit_cast<std::uint64_t>(sn_pos.x));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(sn_pos.y));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(sn_pos.z));
  return h;
}

}  // namespace

std::string validatePrediction(const std::vector<Particle>& input,
                               const std::vector<Particle>& output) {
  if (output.size() != input.size()) {
    return "count mismatch: " + std::to_string(input.size()) + " in, " +
           std::to_string(output.size()) + " out";
  }
  // Id multiset + per-id bitwise mass (region ids are unique — capture
  // freezes a particle before it can join a second region — so a map by id
  // covers the multiset check).
  std::unordered_map<std::uint64_t, double> in_mass;
  in_mass.reserve(input.size());
  for (const auto& p : input) in_mass.emplace(p.id, p.mass);
  for (const auto& q : output) {
    const auto it = in_mass.find(q.id);
    if (it == in_mass.end()) {
      return "id " + std::to_string(q.id) + " not in the input region (or duplicated)";
    }
    if (std::bit_cast<std::uint64_t>(q.mass) !=
        std::bit_cast<std::uint64_t>(it->second)) {
      return "mass of id " + std::to_string(q.id) + " changed (" +
             std::to_string(it->second) + " -> " + std::to_string(q.mass) + ")";
    }
    in_mass.erase(it);  // catch duplicated output ids
    const bool finite = std::isfinite(q.pos.x) && std::isfinite(q.pos.y) &&
                        std::isfinite(q.pos.z) && std::isfinite(q.vel.x) &&
                        std::isfinite(q.vel.y) && std::isfinite(q.vel.z) &&
                        std::isfinite(q.u) && std::isfinite(q.rho) &&
                        std::isfinite(q.h);
    if (!finite) return "non-finite state on id " + std::to_string(q.id);
    if (!(q.u > 0.0)) return "non-positive u on id " + std::to_string(q.id);
    if (!(q.h > 0.0)) return "non-positive h on id " + std::to_string(q.id);
  }
  return {};
}

std::vector<Particle> UNetSurrogateBackend::predict(std::vector<Particle> region,
                                                    const Vec3d& sn_pos, double energy,
                                                    double horizon) {
  std::vector<SurrogateRequest> one;
  one.push_back({std::move(region), sn_pos, energy, horizon});
  return std::move(predictBatch(std::move(one)).front());
}

std::vector<std::vector<Particle>> UNetSurrogateBackend::predictBatch(
    std::vector<SurrogateRequest> requests) {
  std::vector<std::vector<Particle>> out(requests.size());
  // Empty regions bypass the network entirely — they must not occupy a
  // batch slot (an all-zero cube would still be voxel-decoded, changing
  // nothing but wasting a forward).
  std::vector<std::size_t> live;
  live.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].region.empty()) {
      out[i] = std::move(requests[i].region);
    } else {
      live.push_back(i);
    }
  }
  if (live.empty()) return out;

  // Fig. 3 pipeline: particles -> 5-field voxel cube -> 8 log channels ->
  // U-Net -> decode -> Gibbs-sample particles (ids & masses preserved).
  ml::InferenceModeScope inference;
  const sph::Kernel kernel{};
  const int m = static_cast<int>(live.size());

  // Stage 1: voxelize + encode each region (independent -> parallel).
  std::vector<voxel::VoxelGrid> grids(live.size());
  std::vector<ml::Tensor> enc(live.size());
#pragma omp parallel for schedule(static)
  for (int j = 0; j < m; ++j) {
    const auto& rq = requests[live[static_cast<std::size_t>(j)]];
    grids[static_cast<std::size_t>(j)] =
        voxel::depositParticles(rq.region, rq.sn_pos, box_size_, vparams_, kernel);
    enc[static_cast<std::size_t>(j)] =
        voxel::encodeGrid(grids[static_cast<std::size_t>(j)], vparams_);
  }

  // Stage 2: stack along the batch dimension, ONE network forward.
  const auto& s0 = enc[0].shape();  // (C, D, H, W)
  ml::Tensor x({m, s0[0], s0[1], s0[2], s0[3]});
  const std::size_t per = enc[0].numel();
  for (int j = 0; j < m; ++j) {
    std::copy(enc[static_cast<std::size_t>(j)].data(),
              enc[static_cast<std::size_t>(j)].data() + per,
              x.data() + static_cast<std::size_t>(j) * per);
  }
  // Residual parametrization: the network predicts the *change* of the
  // 8-channel state over the horizon, so an untrained net is the identity
  // and training concentrates capacity on the blast wave itself.
  auto y = net_.forward(x);
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] += x[i];

  // Stage 3: de-voxelize per region with each job's private rng stream
  // (seed, jobStream), so the sampled particles don't depend on who shared
  // the batch.
#pragma omp parallel for schedule(static)
  for (int j = 0; j < m; ++j) {
    const std::size_t i = live[static_cast<std::size_t>(j)];
    const auto& rq = requests[i];
    ml::Tensor slice({s0[0], s0[1], s0[2], s0[3]});
    std::copy(y.data() + static_cast<std::size_t>(j) * per,
              y.data() + static_cast<std::size_t>(j + 1) * per, slice.data());
    util::Pcg32 job_rng(seed_, jobStream(rq.region, rq.sn_pos));
    const auto out_grid = voxel::decodeGrid(
        slice, box_size_, grids[static_cast<std::size_t>(j)].origin, vparams_);
    out[i] = voxel::gridToParticles(out_grid, rq.region, vparams_, job_rng);
  }
  return out;
}

}  // namespace asura::core
