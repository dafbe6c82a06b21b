#pragma once
/// \file surrogate.hpp
/// \brief Surrogate backends for supernova-shell prediction (paper §3.3).
///
/// A backend answers one question: given the gas particles in the (60 pc)^3
/// box around an exploding star, what is their state `horizon` Myr later?
/// Three implementations:
///  * SedovOracleBackend — the physics oracle (training target / validation
///    reference; also the "closest synthetic equivalent" for the authors'
///    trained TensorFlow model, see DESIGN.md).
///  * UNetSurrogateBackend — the paper's pipeline: particles -> voxels ->
///    8 log channels -> 3-D U-Net inference in C++ -> Gibbs-sampled
///    particles, with particle count and mass conserved.
///  * NullBackend — no bypass (for ablations: feedback must then be handled
///    by the conventional direct-injection path).

#include <memory>
#include <string>
#include <vector>

#include "fdps/particle.hpp"
#include "ml/unet.hpp"
#include "sn/sedov.hpp"
#include "util/rng.hpp"
#include "voxel/voxel.hpp"

namespace asura::core {

using fdps::Particle;
using util::Vec3d;

/// One SN region awaiting prediction — the unit the pool scheduler batches.
struct SurrogateRequest {
  std::vector<Particle> region;
  Vec3d sn_pos;
  double energy = 0.0;
  double horizon = 0.0;
};

class SurrogateBackend {
 public:
  virtual ~SurrogateBackend() = default;

  /// Predict the post-SN state of `region`. Must return exactly one particle
  /// per input particle (same ids, same masses — mass conservation contract).
  [[nodiscard]] virtual std::vector<Particle> predict(std::vector<Particle> region,
                                                      const Vec3d& sn_pos, double energy,
                                                      double horizon) = 0;

  /// Predict several regions in one call. Output i corresponds to request i
  /// and must be bitwise identical to what predict() would have returned for
  /// it alone — batching is a throughput optimization, never a semantic one
  /// (the pool's batched-vs-sequential determinism contract). The default
  /// just loops predict(); backends with real batch leverage (the U-Net's
  /// leading tensor dimension) override it.
  [[nodiscard]] virtual std::vector<std::vector<Particle>> predictBatch(
      std::vector<SurrogateRequest> requests) {
    std::vector<std::vector<Particle>> out;
    out.reserve(requests.size());
    for (auto& r : requests) {
      out.push_back(predict(std::move(r.region), r.sn_pos, r.energy, r.horizon));
    }
    return out;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Physics oracle: Sedov-Taylor / remnant evolution applied to particles.
class SedovOracleBackend final : public SurrogateBackend {
 public:
  [[nodiscard]] std::vector<Particle> predict(std::vector<Particle> region,
                                              const Vec3d& sn_pos, double energy,
                                              double horizon) override {
    sn::applySedovOracle(region, sn_pos, energy, horizon);
    return region;
  }
  [[nodiscard]] std::string name() const override { return "sedov-oracle"; }
};

/// The deep-learning pipeline of Fig. 3.
///
/// Thread safety: predict() is called concurrently by every pool worker on
/// the one shared backend, so it holds no mutable sampling state — each job
/// derives a private Pcg32 from (seed, hash of the region ids and SN
/// position). Predictions are therefore independent of worker count and
/// scheduling order, and two identical jobs sample identically. (The
/// pre-fix code mutated a single member Pcg32 from all workers at once: a
/// data race, and scheduling-order-dependent output even when it happened
/// not to tear.) The U-Net forward pass reads immutable weights.
class UNetSurrogateBackend final : public SurrogateBackend {
 public:
  UNetSurrogateBackend(ml::UNetConfig net_cfg, voxel::VoxelParams voxel_params,
                       double box_size = 60.0, std::uint64_t seed = 2024)
      : net_(net_cfg), vparams_(voxel_params), box_size_(box_size), seed_(seed) {}

  /// Load trained weights (.annx) produced by the training example.
  void loadWeights(const std::string& path) { net_.load(path); }
  [[nodiscard]] ml::UNet3D& network() { return net_; }

  /// The single result of predictBatch on a one-request batch.
  [[nodiscard]] std::vector<Particle> predict(std::vector<Particle> region,
                                              const Vec3d& sn_pos, double energy,
                                              double horizon) override;

  /// Stacks the non-empty regions' voxel encodings along the tensor batch
  /// dimension and runs ONE network forward, then de-voxelizes per region
  /// with each job's private rng stream. Every region's output is bitwise
  /// independent of the batch size and of who shared the batch (see
  /// ml/gemm.hpp for why), so predict() is the same bytes as its slot here.
  [[nodiscard]] std::vector<std::vector<Particle>> predictBatch(
      std::vector<SurrogateRequest> requests) override;

  [[nodiscard]] std::string name() const override { return "unet"; }

 private:
  ml::UNet3D net_;
  voxel::VoxelParams vparams_;
  double box_size_;
  std::uint64_t seed_;  ///< per-job rng streams derive from this (no shared Pcg32)
};

/// Check a backend's output against the prediction contract: exactly one
/// particle per input, the same id multiset, bitwise-identical per-id
/// masses, and finite post-SN state (pos/vel/u/rho/h, with u and h positive).
/// Returns an empty string when the prediction is acceptable, otherwise a
/// one-line description of the first violation found. The pool scheduler
/// runs this on every completed job and degrades to the fallback backend on
/// a non-empty result.
[[nodiscard]] std::string validatePrediction(const std::vector<Particle>& input,
                                             const std::vector<Particle>& output);

/// No bypass at all (conventional ablation).
class NullBackend final : public SurrogateBackend {
 public:
  [[nodiscard]] std::vector<Particle> predict(std::vector<Particle> region, const Vec3d&,
                                              double, double) override {
    return region;
  }
  [[nodiscard]] std::string name() const override { return "null"; }
};

}  // namespace asura::core
