/// \file train_surrogate.cpp
/// \brief The offline training workflow of §3.3: generate (pre-SN, post-SN)
/// voxel pairs from turbulent star-forming boxes evolved by the physics
/// oracle, train the 3-D U-Net with ADAM + MSE (the paper uses lr 1e-6,
/// batch 1, 100 epochs on an A100; this CPU demo uses a tiny net), save the
/// weights (.annx — our ONNX stand-in), reload them, and verify the
/// surrogate beats an untrained network on held-out data.
///
///   ./train_surrogate [epochs] [samples]

#include <cstdio>
#include <cstdlib>

#include "core/surrogate.hpp"
#include "ml/optimizer.hpp"
#include "sn/sedov.hpp"
#include "sn/turbulence.hpp"
#include "util/units.hpp"
#include "voxel/voxel.hpp"

namespace {

using asura::fdps::Particle;
using asura::fdps::Species;

std::vector<Particle> trainingBox(std::uint64_t seed) {
  asura::sn::TurbulenceParams tp;
  tp.n = 16;
  tp.v_rms = 3.0;
  tp.seed = seed;
  const auto vel = asura::sn::turbulentVelocityField(tp);
  asura::util::Pcg32 rng(seed, 5);
  std::vector<Particle> parts(2000);
  std::uint64_t id = 1;
  for (auto& p : parts) {
    p.id = id++;
    p.type = Species::Gas;
    p.mass = 60.0 * 60.0 * 60.0 / 2000.0;  // rho0 = 1
    p.pos = {rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-30, 30)};
    const auto c = rng.below(16 * 16 * 16);
    p.vel = {vel[0][c], vel[1][c], vel[2][c]};
    p.u = asura::units::temperature_to_u(100.0, 1.27);
    p.rho = 1.0;
    p.h = 4.0;
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  const int epochs = argc > 1 ? std::atoi(argv[1]) : 10;
  const int samples = argc > 2 ? std::atoi(argv[2]) : 4;

  asura::ml::UNetConfig ucfg;  // 8 channels in/out as in the paper
  ucfg.base_width = 4;
  asura::voxel::VoxelParams vp;
  vp.grid_n = 16;  // paper: 64^3; demo: 16^3 for CPU training speed

  asura::core::UNetSurrogateBackend backend(ucfg, vp, 60.0, 1);
  std::printf("U-Net: %zu parameters, input 8x%dx%dx%d\n",
              backend.network().parameterCount(), vp.grid_n, vp.grid_n, vp.grid_n);

  // --- dataset: oracle-evolved turbulent boxes ---
  asura::core::SedovOracleBackend oracle;
  std::vector<std::pair<asura::ml::Tensor, asura::ml::Tensor>> dataset;
  for (int s = 0; s < samples; ++s) {
    auto box = trainingBox(static_cast<std::uint64_t>(10 + s));
    const auto before = asura::voxel::depositParticles(box, {0, 0, 0}, 60.0, vp);
    auto after_parts = oracle.predict(box, {0, 0, 0}, asura::units::E_SN, 0.1);
    const auto after = asura::voxel::depositParticles(after_parts, {0, 0, 0}, 60.0, vp);
    // Residual target: the network learns the post-SN *change* of the state.
    const auto x = asura::voxel::encodeGrid(before);
    auto delta = asura::voxel::encodeGrid(after);
    for (std::size_t i = 0; i < delta.numel(); ++i) delta[i] -= x[i];
    dataset.emplace_back(x, delta);
  }
  std::printf("dataset: %d (pre, post) voxel pairs at 0.1 Myr horizon\n\n", samples);

  // --- training (batch size 1, MSE, ADAM — §3.3) ---
  asura::ml::Adam::Config oc;
  oc.lr = 2e-3;  // tiny net: higher than the paper's 1e-6
  asura::ml::Adam opt(backend.network().parameters(), oc);
  for (int e = 0; e < epochs; ++e) {
    double loss_sum = 0.0;
    for (auto& [x, y] : dataset) {
      backend.network().zeroGrad();
      const auto pred = backend.network().forward(x);
      asura::ml::Tensor g;
      loss_sum += asura::ml::mseLoss(pred, y, &g);
      backend.network().backward(g);
      opt.step();
    }
    std::printf("epoch %3d  mean MSE %.5f\n", e, loss_sum / samples);
  }

  // --- save / reload / evaluate on held-out data ---
  const char* path = "surrogate_weights.annx";
  backend.network().save(path);
  std::printf("\nsaved weights -> %s\n", path);

  asura::core::UNetSurrogateBackend reloaded(ucfg, vp, 60.0, 2);
  reloaded.loadWeights(path);
  asura::core::UNetSurrogateBackend untrained(ucfg, vp, 60.0, 3);

  auto held_out = trainingBox(999);
  const auto truth = oracle.predict(held_out, {0, 0, 0}, asura::units::E_SN, 0.1);
  const auto truth_grid = asura::voxel::depositParticles(truth, {0, 0, 0}, 60.0, vp);
  const auto x =
      asura::voxel::encodeGrid(asura::voxel::depositParticles(held_out, {0, 0, 0}, 60.0, vp));
  auto delta = asura::voxel::encodeGrid(truth_grid);
  for (std::size_t i = 0; i < delta.numel(); ++i) delta[i] -= x[i];

  const double mse_trained = asura::ml::mseLoss(reloaded.network().forward(x), delta);
  const double mse_raw = asura::ml::mseLoss(untrained.network().forward(x), delta);
  std::printf("held-out MSE: trained %.5f vs untrained %.5f (%.1fx better)\n",
              mse_trained, mse_raw, mse_raw / mse_trained);
  std::printf("the trained .annx file plugs straight into "
              "core::UNetSurrogateBackend::loadWeights() for production runs.\n");
  return 0;
}
