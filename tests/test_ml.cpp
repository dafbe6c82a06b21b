// Tests for the CPU neural-network engine: tensor plumbing, layer forward
// passes against hand-computed values, gradient checks (finite differences
// and adjoint identities), U-Net end-to-end training, and serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ml/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/optimizer.hpp"
#include "ml/tensor.hpp"
#include "ml/unet.hpp"
#include "ml_reference.hpp"
#include "tmp_path.hpp"
#include "util/rng.hpp"

namespace {

using asura::ml::Adam;
using asura::ml::Conv3d;
using asura::ml::MaxPool3d;
using asura::ml::Relu;
using asura::ml::Tensor;
using asura::ml::UNet3D;
using asura::ml::UNetConfig;
using asura::ml::Upsample3d;
using asura::testing::tmpPath;
using asura::util::Pcg32;

Tensor randomTensor(std::vector<int> shape, std::uint64_t seed, double scale = 1.0) {
  Tensor t(std::move(shape));
  Pcg32 rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(scale * rng.normal());
  }
  return t;
}

TEST(TensorTest, ShapeAndIndexing) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.numel(), 120u);
  t.at(1, 2, 3, 4) = 7.0f;
  EXPECT_FLOAT_EQ(t[t.numel() - 1], 7.0f);
  EXPECT_THROW(Tensor({0, 1}), std::invalid_argument);
}

TEST(TensorTest, MseLossAndGradient) {
  Tensor a({1, 1, 1, 4}), b({1, 1, 1, 4});
  for (int i = 0; i < 4; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<float>(i);
    b[static_cast<std::size_t>(i)] = 0.0f;
  }
  Tensor g;
  const double loss = asura::ml::mseLoss(a, b, &g);
  EXPECT_NEAR(loss, (0.0 + 1.0 + 4.0 + 9.0) / 4.0, 1e-6);
  EXPECT_FLOAT_EQ(g[2], 2.0f * 2.0f / 4.0f);
}

TEST(Conv3dTest, OneByOneKernelActsPerVoxel) {
  Pcg32 rng(1);
  Conv3d conv(1, 1, 1, rng);
  conv.w.fill(2.0f);
  conv.b.fill(0.5f);
  const Tensor x = randomTensor({1, 4, 4, 4}, 2);
  const Tensor y = conv.forward(x);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(y[i], 2.0f * x[i] + 0.5f, 1e-5);
  }
}

TEST(Conv3dTest, SumKernelCountsInteriorNeighbourhood) {
  Pcg32 rng(1);
  Conv3d conv(1, 1, 3, rng);
  conv.w.fill(1.0f);
  conv.b.fill(0.0f);
  Tensor x({1, 5, 5, 5});
  x.fill(1.0f);
  const Tensor y = conv.forward(x);
  EXPECT_NEAR(y.at(0, 2, 2, 2), 27.0f, 1e-4);  // full 3^3 neighbourhood
  EXPECT_NEAR(y.at(0, 0, 0, 0), 8.0f, 1e-5);   // corner: 2^3 inside
}

TEST(Conv3dTest, AdjointIdentity) {
  // <gy, Conv(x)> == <Conv^T(gy), x> for zero bias (linear operator).
  Pcg32 rng(3);
  Conv3d conv(2, 3, 3, rng);
  conv.b.fill(0.0f);
  const Tensor x = randomTensor({2, 4, 4, 4}, 4);
  const Tensor gy = randomTensor({3, 4, 4, 4}, 5);
  Tensor y = conv.forward(x);
  const Tensor gx = conv.backward(gy);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) lhs += static_cast<double>(y[i]) * gy[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(gx[i]) * x[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

TEST(Conv3dTest, WeightGradientMatchesFiniteDifference) {
  Pcg32 rng(6);
  Conv3d conv(1, 1, 3, rng);
  const Tensor x = randomTensor({1, 4, 4, 4}, 7);
  const Tensor target = randomTensor({1, 4, 4, 4}, 8);

  auto loss_of = [&](Conv3d& c) {
    const Tensor y = c.forward(x);
    return asura::ml::mseLoss(y, target);
  };

  Tensor y = conv.forward(x);
  Tensor g;
  asura::ml::mseLoss(y, target, &g);
  conv.gw.fill(0.0f);
  conv.gb.fill(0.0f);
  (void)conv.backward(g);

  Pcg32 pick(9);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t wi = pick.below(static_cast<std::uint32_t>(conv.w.numel()));
    const float keep = conv.w[wi];
    const float h = 1e-2f;
    conv.w[wi] = keep + h;
    const double lp = loss_of(conv);
    conv.w[wi] = keep - h;
    const double lm = loss_of(conv);
    conv.w[wi] = keep;
    const double fd = (lp - lm) / (2.0 * h);
    EXPECT_NEAR(conv.gw[wi], fd, 0.05 * std::abs(fd) + 1e-4) << "weight " << wi;
  }
  // Bias gradient too.
  {
    const float keep = conv.b[0];
    const float h = 1e-2f;
    conv.b[0] = keep + h;
    const double lp = loss_of(conv);
    conv.b[0] = keep - h;
    const double lm = loss_of(conv);
    conv.b[0] = keep;
    const double fd = (lp - lm) / (2.0 * h);
    EXPECT_NEAR(conv.gb[0], fd, 0.05 * std::abs(fd) + 1e-4);
  }
}

TEST(ReluTest, ForwardBackward) {
  Relu relu;
  Tensor x({1, 1, 1, 4});
  x[0] = -1.0f;
  x[1] = 2.0f;
  x[2] = 0.0f;
  x[3] = -3.0f;
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  Tensor gy({1, 1, 1, 4});
  gy.fill(1.0f);
  const Tensor gx = relu.backward(gy);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
  EXPECT_FLOAT_EQ(gx[3], 0.0f);
}

TEST(MaxPoolTest, ForwardPicksMaxBackwardRoutesThere) {
  MaxPool3d pool;
  Tensor x({1, 2, 2, 2});
  for (std::size_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 7.0f);
  Tensor gy({1, 1, 1, 1});
  gy[0] = 3.0f;
  const Tensor gx = pool.backward(gy);
  EXPECT_FLOAT_EQ(gx[7], 3.0f);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_FLOAT_EQ(gx[i], 0.0f);
}

TEST(UpsampleTest, NearestNeighbourAndAdjoint) {
  Upsample3d up;
  const Tensor x = randomTensor({2, 2, 2, 2}, 10);
  const Tensor y = up.forward(x);
  EXPECT_EQ(y.dim(1), 4);
  EXPECT_FLOAT_EQ(y.at(1, 3, 3, 3), x.at(1, 1, 1, 1));
  const Tensor gy = randomTensor({2, 4, 4, 4}, 11);
  const Tensor gx = up.backward(gy);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) lhs += static_cast<double>(y[i]) * gy[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(gx[i]) * x[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

TEST(ConcatTest, RoundTrip) {
  const Tensor a = randomTensor({2, 3, 3, 3}, 12);
  const Tensor b = randomTensor({4, 3, 3, 3}, 13);
  const Tensor y = asura::ml::concatChannels(a, b);
  EXPECT_EQ(y.dim(0), 6);
  Tensor ga, gb;
  asura::ml::splitChannels(y, 2, ga, gb);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(ga[i], a[i]);
  for (std::size_t i = 0; i < b.numel(); ++i) EXPECT_FLOAT_EQ(gb[i], b[i]);
}

TEST(AdamTest, MinimizesQuadratic) {
  Tensor w({1, 1, 1, 4});
  Tensor g({1, 1, 1, 4});
  for (std::size_t i = 0; i < 4; ++i) w[i] = static_cast<float>(i + 1);
  Adam::Config cfg;
  cfg.lr = 0.1;
  Adam opt({{&w, &g}}, cfg);
  for (int step = 0; step < 200; ++step) {
    for (std::size_t i = 0; i < 4; ++i) g[i] = 2.0f * w[i];  // d/dw sum w^2
    opt.step();
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(w[i], 0.0f, 0.05f);
  EXPECT_EQ(opt.stepsTaken(), 200);
}

TEST(UNetTest, ForwardShapeMatchesConfig) {
  UNetConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 8;
  cfg.base_width = 4;
  UNet3D net(cfg);
  const Tensor x = randomTensor({8, 8, 8, 8}, 20);
  const Tensor y = net.forward(x);
  EXPECT_EQ(y.dim(0), 8);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_GT(net.parameterCount(), 1000u);
}

TEST(UNetTest, TrainingReducesLoss) {
  UNetConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 2;
  cfg.base_width = 4;
  UNet3D net(cfg, 99);
  const Tensor x = randomTensor({2, 4, 4, 4}, 21, 0.5);
  // Learnable target: a smooth function of the input.
  Tensor target({2, 4, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) target[i] = 0.5f * x[i] + 0.1f;

  Adam::Config ocfg;
  ocfg.lr = 1e-3;  // tiny net, tiny data: faster than the paper's 1e-6
  Adam opt(net.parameters(), ocfg);

  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 0; epoch < 80; ++epoch) {
    net.zeroGrad();
    const Tensor y = net.forward(x);
    Tensor g;
    const double loss = asura::ml::mseLoss(y, target, &g);
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
    net.backward(g);
    opt.step();
  }
  EXPECT_LT(last_loss, 0.65 * first_loss);
}

TEST(UNetTest, SaveLoadRoundTrip) {
  UNetConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 3;
  cfg.base_width = 4;
  UNet3D a(cfg, 7);
  const std::string path = tmpPath("asura_unet_test.annx");
  a.save(path);

  UNet3D b(cfg, 8);  // different init
  b.load(path);
  const Tensor x = randomTensor({3, 4, 4, 4}, 22);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

TEST(UNetTest, LoadRejectsMismatchedConfig) {
  UNetConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 3;
  cfg.base_width = 4;
  UNet3D a(cfg, 7);
  const std::string path = tmpPath("asura_unet_test2.annx");
  a.save(path);
  UNetConfig other = cfg;
  other.base_width = 8;
  UNet3D b(other, 7);
  EXPECT_THROW(b.load(path), std::runtime_error);
  EXPECT_THROW(b.load("/tmp/definitely-not-a-file.annx"), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// GEMM engine + batched inference
// ---------------------------------------------------------------------------

TEST(GemmTest, MatchesNaiveReference) {
  const int m = 13, n = 37, k = 29;
  const Tensor a = randomTensor({m, k}, 101);
  const Tensor b = randomTensor({k, n}, 102);
  Tensor c0 = randomTensor({m, n}, 103);
  Tensor c1 = c0;
  asura::ml::sgemmAcc(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
  asura::testing::sgemmAccReference(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
  for (std::size_t i = 0; i < c0.numel(); ++i) {
    EXPECT_NEAR(c0[i], c1[i], 1e-4) << "at " << i;
  }
}

TEST(GemmTest, ParallelBitwiseMatchesSerial) {
  // Rows of C are whole units of work: splitting them over threads must not
  // change a single bit (the determinism contract in ml/gemm.hpp).
  const int m = 17, n = 53, k = 31;
  const Tensor a = randomTensor({m, k}, 104);
  const Tensor b = randomTensor({k, n}, 105);
  Tensor c0 = randomTensor({m, n}, 106);
  Tensor c1 = c0;
  asura::ml::sgemmAcc(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
  asura::ml::sgemmAccParallel(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
  for (std::size_t i = 0; i < c0.numel(); ++i) {
    EXPECT_EQ(c0[i], c1[i]) << "thread split changed bits at " << i;
  }
}

TEST(Conv3dTest, GemmMatchesNaiveLoops) {
  Pcg32 rng(9);
  Conv3d conv(3, 5, 3, rng);
  const Tensor x = randomTensor({3, 8, 6, 10}, 110);
  const Tensor y_gemm = conv.forward(x);
  const Tensor y_naive = asura::testing::conv3dReference(conv, x);
  ASSERT_TRUE(y_gemm.sameShape(y_naive));
  for (std::size_t i = 0; i < y_gemm.numel(); ++i) {
    // Same accumulation order, but the two loop nests may contract to FMA
    // differently — tolerance, not bitwise, between the implementations.
    EXPECT_NEAR(y_gemm[i], y_naive[i], 1e-4) << "at " << i;
  }
}

TEST(Conv3dTest, BatchedForwardBitwiseMatchesPerSample) {
  Pcg32 rng(10);
  Conv3d conv(2, 4, 3, rng);
  const int N = 3;
  const Tensor batch = randomTensor({N, 2, 4, 6, 8}, 112);
  const Tensor yb = conv.forward(batch);
  ASSERT_EQ(yb.shape(), (std::vector<int>{N, 4, 4, 6, 8}));
  const std::size_t in_per = batch.numel() / N;
  const std::size_t out_per = yb.numel() / N;
  for (int s = 0; s < N; ++s) {
    Tensor x({2, 4, 6, 8});
    std::copy(batch.data() + static_cast<std::size_t>(s) * in_per,
              batch.data() + static_cast<std::size_t>(s + 1) * in_per, x.data());
    const Tensor y = conv.forward(x);
    for (std::size_t i = 0; i < out_per; ++i) {
      EXPECT_EQ(yb[static_cast<std::size_t>(s) * out_per + i], y[i])
          << "sample " << s << " voxel " << i;
    }
  }
}

TEST(Conv3dTest, BatchedBackwardAccumulatesOverBatch) {
  const int N = 2;
  const Tensor batch = randomTensor({N, 2, 4, 4, 4}, 113);
  const Tensor gy = randomTensor({N, 3, 4, 4, 4}, 114);
  const std::size_t in_per = batch.numel() / N;
  const std::size_t gy_per = gy.numel() / N;

  Pcg32 rng_a(11);
  Conv3d batched(2, 3, 3, rng_a);
  (void)batched.forward(batch);
  const Tensor gx_b = batched.backward(gy);

  Pcg32 rng_b(11);
  Conv3d seq(2, 3, 3, rng_b);
  Tensor gx_s(batch.shape());
  for (int s = 0; s < N; ++s) {
    Tensor x({2, 4, 4, 4}), g({3, 4, 4, 4});
    std::copy(batch.data() + static_cast<std::size_t>(s) * in_per,
              batch.data() + static_cast<std::size_t>(s + 1) * in_per, x.data());
    std::copy(gy.data() + static_cast<std::size_t>(s) * gy_per,
              gy.data() + static_cast<std::size_t>(s + 1) * gy_per, g.data());
    (void)seq.forward(x);
    const Tensor gxi = seq.backward(g);
    std::copy(gxi.data(), gxi.data() + in_per,
              gx_s.data() + static_cast<std::size_t>(s) * in_per);
  }

  for (std::size_t i = 0; i < batched.gw.numel(); ++i) {
    EXPECT_NEAR(batched.gw[i], seq.gw[i], 1e-4);
  }
  for (std::size_t i = 0; i < batched.gb.numel(); ++i) {
    EXPECT_NEAR(batched.gb[i], seq.gb[i], 1e-4);
  }
  for (std::size_t i = 0; i < gx_b.numel(); ++i) {
    EXPECT_NEAR(gx_b[i], gx_s[i], 1e-4);
  }
}

TEST(UNetTest, BatchedForwardBitwiseMatchesPerSample) {
  UNetConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 2;
  cfg.base_width = 2;
  UNet3D net(cfg, 21);
  const int N = 3;
  const Tensor batch = randomTensor({N, 2, 8, 8, 8}, 120);

  asura::ml::InferenceModeScope inference;
  const Tensor yb = net.forward(batch);
  ASSERT_EQ(yb.shape(), (std::vector<int>{N, 2, 8, 8, 8}));
  const std::size_t per = batch.numel() / N;
  for (int s = 0; s < N; ++s) {
    Tensor x({2, 8, 8, 8});
    std::copy(batch.data() + static_cast<std::size_t>(s) * per,
              batch.data() + static_cast<std::size_t>(s + 1) * per, x.data());
    const Tensor y = net.forward(x);
    for (std::size_t i = 0; i < per; ++i) {
      EXPECT_EQ(yb[static_cast<std::size_t>(s) * per + i], y[i])
          << "batch size changed bits: sample " << s << " element " << i;
    }
  }
}

TEST(UNetTest, RejectsBadShapesWithDescriptiveError) {
  UNetConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 2;
  cfg.base_width = 2;
  UNet3D net(cfg, 22);

  // Spatial dim not divisible by 4: the error must say so, at the entry
  // point — not an "odd dims" throw from a pooling layer mid-network.
  try {
    (void)net.forward(Tensor({2, 6, 8, 8}));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("multiple of 4"), std::string::npos)
        << "unhelpful message: " << e.what();
    EXPECT_NE(std::string(e.what()).find("D=6"), std::string::npos)
        << "message does not name the offending dim: " << e.what();
  }

  // Wrong channel count.
  try {
    (void)net.forward(Tensor({3, 8, 8, 8}));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("channels"), std::string::npos);
  }

  // Wrong rank.
  EXPECT_THROW((void)net.forward(Tensor({2, 8, 8})), std::invalid_argument);
  // Batched input is validated the same way.
  EXPECT_THROW((void)net.forward(Tensor({2, 2, 8, 8, 6})), std::invalid_argument);
}

TEST(TensorTest, MseGradientComputedInDouble) {
  // The per-element gradient scale must be computed in double with ONE final
  // rounding: float(double(p) - double(t)) * (2/n). The pre-fix float-only
  // arithmetic rounds twice and drifts by an ulp on many inputs.
  const int n = 7;
  Tensor p({1, 1, 1, n}), t({1, 1, 1, n});
  Pcg32 rng(55);
  for (int trial = 0; trial < 200; ++trial) {
    for (int i = 0; i < n; ++i) {
      p[static_cast<std::size_t>(i)] = static_cast<float>(rng.normal());
      t[static_cast<std::size_t>(i)] = static_cast<float>(rng.normal() * 1e-3);
    }
    Tensor g;
    (void)asura::ml::mseLoss(p, t, &g);
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const float want = static_cast<float>(
          (static_cast<double>(p[idx]) - static_cast<double>(t[idx])) * 2.0 /
          static_cast<double>(n));
      ASSERT_EQ(g[idx], want) << "trial " << trial << " element " << i;
    }
  }
}

TEST(InferenceModeTest, SkipsCachesAndBackwardThrows) {
  Pcg32 rng(31);
  Conv3d conv(1, 1, 3, rng);
  Relu relu;
  const Tensor x = randomTensor({1, 4, 4, 4}, 130);
  {
    asura::ml::InferenceModeScope scope;
    EXPECT_TRUE(asura::ml::inferenceMode());
    (void)conv.forward(x);
    (void)relu.forward(x);
  }
  EXPECT_FALSE(asura::ml::inferenceMode());
  // Never trained: the skipped caches make backward a usage error.
  EXPECT_THROW((void)conv.backward(x), std::logic_error);
  EXPECT_THROW((void)relu.backward(x), std::logic_error);

  // Inference-mode output is identical to training-mode output.
  const Tensor y_train = conv.forward(x);
  asura::ml::InferenceModeScope scope;
  const Tensor y_infer = conv.forward(x);
  for (std::size_t i = 0; i < y_train.numel(); ++i) {
    EXPECT_EQ(y_train[i], y_infer[i]);
  }
}

}  // namespace
