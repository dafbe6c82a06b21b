#pragma once
/// \file layers.hpp
/// \brief Neural-net layers for the 3-D U-Net: conv3d, ReLU, maxpool,
/// nearest-neighbour upsample, channel concat. Each layer supports forward
/// and backward (training happens here too — see DESIGN.md substitutions).
///
/// Every layer accepts either a single sample (C, D, H, W) or a batch
/// (N, C, D, H, W) — the leading batch dimension is how the pool scheduler
/// runs many concurrently-due SN regions through one forward pass. Batched
/// output is bitwise identical to running the samples one at a time: each
/// sample's arithmetic is independent and fixed-order (see ml/gemm.hpp).

#include <cstdint>
#include <vector>

#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace asura::ml {

/// Thread-local inference mode: while a scope is alive on the calling
/// thread, layer forwards write NO member state — no backward caches
/// (Conv3d/Relu input copies, MaxPool3d argmax), no cached shapes. That
/// both bounds memory for batched inference (no per-layer activation
/// copies) and makes concurrent forward passes over one shared network
/// race-free, which is how every pool worker runs the same backend at
/// once. backward on a never-trained layer then throws std::logic_error.
class InferenceModeScope {
 public:
  InferenceModeScope();
  ~InferenceModeScope();
  InferenceModeScope(const InferenceModeScope&) = delete;
  InferenceModeScope& operator=(const InferenceModeScope&) = delete;

 private:
  bool prev_;
};
[[nodiscard]] bool inferenceMode();

/// 3-D convolution, stride 1, zero "same" padding (k odd).
class Conv3d {
 public:
  Conv3d(int cin, int cout, int k, util::Pcg32& rng);

  /// Lowered to an im2col GEMM (ml/gemm.hpp). Accepts (C,D,H,W) or
  /// (N,C,D,H,W); the output has the same rank as the input.
  [[nodiscard]] Tensor forward(const Tensor& x);
  /// Returns dL/dx; accumulates dL/dw, dL/db. Batched gy accumulates the
  /// parameter gradients over the batch (sample-ascending order).
  Tensor backward(const Tensor& gy);

  Tensor w;   ///< (cout, cin, k, k, k)
  Tensor b;   ///< (cout)
  Tensor gw;  ///< gradient accumulators
  Tensor gb;

  [[nodiscard]] int cin() const { return cin_; }
  [[nodiscard]] int cout() const { return cout_; }
  [[nodiscard]] int k() const { return k_; }

 private:
  void forwardGemm(const Tensor& x, Tensor& y) const;

  int cin_, cout_, k_, pad_;
  Tensor x_cache_;
};

class Relu {
 public:
  [[nodiscard]] Tensor forward(const Tensor& x);
  [[nodiscard]] Tensor backward(const Tensor& gy) const;

 private:
  Tensor x_cache_;
};

/// 2x max pooling over the trailing (D, H, W); dims must be even.
class MaxPool3d {
 public:
  [[nodiscard]] Tensor forward(const Tensor& x);
  [[nodiscard]] Tensor backward(const Tensor& gy) const;

 private:
  std::vector<std::uint32_t> argmax_;
  std::vector<int> in_shape_;
};

/// 2x nearest-neighbour upsampling over the trailing (D, H, W).
class Upsample3d {
 public:
  [[nodiscard]] Tensor forward(const Tensor& x);
  [[nodiscard]] Tensor backward(const Tensor& gy) const;

 private:
  std::vector<int> in_shape_;
};

/// Channel concatenation [a; b] and its split for the backward pass. The
/// channel axis is axis 0 for 4-D tensors, axis 1 for batched 5-D ones.
Tensor concatChannels(const Tensor& a, const Tensor& b);
void splitChannels(const Tensor& g, int ca, Tensor& ga, Tensor& gb);

}  // namespace asura::ml
