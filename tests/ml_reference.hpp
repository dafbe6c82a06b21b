#pragma once
// Scalar reference implementations the production ML kernels are tested
// against: the triple-loop GEMM and the direct convolution loops that
// predate the im2col lowering. Test-only; nothing in src/ calls them.

#include <cstddef>
#include <vector>

#include "ml/layers.hpp"
#include "ml/tensor.hpp"

namespace asura::testing {

/// C (M x N) += A (M x K) * B (K x N), row-major: i, j, k ascending with a
/// scalar accumulator.
inline void sgemmAccReference(int m, int n, int k, const float* a, int lda, const float* b,
                              int ldb, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = c[static_cast<std::size_t>(i) * ldc + j];
      for (int kk = 0; kk < k; ++kk) {
        acc += a[static_cast<std::size_t>(i) * lda + kk] *
               b[static_cast<std::size_t>(kk) * ldb + j];
      }
      c[static_cast<std::size_t>(i) * ldc + j] = acc;
    }
  }
}

/// Direct stride-1 "same"-padded convolution of a single (C, D, H, W) sample
/// with `conv`'s weights: per output element, bias first, then the (i, a, b,
/// c) taps in ascending order, skipping taps that fall in the zero padding.
inline ml::Tensor conv3dReference(const ml::Conv3d& conv, const ml::Tensor& x) {
  const auto& s = x.shape();
  const int D = s[1], H = s[2], W = s[3];
  const int k = conv.k(), pad = k / 2;
  ml::Tensor y(std::vector<int>{conv.cout(), D, H, W});
  for (int o = 0; o < conv.cout(); ++o) {
    for (int d = 0; d < D; ++d) {
      for (int h = 0; h < H; ++h) {
        for (int w = 0; w < W; ++w) {
          float acc = conv.b[static_cast<std::size_t>(o)];
          for (int i = 0; i < conv.cin(); ++i) {
            for (int a = 0; a < k; ++a) {
              const int dd = d + a - pad;
              if (dd < 0 || dd >= D) continue;
              for (int b = 0; b < k; ++b) {
                const int hh = h + b - pad;
                if (hh < 0 || hh >= H) continue;
                for (int c = 0; c < k; ++c) {
                  const int ww = w + c - pad;
                  if (ww < 0 || ww >= W) continue;
                  acc += conv.w.at5(o, i, a, b, c) *
                         x[(static_cast<std::size_t>(i) * D + dd) * H * W +
                           static_cast<std::size_t>(hh) * W + ww];
                }
              }
            }
          }
          y[(static_cast<std::size_t>(o) * D + d) * H * W + static_cast<std::size_t>(h) * W +
            w] = acc;
        }
      }
    }
  }
  return y;
}

}  // namespace asura::testing
