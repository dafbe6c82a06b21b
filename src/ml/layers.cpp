#include "ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "ml/gemm.hpp"

namespace asura::ml {

namespace {

thread_local int tl_inference_depth = 0;

/// Common (N, C, D, H, W) view of a 4-D (N = 1) or batched 5-D tensor.
struct Ncdhw {
  int n, c, d, h, w;
  bool batched;
};

Ncdhw splitShape(const Tensor& x, const char* who) {
  const auto& s = x.shape();
  if (s.size() == 4) return {1, s[0], s[1], s[2], s[3], false};
  if (s.size() == 5) return {s[0], s[1], s[2], s[3], s[4], true};
  throw std::invalid_argument(std::string(who) +
                              ": expected 4-D (C,D,H,W) or 5-D (N,C,D,H,W) input");
}

}  // namespace

InferenceModeScope::InferenceModeScope() : prev_(tl_inference_depth > 0) {
  ++tl_inference_depth;
}
InferenceModeScope::~InferenceModeScope() { --tl_inference_depth; }
bool inferenceMode() { return tl_inference_depth > 0; }

double mseLoss(const Tensor& pred, const Tensor& target, Tensor* grad) {
  if (!pred.sameShape(target)) throw std::invalid_argument("mseLoss: shape mismatch");
  const std::size_t n = pred.numel();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(pred[i]) - target[i];
    s += d * d;
  }
  if (grad) {
    *grad = Tensor(pred.shape());
    // Per-element scale in double, one rounding at the final cast. The old
    // code subtracted in float and divided by float(n): two extra roundings
    // that for production-size cubes (n ~ 8*64^3) cost the gradient bits
    // the optimizer's finite-difference checks rely on.
    const double scale = 2.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      (*grad)[i] = static_cast<float>(
          (static_cast<double>(pred[i]) - static_cast<double>(target[i])) * scale);
    }
  }
  return s / static_cast<double>(n);
}

Conv3d::Conv3d(int cin, int cout, int k, util::Pcg32& rng)
    : w({cout, cin, k, k, k}),
      b({cout}),
      gw({cout, cin, k, k, k}),
      gb({cout}),
      cin_(cin),
      cout_(cout),
      k_(k),
      pad_(k / 2) {
  if (k % 2 == 0) throw std::invalid_argument("Conv3d: kernel size must be odd");
  // He initialization (ReLU nets).
  const double std_dev = std::sqrt(2.0 / (static_cast<double>(cin) * k * k * k));
  for (std::size_t i = 0; i < w.numel(); ++i) {
    w[i] = static_cast<float>(rng.normal(0.0, std_dev));
  }
}

Tensor Conv3d::forward(const Tensor& x) {
  const Ncdhw in = splitShape(x, "Conv3d");
  if (in.c != cin_) throw std::invalid_argument("Conv3d: bad input shape");
  // In inference mode the layer writes NO member state — that (not just
  // memory) is what lets every pool worker run forward on the one shared
  // network concurrently.
  if (!inferenceMode()) x_cache_ = x;
  Tensor y(in.batched ? std::vector<int>{in.n, cout_, in.d, in.h, in.w}
                      : std::vector<int>{cout_, in.d, in.h, in.w});
  forwardGemm(x, y);
  return y;
}

void Conv3d::forwardGemm(const Tensor& x, Tensor& y) const {
  const Ncdhw in = splitShape(x, "Conv3d");
  const int D = in.d, H = in.h, W = in.w;
  const std::size_t cs = static_cast<std::size_t>(D) * H * W;
  const int kvol = k_ * k_ * k_;
  const int K = cin_ * kvol;
  // Tile the output voxels in whole (d, h) rows so each im2col row is a
  // handful of shifted contiguous copies. ~1 MB col buffer per thread; the
  // tile size is a pure performance knob — per-element accumulation order
  // (ascending K) never depends on it.
  const int total_rows = D * H;
  constexpr int kTileFloats = 1 << 18;
  const int rows_per_tile =
      std::clamp(kTileFloats / std::max(1, K * W), 1, total_rows);
  const int n_tiles = (total_rows + rows_per_tile - 1) / rows_per_tile;
  const float* xd = x.data();
  float* yd = y.data();
  const int n_samples = in.n;

#pragma omp parallel
  {
    std::vector<float> col(static_cast<std::size_t>(K) * rows_per_tile * W);
#pragma omp for collapse(2) schedule(static)
    for (int n = 0; n < n_samples; ++n) {
      for (int t = 0; t < n_tiles; ++t) {
        const int r0 = t * rows_per_tile;
        const int rows = std::min(rows_per_tile, total_rows - r0);
        const int tl = rows * W;
        // im2col: row (i, a, bb, c) of the patch matrix, columns = the
        // tile's voxels in (d, h, w) order — the same (i, a, bb, c)
        // accumulation order as the naive loops.
        for (int i = 0; i < cin_; ++i) {
          for (int a = 0; a < k_; ++a) {
            for (int bb = 0; bb < k_; ++bb) {
              for (int c = 0; c < k_; ++c) {
                const int kk = ((i * k_ + a) * k_ + bb) * k_ + c;
                float* crow = col.data() + static_cast<std::size_t>(kk) * tl;
                const int shift = c - pad_;
                const int w_lo = std::max(0, -shift);       // first valid w
                const int w_hi = std::min(W, W - shift);    // one past last
                for (int r = r0; r < r0 + rows; ++r) {
                  const int d = r / H, h = r % H;
                  const int dd = d + a - pad_;
                  const int hh = h + bb - pad_;
                  float* dst = crow + static_cast<std::size_t>(r - r0) * W;
                  if (dd < 0 || dd >= D || hh < 0 || hh >= H) {
                    std::fill(dst, dst + W, 0.0f);
                    continue;
                  }
                  const float* src = xd + static_cast<std::size_t>(n) * cin_ * cs +
                                     (static_cast<std::size_t>(i) * D + dd) * H * W +
                                     static_cast<std::size_t>(hh) * W;
                  std::fill(dst, dst + w_lo, 0.0f);
                  std::copy(src + w_lo + shift, src + w_hi + shift, dst + w_lo);
                  std::fill(dst + w_hi, dst + W, 0.0f);
                }
              }
            }
          }
        }
        // y tile starts at the bias, then accumulates W * col.
        float* ytile = yd + static_cast<std::size_t>(n) * cout_ * cs +
                       static_cast<std::size_t>(r0) * W;
        for (int o = 0; o < cout_; ++o) {
          float* yrow = ytile + static_cast<std::size_t>(o) * cs;
          std::fill(yrow, yrow + tl, b[static_cast<std::size_t>(o)]);
        }
        sgemmAcc(cout_, tl, K, w.data(), K, col.data(), tl, ytile,
                 static_cast<int>(cs));
      }
    }
  }
}

Tensor Conv3d::backward(const Tensor& gy) {
  const Tensor& x = x_cache_;
  if (x.numel() == 0) {
    throw std::logic_error("Conv3d::backward: no cached input (inference mode?)");
  }
  const Ncdhw in = splitShape(x, "Conv3d::backward");
  const int D = in.d, H = in.h, W = in.w;
  const std::size_t cs = static_cast<std::size_t>(D) * H * W;
  const int n_samples = in.n;
  Tensor gx(x.shape());
  const float* xd = x.data();
  const float* gyd = gy.data();
  float* gxd = gx.data();

  auto gy_at = [&](int n, int o, int d, int h, int wv) {
    return gyd[static_cast<std::size_t>(n) * cout_ * cs +
               (static_cast<std::size_t>(o) * D + d) * H * W +
               static_cast<std::size_t>(h) * W + wv];
  };
  auto x_at = [&](int n, int i, int d, int h, int wv) {
    return xd[static_cast<std::size_t>(n) * cin_ * cs +
              (static_cast<std::size_t>(i) * D + d) * H * W +
              static_cast<std::size_t>(h) * W + wv];
  };

  // Bias and weight gradients (batch accumulated in ascending sample order).
#pragma omp parallel for schedule(static)
  for (int o = 0; o < cout_; ++o) {
    double gbo = 0.0;
    for (int n = 0; n < n_samples; ++n) {
      for (int d = 0; d < D; ++d) {
        for (int h = 0; h < H; ++h) {
          for (int wv = 0; wv < W; ++wv) gbo += gy_at(n, o, d, h, wv);
        }
      }
    }
    gb[static_cast<std::size_t>(o)] += static_cast<float>(gbo);

    for (int i = 0; i < cin_; ++i) {
      for (int a = 0; a < k_; ++a) {
        for (int bb = 0; bb < k_; ++bb) {
          for (int c = 0; c < k_; ++c) {
            double acc = 0.0;
            for (int n = 0; n < n_samples; ++n) {
              for (int d = 0; d < D; ++d) {
                const int dd = d + a - pad_;
                if (dd < 0 || dd >= D) continue;
                for (int h = 0; h < H; ++h) {
                  const int hh = h + bb - pad_;
                  if (hh < 0 || hh >= H) continue;
                  for (int wv = 0; wv < W; ++wv) {
                    const int ww = wv + c - pad_;
                    if (ww < 0 || ww >= W) continue;
                    acc += gy_at(n, o, d, h, wv) * x_at(n, i, dd, hh, ww);
                  }
                }
              }
            }
            gw.at5(o, i, a, bb, c) += static_cast<float>(acc);
          }
        }
      }
    }
  }

  // Input gradient (full correlation with flipped kernel).
#pragma omp parallel for collapse(2) schedule(static)
  for (int n = 0; n < n_samples; ++n) {
    for (int i = 0; i < cin_; ++i) {
      for (int dd = 0; dd < D; ++dd) {
        for (int hh = 0; hh < H; ++hh) {
          for (int ww = 0; ww < W; ++ww) {
            float acc = 0.0f;
            for (int o = 0; o < cout_; ++o) {
              for (int a = 0; a < k_; ++a) {
                const int d = dd - a + pad_;
                if (d < 0 || d >= D) continue;
                for (int bb = 0; bb < k_; ++bb) {
                  const int h = hh - bb + pad_;
                  if (h < 0 || h >= H) continue;
                  for (int c = 0; c < k_; ++c) {
                    const int wv = ww - c + pad_;
                    if (wv < 0 || wv >= W) continue;
                    acc += gy_at(n, o, d, h, wv) * w.at5(o, i, a, bb, c);
                  }
                }
              }
            }
            gxd[static_cast<std::size_t>(n) * cin_ * cs +
                (static_cast<std::size_t>(i) * D + dd) * H * W +
                static_cast<std::size_t>(hh) * W + ww] = acc;
          }
        }
      }
    }
  }
  return gx;
}

Tensor Relu::forward(const Tensor& x) {
  if (!inferenceMode()) x_cache_ = x;
  Tensor y(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) y[i] = std::max(0.0f, x[i]);
  return y;
}

Tensor Relu::backward(const Tensor& gy) const {
  if (x_cache_.numel() != gy.numel()) {
    throw std::logic_error("Relu::backward: no cached input (inference mode?)");
  }
  Tensor gx(gy.shape());
  for (std::size_t i = 0; i < gy.numel(); ++i) {
    gx[i] = x_cache_[i] > 0.0f ? gy[i] : 0.0f;
  }
  return gx;
}

Tensor MaxPool3d::forward(const Tensor& x) {
  const auto& s = x.shape();
  if (s.size() < 4) throw std::invalid_argument("MaxPool3d: expected >= 4-D input");
  const int D = s[s.size() - 3], H = s[s.size() - 2], W = s[s.size() - 1];
  if (D % 2 || H % 2 || W % 2) throw std::invalid_argument("MaxPool3d: odd dims");
  const bool record = !inferenceMode();
  if (record) in_shape_ = s;
  auto ys = s;
  ys[ys.size() - 3] = D / 2;
  ys[ys.size() - 2] = H / 2;
  ys[ys.size() - 1] = W / 2;
  Tensor y(ys);
  const std::size_t cs = static_cast<std::size_t>(D) * H * W;
  const int C = static_cast<int>(x.numel() / cs);  // channels x batch
  if (record) argmax_.assign(y.numel(), 0);
  const float* xd = x.data();
  std::size_t oi = 0;
  for (int c = 0; c < C; ++c) {
    const std::size_t base = static_cast<std::size_t>(c) * cs;
    for (int d = 0; d < D; d += 2) {
      for (int h = 0; h < H; h += 2) {
        for (int wv = 0; wv < W; wv += 2) {
          std::size_t best_idx =
              base + (static_cast<std::size_t>(d) * H + h) * W + wv;
          float best = xd[best_idx];
          for (int a = 0; a < 2; ++a) {
            for (int b = 0; b < 2; ++b) {
              for (int e = 0; e < 2; ++e) {
                const std::size_t idx =
                    base + (static_cast<std::size_t>(d + a) * H + h + b) * W +
                    (wv + e);
                const float v = xd[idx];
                if (v > best) {
                  best = v;
                  best_idx = idx;
                }
              }
            }
          }
          y[oi] = best;
          if (record) argmax_[oi] = static_cast<std::uint32_t>(best_idx);
          ++oi;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool3d::backward(const Tensor& gy) const {
  if (argmax_.size() != gy.numel()) {
    throw std::logic_error("MaxPool3d::backward: no forward cache (inference mode?)");
  }
  Tensor gx(in_shape_);
  for (std::size_t i = 0; i < gy.numel(); ++i) gx[argmax_[i]] += gy[i];
  return gx;
}

Tensor Upsample3d::forward(const Tensor& x) {
  const auto& s = x.shape();
  if (s.size() < 4) throw std::invalid_argument("Upsample3d: expected >= 4-D input");
  const int D = s[s.size() - 3], H = s[s.size() - 2], W = s[s.size() - 1];
  if (!inferenceMode()) in_shape_ = s;
  auto ys = s;
  ys[ys.size() - 3] = 2 * D;
  ys[ys.size() - 2] = 2 * H;
  ys[ys.size() - 1] = 2 * W;
  Tensor y(ys);
  const std::size_t cs = static_cast<std::size_t>(D) * H * W;
  const int C = static_cast<int>(x.numel() / cs);
  const float* xd = x.data();
  float* yd = y.data();
  for (int c = 0; c < C; ++c) {
    const float* xc = xd + static_cast<std::size_t>(c) * cs;
    float* yc = yd + static_cast<std::size_t>(c) * cs * 8;
    for (int d = 0; d < 2 * D; ++d) {
      for (int h = 0; h < 2 * H; ++h) {
        for (int wv = 0; wv < 2 * W; ++wv) {
          yc[(static_cast<std::size_t>(d) * 2 * H + h) * 2 * W + wv] =
              xc[(static_cast<std::size_t>(d / 2) * H + h / 2) * W + wv / 2];
        }
      }
    }
  }
  return y;
}

Tensor Upsample3d::backward(const Tensor& gy) const {
  if (in_shape_.empty()) {
    throw std::logic_error("Upsample3d::backward: no forward cache");
  }
  Tensor gx(in_shape_);
  const auto& s = gy.shape();
  const int D = s[s.size() - 3], H = s[s.size() - 2], W = s[s.size() - 1];
  const std::size_t cs = static_cast<std::size_t>(D) * H * W;
  const int C = static_cast<int>(gy.numel() / cs);
  const float* gyd = gy.data();
  float* gxd = gx.data();
  for (int c = 0; c < C; ++c) {
    const float* gc = gyd + static_cast<std::size_t>(c) * cs;
    float* xc = gxd + static_cast<std::size_t>(c) * (cs / 8);
    for (int d = 0; d < D; ++d) {
      for (int h = 0; h < H; ++h) {
        for (int wv = 0; wv < W; ++wv) {
          xc[(static_cast<std::size_t>(d / 2) * (H / 2) + h / 2) * (W / 2) + wv / 2] +=
              gc[(static_cast<std::size_t>(d) * H + h) * W + wv];
        }
      }
    }
  }
  return gx;
}

Tensor concatChannels(const Tensor& a, const Tensor& b) {
  const Ncdhw sa = splitShape(a, "concatChannels");
  const Ncdhw sb = splitShape(b, "concatChannels");
  if (sa.batched != sb.batched || sa.n != sb.n || sa.d != sb.d || sa.h != sb.h ||
      sa.w != sb.w) {
    throw std::invalid_argument("concatChannels: spatial/batch mismatch");
  }
  const std::size_t cs = static_cast<std::size_t>(sa.d) * sa.h * sa.w;
  Tensor y(sa.batched ? std::vector<int>{sa.n, sa.c + sb.c, sa.d, sa.h, sa.w}
                      : std::vector<int>{sa.c + sb.c, sa.d, sa.h, sa.w});
  float* yd = y.data();
  for (int n = 0; n < sa.n; ++n) {
    const float* an = a.data() + static_cast<std::size_t>(n) * sa.c * cs;
    const float* bn = b.data() + static_cast<std::size_t>(n) * sb.c * cs;
    float* yn = yd + static_cast<std::size_t>(n) * (sa.c + sb.c) * cs;
    std::copy(an, an + static_cast<std::size_t>(sa.c) * cs, yn);
    std::copy(bn, bn + static_cast<std::size_t>(sb.c) * cs,
              yn + static_cast<std::size_t>(sa.c) * cs);
  }
  return y;
}

void splitChannels(const Tensor& g, int ca, Tensor& ga, Tensor& gb) {
  const Ncdhw sg = splitShape(g, "splitChannels");
  const int cb = sg.c - ca;
  const std::size_t cs = static_cast<std::size_t>(sg.d) * sg.h * sg.w;
  ga = Tensor(sg.batched ? std::vector<int>{sg.n, ca, sg.d, sg.h, sg.w}
                         : std::vector<int>{ca, sg.d, sg.h, sg.w});
  gb = Tensor(sg.batched ? std::vector<int>{sg.n, cb, sg.d, sg.h, sg.w}
                         : std::vector<int>{cb, sg.d, sg.h, sg.w});
  for (int n = 0; n < sg.n; ++n) {
    const float* gn = g.data() + static_cast<std::size_t>(n) * sg.c * cs;
    std::copy(gn, gn + static_cast<std::size_t>(ca) * cs,
              ga.data() + static_cast<std::size_t>(n) * ca * cs);
    std::copy(gn + static_cast<std::size_t>(ca) * cs,
              gn + static_cast<std::size_t>(sg.c) * cs,
              gb.data() + static_cast<std::size_t>(n) * cb * cs);
  }
}

}  // namespace asura::ml
