#include "pikg/ppa.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace asura::pikg {

namespace {

/// Solve the small dense system A x = b in place (Gaussian elimination with
/// partial pivoting). Dimensions are (degree+1) <= ~9, conditioning is fine
/// because the local coordinate is normalized to [0, 1].
void solveInPlace(std::vector<double>& A, std::vector<double>& b, int n) {
  for (int col = 0; col < n; ++col) {
    int piv = col;
    for (int r = col + 1; r < n; ++r) {
      if (std::abs(A[static_cast<std::size_t>(r) * n + col]) >
          std::abs(A[static_cast<std::size_t>(piv) * n + col])) {
        piv = r;
      }
    }
    if (piv != col) {
      for (int c = 0; c < n; ++c) {
        std::swap(A[static_cast<std::size_t>(col) * n + c],
                  A[static_cast<std::size_t>(piv) * n + c]);
      }
      std::swap(b[static_cast<std::size_t>(col)], b[static_cast<std::size_t>(piv)]);
    }
    const double p = A[static_cast<std::size_t>(col) * n + col];
    if (p == 0.0) throw std::runtime_error("PPA: singular fit matrix");
    for (int r = col + 1; r < n; ++r) {
      const double f = A[static_cast<std::size_t>(r) * n + col] / p;
      for (int c = col; c < n; ++c) {
        A[static_cast<std::size_t>(r) * n + c] -=
            f * A[static_cast<std::size_t>(col) * n + c];
      }
      b[static_cast<std::size_t>(r)] -= f * b[static_cast<std::size_t>(col)];
    }
  }
  for (int r = n - 1; r >= 0; --r) {
    double s = b[static_cast<std::size_t>(r)];
    for (int c = r + 1; c < n; ++c) {
      s -= A[static_cast<std::size_t>(r) * n + c] * b[static_cast<std::size_t>(c)];
    }
    b[static_cast<std::size_t>(r)] = s / A[static_cast<std::size_t>(r) * n + r];
  }
}

}  // namespace

PiecewisePolynomial PiecewisePolynomial::fit(const std::function<double(double)>& f,
                                             double lo, double hi, int subdomains,
                                             int degree) {
  if (!(hi > lo) || subdomains <= 0 || degree < 0 || degree > 8) {
    throw std::invalid_argument("PPA: bad fit parameters");
  }
  PiecewisePolynomial p;
  p.m_ = subdomains;
  p.n_ = degree;
  p.lo_ = lo;
  p.hi_ = hi;
  p.d_ = (hi - lo) / subdomains;
  p.inv_d_ = 1.0 / p.d_;

  const int nc = degree + 1;
  p.coeff_.assign(static_cast<std::size_t>(subdomains) * nc, 0.0);

  for (int k = 0; k < subdomains; ++k) {
    const double a = lo + k * p.d_;
    // Chebyshev interpolation nodes in the subdomain (near-minimax).
    std::vector<double> s_nodes(static_cast<std::size_t>(nc));
    std::vector<double> f_nodes(static_cast<std::size_t>(nc));
    for (int i = 0; i < nc; ++i) {
      const double t = std::cos((2.0 * i + 1.0) * std::numbers::pi / (2.0 * nc));
      const double s = 0.5 * (t + 1.0);  // [0, 1]
      s_nodes[static_cast<std::size_t>(i)] = s;
      f_nodes[static_cast<std::size_t>(i)] = f(a + s * p.d_);
    }
    // Vandermonde solve in the normalized coordinate.
    std::vector<double> V(static_cast<std::size_t>(nc) * nc);
    for (int r = 0; r < nc; ++r) {
      double pw = 1.0;
      for (int c = 0; c < nc; ++c) {
        V[static_cast<std::size_t>(r) * nc + c] = pw;
        pw *= s_nodes[static_cast<std::size_t>(r)];
      }
    }
    solveInPlace(V, f_nodes, nc);
    for (int c = 0; c < nc; ++c) {
      p.coeff_[static_cast<std::size_t>(k) * nc + c] = f_nodes[static_cast<std::size_t>(c)];
    }
  }

  return p;
}

double PiecewisePolynomial::eval(double x) const {
  const double xx = std::clamp(x, lo_, std::nextafter(hi_, lo_));
  int k = static_cast<int>((xx - lo_) * inv_d_);
  k = std::clamp(k, 0, m_ - 1);
  const double s = (xx - (lo_ + k * d_)) * inv_d_;
  const int nc = n_ + 1;
  const double* c = &coeff_[static_cast<std::size_t>(k) * nc];
  double acc = c[n_];
  for (int l = n_ - 1; l >= 0; --l) acc = acc * s + c[l];
  return acc;
}

double PiecewisePolynomial::maxError(const std::function<double(double)>& f,
                                     int samples) const {
  double worst = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double x = lo_ + (hi_ - lo_) * (i + 0.5) / samples;
    worst = std::max(worst, std::abs(f(x) - eval(x)));
  }
  return worst;
}

}  // namespace asura::pikg
