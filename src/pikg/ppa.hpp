#pragma once
/// \file ppa.hpp
/// \brief Piecewise Polynomial Approximation of interaction kernel functions
/// (paper §3.5).
///
/// "In PPA, the domain of the target function is divided into m subdomains.
/// The function in each subdomain is approximated by the nth-order
/// polynomials. Thus, m(n+1) coefficients of the polynomials are needed."
///
/// The paper computes minimax polynomials with Sollya; here each subdomain
/// polynomial is fitted at Chebyshev nodes (near-minimax: within a small
/// factor of the true minimax error) and stored in the monomial basis of the
/// normalized local coordinate s = (x - a_k)/d, so that evaluation is a
/// subdomain lookup plus a Horner chain — the shape that SIMD table-lookup
/// (ARM SVE / AVX-512, §3.5) accelerates. The generated kernels' `table` op
/// (pikg/dsl.hpp) carries the SIMD gather path.

#include <cstddef>
#include <functional>
#include <vector>

namespace asura::pikg {

class PiecewisePolynomial {
 public:
  /// Fit `f` on [lo, hi) with `subdomains` pieces of degree `degree`.
  static PiecewisePolynomial fit(const std::function<double(double)>& f, double lo,
                                 double hi, int subdomains, int degree);

  /// Evaluate at x (clamped to the fitted domain).
  [[nodiscard]] double eval(double x) const;

  /// Max |f - approx| over a dense scan of `samples` points.
  [[nodiscard]] double maxError(const std::function<double(double)>& f,
                                int samples = 10000) const;

  [[nodiscard]] int subdomains() const { return m_; }
  [[nodiscard]] int degree() const { return n_; }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }

  /// Coefficient table, row k = subdomain k, column l = s^l coefficient. The
  /// PIKG code generator embeds this into the generated f64 kernels' table
  /// parameters.
  [[nodiscard]] const std::vector<double>& tableF64() const { return coeff_; }

 private:
  int m_ = 0;
  int n_ = 0;
  double lo_ = 0.0, hi_ = 1.0, d_ = 1.0, inv_d_ = 1.0;
  std::vector<double> coeff_;  ///< m * (n+1)
};

}  // namespace asura::pikg
