#pragma once
/// \file kernels.hpp
/// \brief The SPH smoothing kernel, parameterized by the support radius H.
///
/// Convention: W(r, H) has compact support r < H (H is the particle's
/// Particle::h field). For the cubic spline this means the conventional
/// smoothing length is h = H/2. The density solve closes on neighbour
/// counts (sph.cpp), so no dW/dH is needed.
///
/// These closed forms are also the functions the PIKG piecewise-polynomial
/// approximation (§3.5) is fitted against: pikg_gen emits one W/dW table
/// pair from them, which the density and hydro force passes read.

#include <cmath>
#include <numbers>

namespace asura::sph {

namespace detail {

inline constexpr double kPi = std::numbers::pi;

}  // namespace detail

/// M4 cubic spline (Monaghan & Lattanzio 1985), support H = 2h.
struct CubicSplineKernel {
  static double w(double r, double H) {
    const double h = 0.5 * H;
    const double q = r / h;
    const double sigma = 1.0 / (detail::kPi * h * h * h);
    if (q < 1.0) return sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
    if (q < 2.0) {
      const double t = 2.0 - q;
      return sigma * 0.25 * t * t * t;
    }
    return 0.0;
  }

  /// dW/dr (negative inside the support).
  static double dwdr(double r, double H) {
    const double h = 0.5 * H;
    const double q = r / h;
    const double sigma = 1.0 / (detail::kPi * h * h * h);
    if (q < 1.0) return sigma / h * (-3.0 * q + 2.25 * q * q);
    if (q < 2.0) {
      const double t = 2.0 - q;
      return sigma / h * (-0.75 * t * t);
    }
    return 0.0;
  }
};

/// Support radius that would enclose `n_ngb` neighbours at density `rho`
/// for particle mass `m`: (4 pi / 3) H^3 (rho / m) = n_ngb.
inline double supportFromDensity(double m, double rho, int n_ngb) {
  return std::cbrt(3.0 * n_ngb * m / (4.0 * detail::kPi * rho));
}

/// Density implied by the neighbour-count closure at support H.
inline double densityFromSupport(double m, double H, int n_ngb) {
  return 3.0 * n_ngb * m / (4.0 * detail::kPi * H * H * H);
}

}  // namespace asura::sph
