// PIKG tests: piecewise-polynomial approximation quality, DSL validation and
// generated-code structure. The numerics of the generated kernels on every
// ISA are covered by test_kernel_codegen.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "pikg/dsl.hpp"
#include "pikg/ppa.hpp"
#include "sph/kernels.hpp"

namespace {

using asura::pikg::PiecewisePolynomial;

// ---------------------------------------------------------------------------
// PPA
// ---------------------------------------------------------------------------

TEST(Ppa, ReproducesPolynomialExactly) {
  auto f = [](double x) { return 3.0 - 2.0 * x + 0.5 * x * x; };
  const auto p = PiecewisePolynomial::fit(f, 0.0, 2.0, 4, 2);
  EXPECT_LT(p.maxError(f), 1e-12);
}

class PpaAccuracy : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PpaAccuracy, ErrorShrinksWithTableSize) {
  const auto [m, n] = GetParam();
  auto f = [](double x) { return std::exp(-x) * std::sin(3.0 * x); };
  const auto p = PiecewisePolynomial::fit(f, 0.0, 2.0, m, n);
  // Chebyshev-node interpolation error bound ~ (d/4)^{n+1} * max|f^{(n+1)}|/(n+1)!
  const double d = 2.0 / m;
  const double bound = 40.0 * std::pow(d / 4.0, n + 1);
  EXPECT_LT(p.maxError(f), bound) << "m=" << m << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Grids, PpaAccuracy,
                         ::testing::Combine(::testing::Values(4, 16, 64),
                                            ::testing::Values(2, 3, 5)));

TEST(Ppa, SphKernelApproximationTightEnoughForTable4) {
  // The production setting: approximate the cubic-spline W(q) shape on its
  // support; a 16x4 table is plenty for single precision.
  auto f = [](double q) { return asura::sph::CubicSplineKernel::w(q, 1.0); };
  const auto p = PiecewisePolynomial::fit(f, 0.0, 1.0, 16, 4);
  const double w0 = f(0.0);
  EXPECT_LT(p.maxError(f) / w0, 2e-6);
}

TEST(Ppa, CoefficientCountMatchesPaperFormula) {
  // "m(n+1) coefficients of the polynomials are needed."
  const auto p = PiecewisePolynomial::fit([](double x) { return x; }, 0.0, 1.0, 7, 3);
  EXPECT_EQ(p.tableF64().size(), 7u * 4u);
}

TEST(Ppa, InvalidParamsThrow) {
  auto f = [](double x) { return x; };
  EXPECT_THROW(PiecewisePolynomial::fit(f, 1.0, 0.0, 4, 2), std::invalid_argument);
  EXPECT_THROW(PiecewisePolynomial::fit(f, 0.0, 1.0, 0, 2), std::invalid_argument);
  EXPECT_THROW(PiecewisePolynomial::fit(f, 0.0, 1.0, 4, 9), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DSL / code generation
// ---------------------------------------------------------------------------

TEST(Dsl, SsaViolationDetected) {
  auto def = asura::pikg::makeGravityProductionKernel();
  def.body.push_back({"dx", "add", "dx", "dy", ""});  // redefinition
  EXPECT_THROW(asura::pikg::validate(def), std::invalid_argument);
}

TEST(Dsl, UndefinedOperandDetected) {
  auto def = asura::pikg::makeGravityProductionKernel();
  def.body.push_back({"oops", "add", "no_such_var", "dx", ""});
  EXPECT_THROW(asura::pikg::validate(def), std::invalid_argument);
}

TEST(Dsl, ProductionKernelsValidate) {
  EXPECT_NO_THROW(asura::pikg::validate(asura::pikg::makeGravityProductionKernel()));
  EXPECT_NO_THROW(asura::pikg::validate(asura::pikg::makeDensityKernel()));
  EXPECT_NO_THROW(asura::pikg::validate(asura::pikg::makeHydroForceKernel()));
  EXPECT_EQ(asura::pikg::makeGravityProductionKernel().flops_per_interaction, 27);
  EXPECT_EQ(asura::pikg::makeDensityKernel().flops_per_interaction, 73);
  EXPECT_EQ(asura::pikg::makeHydroForceKernel().flops_per_interaction, 101);
}

TEST(Dsl, SelectRequiresMaskOperand) {
  auto def = asura::pikg::makeGravityProductionKernel();
  // dx is an arithmetic value, not a gt/lt mask.
  def.body.push_back({"bad", "select", "dx", "dy", "dz"});
  EXPECT_THROW(asura::pikg::validate(def), std::invalid_argument);
}

TEST(Dsl, MaskCannotBeUsedAsValue) {
  auto def = asura::pikg::makeGravityProductionKernel();
  def.body.push_back({"bad", "add", "mask", "dx", ""});
  EXPECT_THROW(asura::pikg::validate(def), std::invalid_argument);
}

TEST(Dsl, TableOpRequiresDeclaredTable) {
  auto def = asura::pikg::makeDensityKernel();
  def.body.push_back({"bad", "table", "no_such_table", "u", ""});
  EXPECT_THROW(asura::pikg::validate(def), std::invalid_argument);
}

TEST(Dsl, SoaEmittersCoverEveryIsa) {
  for (const auto& def :
       {asura::pikg::makeGravityProductionKernel(), asura::pikg::makeDensityKernel(),
        asura::pikg::makeHydroForceKernel()}) {
    for (const auto isa :
         {asura::pikg::Isa::Scalar, asura::pikg::Isa::Avx2, asura::pikg::Isa::Avx512}) {
      const std::string src = asura::pikg::generateSoaKernel(def, isa);
      EXPECT_NE(src.find(def.name), std::string::npos);
    }
  }
  // The f32 SIMD backends must carry the Newton-Raphson-refined rsqrt, not
  // the raw ~12-bit hardware approximation.
  const auto grav = asura::pikg::makeGravityProductionKernel();
  const std::string avx2 = asura::pikg::generateSoaKernel(grav, asura::pikg::Isa::Avx2);
  EXPECT_NE(avx2.find("_mm256_rsqrt_ps"), std::string::npos);
  EXPECT_NE(avx2.find("_mm256_fnmadd_ps"), std::string::npos);  // NR step
  const std::string avx512 =
      asura::pikg::generateSoaKernel(grav, asura::pikg::Isa::Avx512);
  EXPECT_NE(avx512.find("_mm512_rsqrt14_ps"), std::string::npos);
  EXPECT_NE(avx512.find("_mm512_fnmadd_ps"), std::string::npos);
  // The SPH tables go through gathers (SIMD table lookup, §3.5).
  const std::string dens =
      asura::pikg::generateSoaKernel(asura::pikg::makeDensityKernel(),
                                     asura::pikg::Isa::Avx2);
  EXPECT_NE(dens.find("_mm256_i32gather_pd"), std::string::npos);
}

}  // namespace
