#pragma once
/// \file dsl.hpp
/// \brief Mini-PIKG: particle-interaction kernel generator (paper §3.5).
///
/// PIKG "takes the high-level description of interaction kernels written in
/// a simple DSL and generates code in many different forms, including
/// intrinsics for the ARM SVE architecture". This reimplementation keeps the
/// same pipeline on the architectures available here:
///
///   KernelDef (a small SSA-form DSL)  --->  C++ scalar code
///                                     --->  AVX2 intrinsics code
///                                     --->  AVX-512 intrinsics code
///
/// Generated code includes the two PIKG transformations relevant off-A64FX:
/// (1) a structure-of-arrays layout of the target/source arrays, and (2) SIMD
/// loops vectorized across sources with broadcast targets (j-vectorized,
/// matching the group-shared interaction lists). (The paper's loop fission
/// is an A64FX-register-pressure workaround and is recorded in comments
/// only.)
///
/// The kernels (makeGravityProductionKernel / makeDensityKernel /
/// makeHydroForceKernel) are emitted as flat-SoA-pointer functions into one
/// shared header plus one translation unit per ISA, so the build can compile
/// each TU with its own ISA flags and the runtime registry
/// (kernels/registry.hpp) can dispatch on cpuid. SPH kernel functions W/dW
/// are evaluated through the `table` op: a piecewise-polynomial table
/// (pikg::PiecewisePolynomial, §3.5) looked up by subdomain and evaluated
/// with a Horner chain — a SIMD gather per polynomial order.
///
/// Generation happens at build time: the `pikg_gen` tool writes the kernel
/// file set (pikg_kernels.hpp + pikg_kernels_{scalar,avx2,avx512}.cpp).
/// Output is deterministic: running the generator twice yields
/// byte-identical files.

#include <string>
#include <vector>

#include "pikg/isa.hpp"

namespace asura::pikg {

/// One SSA statement: dst = op(a, b, c). Operand strings name previously
/// defined variables, loaded fields (`<field>_i` / `<field>_j`), uniforms,
/// or, where a literal is allowed, a floating-point literal.
///
/// Ops:
///   const          dst = literal(a)
///   add sub mul div max min        dst = a (op) b
///   fma            dst = a * b + c
///   sqrt           dst = sqrt(a)
///   rsqrt          dst = 1/sqrt(a)   (f32 SIMD: hardware approximation +
///                  one Newton-Raphson step — raw rsqrtps is ~12-bit and
///                  would blow the mixed-F32 error budget)
///   gt lt          dst = mask(a > b) / mask(a < b)
///   select         dst = mask(a) ? b : c
///   table          dst = eval(table named a, at operand b); the table is a
///                  runtime pointer parameter, its shape (subdomains,
///                  degree, domain) comes from KernelDef::tables
///   dtable         dst = d/dx eval(table named a, at operand b) — the
///                  derivative of the same polynomial piece (exact for the
///                  polynomial-exact production fits); a table/dtable pair
///                  on the same operand shares one subdomain lookup and one
///                  set of coefficient gathers
struct Stmt {
  std::string dst;
  std::string op;
  std::string a;
  std::string b;
  std::string c;
};

/// Accumulation into a force field per j-particle:
///   '+' : force.<field> += var
///   '-' : force.<field> -= var
///   'x' : force.<field> = max(force.<field>, var)   (signal-velocity style)
struct Accum {
  std::string field;
  std::string var;
  char sign = '+';
};

/// Shape of a runtime piecewise-polynomial table parameter (the coefficient
/// pointer is passed to the generated function at runtime; see
/// `sphTables()` in the generated header for the fitted production tables).
struct TableSpec {
  std::string name;
  double lo = 0.0;
  double hi = 1.0;
  int subdomains = 16;
  int degree = 5;
};

/// Interaction kernel description.
struct KernelDef {
  std::string name;                ///< e.g. "grav" -> functions grav_{scalar,avx2,avx512}
  std::vector<std::string> epi;    ///< per-target fields
  std::vector<std::string> epj;    ///< per-source fields
  std::vector<std::string> force;  ///< output fields
  std::vector<Stmt> body;          ///< executed per (i, j) pair
  std::vector<Accum> accum;
  int flops_per_interaction = 0;   ///< Table 4 convention for this kernel

  /// Arithmetic precision of the pair loop.
  enum class Prec { F32, F64 } prec = Prec::F32;
  /// F32 kernels only: accumulate the inner loop in f32 but expose the
  /// force outputs as f64 arrays (the paper's mixed-precision reduction,
  /// §4.3 — per-group relative coordinates in single, global sums in
  /// double).
  bool f64_accum = false;
  /// Runtime scalar parameters appended to the signature (broadcast
  /// constants in SIMD code), referenced by plain name in the body.
  std::vector<std::string> uniforms;
  /// Runtime table parameters (see TableSpec).
  std::vector<TableSpec> tables;
};

/// Production kernels (SoA, vectorized across sources — the layouts of the
/// hand-written hot loops they replace):
///  * gravity: mixed-precision group kernel (f32 arithmetic on
///    centre-relative coordinates, f64 accumulators, branch-free self mask);
///  * density: kernel sums (rho, div v, curl v) over a pre-selected
///    neighbour list with W/dW from PPA tables;
///  * hydro force: symmetrized-gradient momentum/energy pair force with
///    Monaghan viscosity, Balsara switch and signal-velocity max-reduction.
KernelDef makeGravityProductionKernel();
KernelDef makeDensityKernel();
KernelDef makeHydroForceKernel();

/// Production emitters: one flat-SoA-pointer function per (kernel, ISA).
/// Signature order: (int ni, <epi ptrs>, int nj, <epj ptrs>, <table ptrs>,
/// <uniform scalars>, <force accumulator ptrs>). `isa` must not be Auto.
std::string generateSoaKernel(const KernelDef& def, Isa isa);
std::string generateSoaDeclaration(const KernelDef& def, Isa isa);

/// One generated output file (name is relative to the output directory).
struct GeneratedFile {
  std::string name;
  std::string content;
};

/// The full build-time output set: the shared header and one translation
/// unit per ISA (with the fitted SPH W/dW tables for both kernel types
/// embedded as hexfloat constants).
/// Deterministic: equal input state yields byte-identical output.
std::vector<GeneratedFile> generateProductionFiles();

/// Basic validity checks (SSA, operand resolution, mask/table typing);
/// throws on error.
void validate(const KernelDef& def);

}  // namespace asura::pikg
