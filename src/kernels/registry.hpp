#pragma once
/// \file registry.hpp
/// \brief Runtime ISA dispatch for the PIKG-generated production kernels.
///
/// The build compiles one translation unit per ISA (scalar / AVX2 /
/// AVX-512, each with its own compiler flags — see CMakeLists.txt), so the
/// binary always contains every backend the toolchain can emit. This
/// registry picks the one to *execute*:
///
///   * `bestIsa()` probes the CPU (cpuid via __builtin_cpu_supports) and
///     reports the widest backend that is both compiled-in and runnable;
///   * `kernels(requested)` resolves a request (including Isa::Auto and
///     requests wider than the host supports, which clamp down) to a
///     KernelSet of function pointers;
///   * the per-pass GravityParams::isa / SphParams::isa (set through
///     SimulationConfig::gravity / sph) let a run pin a backend (conformance
///     tests, benchmarks) or leave Auto in production.
///
/// The generated scalar backend is always available and is the portable
/// fallback; GravityParams::Kernel::ScalarF64 remains the hand-written
/// double-precision conformance reference outside this registry.

#include "pikg/isa.hpp"
#include "pikg_kernels.hpp"

namespace asura::pikg {

/// Function-pointer set for one resolved ISA.
struct KernelSet {
  gen::GravFn grav = nullptr;    ///< mixed-F32 gravity group kernel
  gen::DensFn dens = nullptr;    ///< SPH density kernel sums (f64)
  gen::HydroFn hydro = nullptr;  ///< SPH hydro pair force (f64)
  Isa isa = Isa::Scalar;         ///< the backend these pointers belong to
  const char* name = "scalar";
};

/// Widest backend that is compiled in AND supported by the running CPU.
[[nodiscard]] Isa bestIsa();

/// Resolve a request: Auto -> bestIsa(); anything wider than bestIsa()
/// clamps down to it (a request can never select a backend the host cannot
/// execute).
[[nodiscard]] Isa resolveIsa(Isa requested);

/// Kernel set for a (resolved) request. Thread-safe, no allocation.
[[nodiscard]] const KernelSet& kernels(Isa requested = Isa::Auto);

}  // namespace asura::pikg
