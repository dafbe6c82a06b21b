// Timestep benchmark: the SN-blastwave scenario that collapses the
// conventional global-CFL step (paper §5.3), run three ways, plus a quiet
// control.
//
//   BM_SnBlastwaveGlobalCFL  — one shared step, the global CFL minimum;
//   BM_SnBlastwavePr2Margin  — power-of-two block steps with the original
//                              blanket margin (rung_safety 0.35, no limiter);
//   BM_SnBlastwaveLimiter    — block steps with the Saitoh–Makino limiter
//                              (rung_safety 0.8 on the CFL clock, mid-step
//                              wakes), the default scheme;
//   BM_QuietBall{GlobalStep,Limiter} — a warm pressure-supported ball where
//                              every criterion sits far above dt_global: the
//                              block scheme must take one sub-step, wake
//                              nobody and cost what the global step costs.
//
// Counters are sealed over the 5 dt_global of simulated time after the
// first step — for the blastwave the SN-driven phase after the injection
// step, the regime the limiter exists for. They are bitwise deterministic,
// independent of iteration and thread count. The timing loop then continues
// the same run one dt_global of simulated time per iteration, so the
// per-iteration time is the cost of a global step's worth of physics (in
// the decaying blast) and GlobalCFL over Limiter is the end-to-end speedup.
// The blastwave counters carry the force work (force_evals_per_Myr;
// active_evals_per_Myr counts the block schemes' active-set closing
// targets), the matched-error evidence (energy_drift_per_Myr) and the
// limiter's pair-gap invariant (max_pair_gap: the un-limited run reaches
// 6, the limiter holds 2).
//
// Record (Release build, one OpenMP width per record):
//   bench_timestep --benchmark_repetitions=5 \
//     --benchmark_report_aggregates_only=true \
//     --benchmark_format=json > BENCH_timestep.json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_context.hpp"
#include "core/simulation.hpp"
#include "../tests/ic_fixtures.hpp"  // shared ICs: bench == tested scenario

namespace {

using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::testing::blastwaveIc;
using asura::testing::gasBall;
using asura::testing::limiterGapExcess;

constexpr int kWindowDtGlobal = 5;  ///< counter window after the first step

SimulationConfig blastConfig() {
  SimulationConfig cfg;
  cfg.use_surrogate = false;  // conventional direct injection
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.sph.n_ngb = 32;
  cfg.gravity.theta = 0.6;
  cfg.feedback_radius = 1.0;
  return cfg;
}

SimulationConfig blockConfig(bool limiter) {
  SimulationConfig cfg = blastConfig();
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 10;
  cfg.timestep_limiter = limiter;
  // Without the limiter a blanket margin buys the drift parity; with it the
  // limiter carries parity and the CFL half relaxes to the default.
  cfg.rung_safety = limiter ? 0.8 : 0.35;
  return cfg;
}

double totalEnergy(const Simulation& sim) { return sim.energyReport().total(); }

void runBlastwave(benchmark::State& state, const SimulationConfig& cfg) {
  const int n = static_cast<int>(state.range(0));
  Simulation sim(blastwaveIc(n, 77), cfg);
  sim.step();  // SN identified + injected at the first full-step boundary

  const double e0 = totalEnergy(sim);
  const double t0 = sim.time();
  // A block step advances exactly dt_global; the guard keeps rounding in the
  // summed clock from adding a step to the window.
  const double t_end = t0 + kWindowDtGlobal * cfg.dt_global - 1e-9 * cfg.dt_global;
  std::uint64_t evals = 0, active_evals = 0;
  int wakes = 0, promos = 0, max_gap = 0, substeps = 0;
  while (sim.time() < t_end) {
    const auto st = sim.step();
    evals += st.force_evaluations;
    for (const auto e : st.rung_force_evals) active_evals += e;
    wakes += st.limiter_wakes;
    promos += st.limiter_sync_promotions;
    substeps += st.substeps;  // a global step is one rung-0 sub-step
    max_gap = std::max(max_gap, limiterGapExcess(sim.particles()));
  }
  const double window_myr = sim.time() - t0;
  const double drift = std::abs(totalEnergy(sim) - e0) / std::abs(e0);

  state.counters["force_evals_per_Myr"] = static_cast<double>(evals) / window_myr;
  if (cfg.hierarchical_timestep) {
    state.counters["active_evals_per_Myr"] =
        static_cast<double>(active_evals) / window_myr;
  }
  // The schemes take different step counts, so the matched-error comparison
  // is the rate: relative drift per simulated Myr.
  state.counters["energy_drift_per_Myr"] = drift / window_myr;
  state.counters["limiter_wakes"] = wakes;
  state.counters["limiter_sync_promotions"] = promos;
  state.counters["max_pair_gap"] = max_gap;
  state.counters["substeps_per_dtglobal"] = substeps / (window_myr / cfg.dt_global);

  for (auto _ : state) {
    const double t_target = sim.time() + cfg.dt_global;
    while (sim.time() < t_target) sim.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_SnBlastwaveGlobalCFL(benchmark::State& state) {
  SimulationConfig cfg = blastConfig();
  cfg.adaptive_timestep = true;  // global shared CFL minimum (baseline)
  runBlastwave(state, cfg);
}
BENCHMARK(BM_SnBlastwaveGlobalCFL)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_SnBlastwavePr2Margin(benchmark::State& state) {
  runBlastwave(state, blockConfig(/*limiter=*/false));
}
BENCHMARK(BM_SnBlastwavePr2Margin)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_SnBlastwaveLimiter(benchmark::State& state) {
  runBlastwave(state, blockConfig(/*limiter=*/true));
}
BENCHMARK(BM_SnBlastwaveLimiter)->Arg(8000)->Unit(benchmark::kMillisecond);

void runQuiet(benchmark::State& state, const SimulationConfig& cfg) {
  const int n = static_cast<int>(state.range(0));
  Simulation sim(gasBall(n, 25.0, 0.02, 7, 8000.0), cfg);
  sim.step();
  // Sealed over the same window as the blastwave's, so the counters do not
  // depend on the iteration count. Every quiet step is one dt_global.
  const double t0 = sim.time();
  std::uint64_t evals = 0;
  int wakes = 0, substeps = 0;
  for (int s = 0; s < kWindowDtGlobal; ++s) {
    const auto st = sim.step();
    evals += st.force_evaluations;
    wakes += st.limiter_wakes;
    substeps += st.substeps;
  }
  state.counters["force_evals_per_Myr"] = static_cast<double>(evals) / (sim.time() - t0);
  state.counters["limiter_wakes"] = wakes;
  state.counters["substeps_per_step"] = static_cast<double>(substeps) / kWindowDtGlobal;

  for (auto _ : state) sim.step();
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_QuietBallGlobalStep(benchmark::State& state) { runQuiet(state, blastConfig()); }
BENCHMARK(BM_QuietBallGlobalStep)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_QuietBallLimiter(benchmark::State& state) {
  runQuiet(state, blockConfig(/*limiter=*/true));
}
BENCHMARK(BM_QuietBallLimiter)->Arg(8000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Banner goes to stderr so `--benchmark_format=json > BENCH_*.json`
  // captures a clean machine-readable stream on stdout.
  std::fprintf(stderr,
               "timestep benchmark — blastwave counters are sealed over the 5 "
               "dt_global after the SN;\none iteration is one dt_global (0.002 Myr) "
               "of simulated time.\n\n");
  benchmark::AddCustomContext("build_type", asura::bench::kBuildType);
  benchmark::AddCustomContext("omp_threads", std::to_string(asura::bench::ompThreads()));
  // No ReportUnrecognizedArguments: older libraries reject CI's
  // --benchmark_min_time=0.01s suffix, and the smoke must still run there.
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
