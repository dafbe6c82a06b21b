// Distributed step-driver benchmark: a multi-rank MW-mini window stepped
// over the in-process SPMD cluster with the cached LET/ghost exchange
// (global and hierarchical timesteps), plus an SN-storm window comparing the
// work-weighted Morton-segment decomposition against the equal-count
// rectilinear split. BENCH_distributed_step.json also keeps the recorded
// exchange-every-pass baseline rows this bench no longer runs; keep them
// when regenerating. The headline counters: exportLet walks per step (P-1,
// exactly one exchange reused by the second pass and every sub-step), comm
// bytes per step, and — for the storm — the per-rank compute-time imbalance
// work_imbalance = mean over timed steps of rank_work_max / rank_work_mean.
//
//   ./build/bench_distributed_step --benchmark_format=json > BENCH_distributed_step.json
//
// JSON schema_version 2: adds work_imbalance, step_seconds_max/mean,
// rebalances_window, let_value_refreshes_per_step and the BM_SnStorm*
// benchmarks to the v1 record.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "../tests/ic_fixtures.hpp"
#include "comm/comm.hpp"
#include "core/distributed.hpp"
#include "core/simulation.hpp"
#include "galaxy/galaxy.hpp"
#include "util/timer.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::core::blockPartition;
using asura::core::DistributedConfig;
using asura::core::DistributedEngine;
using asura::core::Simulation;
using asura::core::SimulationConfig;

constexpr int kRanks = 8;
constexpr int kWarmSteps = 1;
constexpr int kTimedSteps = 4;

SimulationConfig stepConfig(bool hierarchical) {
  SimulationConfig cfg;
  cfg.use_surrogate = true;
  cfg.n_pool_nodes = 1;
  cfg.enable_star_formation = false;  // keep the window count-stable
  cfg.enable_cooling = true;
  cfg.hierarchical_timestep = hierarchical;
  cfg.max_rung = 6;
  return cfg;
}

/// SN-storm configuration: direct thermal feedback (no surrogate) drives the
/// clump to deep rungs, so nearly all closing-kick work concentrates in the
/// clump's owner ranks — the load-imbalance scenario the weighted
/// decomposition exists to fix.
SimulationConfig stormConfig() {
  SimulationConfig cfg;
  cfg.use_surrogate = false;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = true;
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 6;
  cfg.dt_global = 0.005;
  return cfg;
}

struct WindowResult {
  double seconds = 0.0;  ///< wall clock of the timed steps (max over ranks)
  double seconds_mean = 0.0;  ///< mean over ranks of the same window
  double walks_per_step = 0.0;
  double let_exchanges_per_step = 0.0;
  double ghost_exchanges_per_step = 0.0;
  double value_refreshes_per_step = 0.0;
  double let_value_refreshes_per_step = 0.0;
  double bytes_per_step = 0.0;
  double substeps_per_step = 0.0;
  double reach_retries = 0.0;
  /// Exchange-phase wall clock per step (1st+2nd Exchange_LET categories,
  /// max over ranks): the cost the cache actually amortizes — "the most
  /// time-consuming part with the full system of Fugaku" (§5.2.3).
  double exchange_seconds_per_step = 0.0;
  /// Mean over timed steps of rank_work_max / rank_work_mean: the realized
  /// per-rank compute-time imbalance (1.0 = perfectly balanced). Wall-based
  /// — noisy when the in-process ranks share cores.
  double work_imbalance = 0.0;
  /// Mean over timed steps of rank_evals_max / rank_evals_mean: the
  /// deterministic per-rank force-evaluation imbalance (the ISSUE 10
  /// acceptance metric — scheduler-noise free).
  double eval_imbalance = 0.0;
  double rebalances = 0.0;  ///< maintain() reassignments over the window
};

WindowResult runWindow(const std::vector<asura::fdps::Particle>& ic,
                       const SimulationConfig& cfg, DistributedConfig dcfg,
                       int warm_steps, int timed_steps) {
  Cluster cluster(kRanks);
  WindowResult out;
  std::atomic<long> walks{0}, lets{0}, ghosts{0}, refreshes{0}, let_refreshes{0},
      substeps{0}, retries{0}, rebalances{0};
  std::atomic<double> seconds{0.0};
  std::atomic<double> exchange_seconds{0.0};
  std::atomic<double> seconds_sum{0.0};
  std::atomic<double> imbalance_sum{0.0};
  std::atomic<double> eval_imbalance_sum{0.0};
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), kRanks), cfg);
    sim.attachDistributed(std::make_unique<DistributedEngine>(comm, dcfg));
    for (int s = 0; s < warm_steps; ++s) sim.step();
    const double let_warm = sim.timers().total("1st Exchange_LET") +
                            sim.timers().total("2nd Exchange_LET");
    comm.barrier();
    if (comm.rank() == 0) cluster.resetTraffic();
    comm.barrier();
    const double t0 = asura::util::wtime();
    long my_walks = 0, my_lets = 0, my_ghosts = 0, my_refreshes = 0,
         my_let_refreshes = 0, my_sub = 0, my_retries = 0, my_rebalances = 0;
    double my_imbalance = 0.0, my_eval_imbalance = 0.0;
    for (int s = 0; s < timed_steps; ++s) {
      const auto st = sim.step();
      my_walks += st.let_export_walks;
      my_lets += st.let_exchanges;
      my_ghosts += st.ghost_exchanges;
      my_refreshes += st.ghost_value_refreshes;
      my_let_refreshes += st.let_value_refreshes;
      my_sub += st.substeps;
      my_retries += st.reach_retries;
      my_rebalances += st.rebalances;
      if (st.rank_work_mean > 0.0) {
        my_imbalance += st.rank_work_max / st.rank_work_mean;
      }
      if (st.rank_evals_mean > 0.0) {
        my_eval_imbalance += st.rank_evals_max / st.rank_evals_mean;
      }
    }
    comm.barrier();
    const double dt = asura::util::wtime() - t0;
    double expected = seconds.load();
    while (expected < dt && !seconds.compare_exchange_weak(expected, dt)) {
    }
    double sum = seconds_sum.load();
    while (!seconds_sum.compare_exchange_weak(sum, sum + dt)) {
    }
    const double let_s = sim.timers().total("1st Exchange_LET") +
                         sim.timers().total("2nd Exchange_LET") - let_warm;
    double exp_let = exchange_seconds.load();
    while (exp_let < let_s &&
           !exchange_seconds.compare_exchange_weak(exp_let, let_s)) {
    }
    if (comm.rank() == 0) {
      walks += my_walks;
      lets += my_lets;
      ghosts += my_ghosts;
      refreshes += my_refreshes;
      let_refreshes += my_let_refreshes;
      substeps += my_sub;
      retries += my_retries;
      rebalances += my_rebalances;
      // rank_work_max/mean are allgathered inside step(), so rank 0's view
      // is already the cluster-wide imbalance.
      double imb = imbalance_sum.load();
      while (!imbalance_sum.compare_exchange_weak(imb, imb + my_imbalance)) {
      }
      double eimb = eval_imbalance_sum.load();
      while (!eval_imbalance_sum.compare_exchange_weak(
          eimb, eimb + my_eval_imbalance)) {
      }
    }
  });
  const double steps = static_cast<double>(timed_steps);
  out.seconds = seconds.load();
  out.seconds_mean = seconds_sum.load() / kRanks;
  out.walks_per_step = static_cast<double>(walks.load()) / steps;
  out.let_exchanges_per_step = static_cast<double>(lets.load()) / steps;
  out.ghost_exchanges_per_step = static_cast<double>(ghosts.load()) / steps;
  out.value_refreshes_per_step = static_cast<double>(refreshes.load()) / steps;
  out.let_value_refreshes_per_step =
      static_cast<double>(let_refreshes.load()) / steps;
  out.bytes_per_step = static_cast<double>(cluster.traffic().bytes) / steps;
  out.substeps_per_step = static_cast<double>(substeps.load()) / steps;
  out.reach_retries = static_cast<double>(retries.load());
  out.exchange_seconds_per_step = exchange_seconds.load() / steps;
  out.work_imbalance = imbalance_sum.load() / steps;
  out.eval_imbalance = eval_imbalance_sum.load() / steps;
  out.rebalances = static_cast<double>(rebalances.load());
  return out;
}

std::vector<asura::fdps::Particle> miniGalaxy(int n) {
  asura::galaxy::IcCounts counts;
  counts.n_dm = static_cast<std::size_t>(n) * 3 / 8;
  counts.n_star = static_cast<std::size_t>(n) / 4;
  counts.n_gas = static_cast<std::size_t>(n) * 3 / 8;
  counts.seed = 20260728;
  return asura::galaxy::generateGalaxy(asura::galaxy::GalaxyModel::milkyWayMini(),
                                       counts);
}

void setCounters(benchmark::State& state, const WindowResult& last) {
  state.counters["export_walks_per_step"] = last.walks_per_step;
  state.counters["let_exchanges_per_step"] = last.let_exchanges_per_step;
  state.counters["ghost_exchanges_per_step"] = last.ghost_exchanges_per_step;
  state.counters["ghost_value_refreshes_per_step"] = last.value_refreshes_per_step;
  state.counters["let_value_refreshes_per_step"] =
      last.let_value_refreshes_per_step;
  state.counters["comm_bytes_per_step"] = last.bytes_per_step;
  state.counters["substeps_per_step"] = last.substeps_per_step;
  state.counters["reach_retries_window"] = last.reach_retries;
  state.counters["exchange_ms_per_step"] = 1e3 * last.exchange_seconds_per_step;
  state.counters["work_imbalance"] = last.work_imbalance;
  state.counters["eval_imbalance"] = last.eval_imbalance;
  state.counters["rebalances_window"] = last.rebalances;
  state.counters["step_seconds_max"] = last.seconds;
  state.counters["step_seconds_mean"] = last.seconds_mean;
}

void runBench(benchmark::State& state, bool hierarchical) {
  const auto ic = miniGalaxy(static_cast<int>(state.range(0)));
  DistributedConfig dcfg;
  dcfg.skin = 5.0;  // pc: MW-mini disc speeds cover several steps
  WindowResult last;
  for (auto _ : state) {
    last = runWindow(ic, stepConfig(hierarchical), dcfg, kWarmSteps, kTimedSteps);
    state.SetIterationTime(last.seconds / kTimedSteps);
  }
  setCounters(state, last);
  state.SetItemsProcessed(state.iterations() * state.range(0) * kTimedSteps);
}

/// SN-storm window: staggered SNe in a dense off-centre clump, weighted vs
/// equal-count decomposition. The warm steps let the storm fire and the
/// work counters accrue (and, in weighted mode, the first maintain()
/// rebalances land) before the timed window measures the realized
/// imbalance. ISSUE 10 acceptance: (imbalance - 1) of the weighted run is
/// at least 1.5x smaller than the equal-count run's.
void runStormBench(benchmark::State& state, bool weighted) {
  const auto ic = asura::testing::snStormIc(static_cast<int>(state.range(0)),
                                            20260808, /*n_sn=*/4);
  DistributedConfig dcfg;
  dcfg.skin = 1.0;
  dcfg.weighted_decomposition = weighted;
  if (weighted) {
    dcfg.decompose_interval = 0;  // decompose once, maintain thereafter
    dcfg.imbalance_threshold = 1.1;
  }
  WindowResult last;
  for (auto _ : state) {
    last = runWindow(ic, stormConfig(), dcfg, /*warm_steps=*/4, kTimedSteps);
    state.SetIterationTime(last.seconds / kTimedSteps);
  }
  setCounters(state, last);
  state.SetItemsProcessed(state.iterations() * state.range(0) * kTimedSteps);
}

void BM_DistStepCached(benchmark::State& state) { runBench(state, false); }
BENCHMARK(BM_DistStepCached)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(2);

void BM_DistStepCachedHierarchical(benchmark::State& state) { runBench(state, true); }
BENCHMARK(BM_DistStepCachedHierarchical)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(2);

void BM_SnStormWeighted(benchmark::State& state) { runStormBench(state, true); }
BENCHMARK(BM_SnStormWeighted)
    ->Arg(6000)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(2);

void BM_SnStormEqualCount(benchmark::State& state) {
  runStormBench(state, false);
}
BENCHMARK(BM_SnStormEqualCount)
    ->Arg(6000)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
  std::fprintf(stderr,
               "distributed step benchmark — %d in-process ranks over an "
               "MW-mini realization.\nDistStepCached*: export_walks_per_step "
               "is P-1 (one LET exchange, reused by the\n2nd pass and every "
               "sub-step).\nCompare SnStormWeighted vs SnStormEqualCount: "
               "work_imbalance is the per-rank\ncompute-time max/mean under "
               "a clustered SN storm.\nPass --benchmark_format=json for the "
               "machine-readable record.\n\n",
               kRanks);
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("schema_version", "2");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
