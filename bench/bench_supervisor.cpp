// Supervisor overhead benchmark: what does self-healing cost when nothing
// goes wrong? Three measurements:
//
//   BM_RingSnapshotPush        — one in-memory ring push (serializeState +
//                                CRC-32), the per-interval unit cost;
//   BM_RawStepLoop             — the unsupervised kLoopSteps-step loop on
//                                the calling thread (baseline);
//   BM_SupervisedStepLoop      — the loop under the Supervisor at snapshot
//                                intervals 1 and 10 (watchdog on).
//
// kLoopSteps = 40 lets interval 10 take four pushes after the one at
// attempt start, so the record shows the cadence and not the set-up.
//
// The ring push is memory-bandwidth bound (SetBytesProcessed reports the
// serialized state size). Cluster::run runs rank 0 on the calling thread, so
// the supervised loop shares the raw loop's thread and OpenMP team.
// Measured (BENCH_supervisor.json, 1,000 particles, OpenMP 4, shared 4-vCPU
// VM at load ~3): a 1.25 ms push and a raw loop of 202 ms; supervised, 201 ms
// at interval 10 and 255 ms at interval 1. Interval 1's extra ~53 ms is its
// 41 pushes; at interval 10 the Supervisor is inside the raw loop's spread
// (stddev 17 ms). A second recording read 209 / 217 / 256 ms.
//
//   ./build/bench_supervisor --benchmark_repetitions=5 \
//     --benchmark_report_aggregates_only=true \
//     --benchmark_format=json > BENCH_supervisor.json

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_context.hpp"
#include "comm/comm.hpp"
#include "core/simulation.hpp"
#include "core/supervisor.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::core::Supervisor;
using asura::core::SupervisorConfig;
using asura::fdps::Particle;

/// Steps per timed loop, raw and supervised.
constexpr long kLoopSteps = 40;

SimulationConfig benchConfig() {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 24;
  cfg.dt_global = 0.005;
  return cfg;
}

std::vector<Particle> benchIc(int n) {
  asura::util::Pcg32 rng(2025);
  std::vector<Particle> parts;
  parts.reserve(static_cast<std::size_t>(n));
  const double radius = 10.0;
  for (int i = 0; i < n; ++i) {
    Particle p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.type = asura::fdps::Species::Gas;
    p.mass = 1.0;
    p.pos = {rng.uniform(-radius, radius), rng.uniform(-radius, radius),
             rng.uniform(-radius, radius)};
    p.u = asura::units::temperature_to_u(3000.0, 1.27);
    p.h = 1.0;
    p.eps = 0.2;
    parts.push_back(p);
  }
  return parts;
}

void BM_RingSnapshotPush(benchmark::State& state) {
  const auto ic = benchIc(static_cast<int>(state.range(0)));
  Simulation sim(ic, benchConfig());
  sim.step();  // realistic state: caches warm, accumulators non-trivial
  std::size_t bytes = 0;
  for (auto _ : state) {
    asura::io::ByteWriter w;
    sim.serializeState(w);
    const auto& blob = w.bytes();
    const auto crc = asura::io::crc32(blob.data(), blob.size());
    benchmark::DoNotOptimize(crc);
    bytes = blob.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingSnapshotPush)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_RawStepLoop(benchmark::State& state) {
  const auto ic = benchIc(static_cast<int>(state.range(0)));
  const auto cfg = benchConfig();
  for (auto _ : state) {
    Simulation sim(ic, cfg);
    for (long s = 0; s < kLoopSteps; ++s) sim.step();
    benchmark::DoNotOptimize(sim.time());
  }
  state.counters["steps"] = kLoopSteps;
}
BENCHMARK(BM_RawStepLoop)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_SupervisedStepLoop(benchmark::State& state) {
  const auto ic = benchIc(static_cast<int>(state.range(0)));
  const auto cfg = benchConfig();
  Cluster cluster(1);
  SupervisorConfig scfg;
  scfg.snapshot_interval = state.range(1);
  for (auto _ : state) {
    Supervisor sup(cluster, scfg);
    const auto rep = sup.run(
        kLoopSteps, cfg, [&ic](Comm&, const asura::core::AttemptPlan& plan) {
          return std::make_unique<Simulation>(ic, plan.cfg);
        });
    if (!rep.completed) state.SkipWithError("supervised run failed");
    benchmark::DoNotOptimize(rep.final_step);
  }
  state.counters["steps"] = kLoopSteps;
  state.counters["snapshot_interval"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_SupervisedStepLoop)
    ->Args({1000, 1})
    ->Args({1000, 10})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Versioned context: downstream tooling keys JSON records on these instead
// of guessing from field shapes. Bump the schema on field-meaning changes,
// the fixture when the IC generator or configs move (numbers stop being
// comparable across fixture versions).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("schema_version", "asura-bench-2");
  benchmark::AddCustomContext("fixture_version", "supervisor-gasball-2");
  benchmark::AddCustomContext("build_type", asura::bench::kBuildType);
  benchmark::AddCustomContext("omp_threads", std::to_string(asura::bench::ompThreads()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
