// Once-per-pass tree pipeline benchmark: the radix-sorted parallel tree
// build, Morton target grouping with precomputed keys, tree walks, and the
// end-to-end Simulation::step with the StepContext cache (tree-build counter
// reported alongside). The seed's comparator-based build and grouping
// baselines were deleted once CHANGES.md recorded the speedups over them.
//
// Machine-readable output for the perf trajectory:
//   bench_tree_pipeline --benchmark_format=json > BENCH_tree_pipeline.json

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "core/simulation.hpp"
#include "fdps/tree.hpp"
#include "gravity/gravity.hpp"
#include "sph/sph.hpp"
#include "util/rng.hpp"

namespace {

using asura::fdps::Particle;
using asura::fdps::SourceTree;
using asura::fdps::Species;
using asura::util::Pcg32;
using asura::util::Vec3d;

std::vector<Particle> randomParticles(int n, std::uint64_t seed, double box = 100.0) {
  Pcg32 rng(seed);
  std::vector<Particle> parts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& p = parts[static_cast<std::size_t>(i)];
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.mass = rng.uniform(0.5, 1.5);
    p.pos = {rng.uniform(-box, box), rng.uniform(-box, box), rng.uniform(-box, box)};
    p.vel = {rng.normal(), rng.normal(), rng.normal()};
    p.eps = 0.1;
    p.h = 3.0;
    p.u = 50.0;
    p.type = (i % 3 == 0) ? Species::Gas : Species::DarkMatter;
  }
  return parts;
}

// ---------------------------------------------------------------------------
// Tree build
// ---------------------------------------------------------------------------

void BM_TreeBuildRadix(benchmark::State& state) {
  const auto parts = randomParticles(static_cast<int>(state.range(0)), 42);
  const auto entries = asura::fdps::makeSourceEntries(parts);
  SourceTree tree;
  for (auto _ : state) {
    auto copy = entries;
    tree.build(std::move(copy), 16);
    benchmark::DoNotOptimize(tree.nodes().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeBuildRadix)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Target grouping
// ---------------------------------------------------------------------------

void BM_TargetGroupsRadix(benchmark::State& state) {
  const auto parts = randomParticles(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    auto groups =
        asura::fdps::makeTargetGroups(parts, asura::fdps::targetIndices(parts), 64);
    benchmark::DoNotOptimize(groups.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TargetGroupsRadix)->Arg(100000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Walk + kernel (per force evaluation), fresh build vs cached context
// ---------------------------------------------------------------------------

void BM_GravityFreshBuildPerCall(benchmark::State& state) {
  auto parts = randomParticles(static_cast<int>(state.range(0)), 3);
  const auto all = asura::fdps::targetIndices(parts);
  asura::gravity::GravityParams gp;
  for (auto _ : state) {
    for (auto& p : parts) { p.acc = Vec3d{}; p.pot = 0.0; }
    asura::fdps::StepContext ctx;  // fresh per call: tree + groups rebuilt
    const auto stats = asura::gravity::accumulateTreeGravity(ctx, parts, {}, all, gp);
    benchmark::DoNotOptimize(stats.ep_interactions);
  }
}
BENCHMARK(BM_GravityFreshBuildPerCall)->Arg(30000)->Unit(benchmark::kMillisecond);

void BM_GravityCachedContext(benchmark::State& state) {
  auto parts = randomParticles(static_cast<int>(state.range(0)), 3);
  const auto all = asura::fdps::targetIndices(parts);
  asura::gravity::GravityParams gp;
  asura::fdps::StepContext ctx;
  for (auto _ : state) {
    for (auto& p : parts) { p.acc = Vec3d{}; p.pot = 0.0; }
    const auto stats = asura::gravity::accumulateTreeGravity(ctx, parts, {}, all, gp);
    benchmark::DoNotOptimize(stats.ep_interactions);
  }
  state.counters["tree_builds"] =
      static_cast<double>(ctx.totalBuilds());  // 1 expected across all iterations
}
BENCHMARK(BM_GravityCachedContext)->Arg(30000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// End-to-end Simulation::step with the once-per-pass pipeline
// ---------------------------------------------------------------------------

void BM_SimulationStep(benchmark::State& state) {
  auto parts = randomParticles(static_cast<int>(state.range(0)), 99, 50.0);
  asura::core::SimulationConfig cfg;
  cfg.use_surrogate = false;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = true;
  asura::core::Simulation sim(parts, cfg);
  sim.step();  // warm the pipeline
  int builds = 0;
  for (auto _ : state) {
    const auto stats = sim.step();
    builds = stats.tree_builds;
    benchmark::DoNotOptimize(stats.dt_used);
  }
  state.counters["tree_builds_per_step"] = builds;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationStep)->Arg(8000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Banner goes to stderr so `--benchmark_format=json > BENCH_*.json`
  // captures a clean machine-readable stream on stdout.
  std::fprintf(stderr,
               "tree-pipeline benchmark — pass --benchmark_format=json for the\n"
               "machine-readable record (BENCH_*.json convention).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
