// Once-per-pass tree pipeline benchmark: radix-sorted parallel build vs the
// seed's comparator-based std::sort build, Morton target grouping with
// precomputed keys vs the key-recomputing comparator, tree walks, and the
// end-to-end Simulation::step with the StepContext cache (tree-build counter
// reported alongside).
//
// Machine-readable output for the perf trajectory:
//   bench_tree_pipeline --benchmark_format=json > BENCH_tree_pipeline.json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/simulation.hpp"
#include "fdps/morton.hpp"
#include "fdps/tree.hpp"
#include "gravity/gravity.hpp"
#include "sph/sph.hpp"
#include "util/rng.hpp"

namespace {

using asura::fdps::Box;
using asura::fdps::Particle;
using asura::fdps::SourceEntry;
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
// Reference: the seed's build algorithm (comparator-based indirect std::sort
// + per-node recursive moment summation), kept here so the speedup stays
// measurable after the production code moved on.
// ---------------------------------------------------------------------------

struct LegacyTree {
  std::vector<SourceEntry> entries;
  std::vector<std::uint64_t> keys;
  struct Node {
    Box bbox;
    double mass = 0.0;
    Vec3d com{};
    std::uint32_t first = 0, count = 0;
  };
  std::vector<Node> nodes;

  void build(std::vector<SourceEntry> in, int leaf_size) {
    entries = std::move(in);
    nodes.clear();
    keys.clear();
    if (entries.empty()) return;
    Box all;
    for (const auto& e : entries) all.extend(e.pos);
    const Box cube = all.boundingCube();
    keys.resize(entries.size());
    std::vector<std::uint32_t> order(entries.size());
    std::iota(order.begin(), order.end(), 0u);
    std::vector<std::uint64_t> raw(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      raw[i] = asura::fdps::mortonKey(entries[i].pos, cube);
    }
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return raw[a] < raw[b] || (raw[a] == raw[b] && a < b);
    });
    std::vector<SourceEntry> sorted(entries.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      sorted[i] = entries[order[i]];
      keys[i] = raw[order[i]];
    }
    entries = std::move(sorted);
    buildNode(0, static_cast<std::uint32_t>(entries.size()), 0, std::max(leaf_size, 1));
  }

  void buildNode(std::uint32_t first, std::uint32_t count, int level, int leaf_size) {
    Node n;
    n.first = first;
    n.count = count;
    // Seed behaviour: every node re-sums its whole entry range (O(N depth)).
    for (std::uint32_t i = first; i < first + count; ++i) {
      n.bbox.extend(entries[i].pos);
      n.mass += entries[i].mass;
      n.com += entries[i].mass * entries[i].pos;
    }
    if (n.mass > 0.0) n.com /= n.mass;
    nodes.push_back(n);
    if (static_cast<int>(count) <= leaf_size || level >= asura::fdps::kMortonMaxLevel) {
      return;
    }
    std::uint32_t pos = first;
    for (unsigned oct = 0; oct < 8; ++oct) {
      const std::uint32_t cf = pos;
      while (pos < first + count &&
             asura::fdps::octantAtLevel(keys[pos], level) == oct) {
        ++pos;
      }
      if (pos > cf) buildNode(cf, pos - cf, level + 1, leaf_size);
    }
  }
};

// ---------------------------------------------------------------------------
// Tree build
// ---------------------------------------------------------------------------

void BM_TreeBuildLegacyStdSort(benchmark::State& state) {
  const auto parts = randomParticles(static_cast<int>(state.range(0)), 42);
  const auto entries = asura::fdps::makeSourceEntries(parts);
  LegacyTree tree;
  for (auto _ : state) {
    auto copy = entries;
    tree.build(std::move(copy), 16);
    benchmark::DoNotOptimize(tree.nodes.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeBuildLegacyStdSort)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

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

void BM_TargetGroupsLegacyComparator(benchmark::State& state) {
  const auto parts = randomParticles(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    // Seed behaviour: mortonKey re-derived inside the comparator.
    std::vector<std::uint32_t> sel(parts.size());
    std::iota(sel.begin(), sel.end(), 0u);
    Box all;
    for (const auto& p : parts) all.extend(p.pos);
    const Box cube = all.boundingCube();
    std::sort(sel.begin(), sel.end(), [&](std::uint32_t a, std::uint32_t b) {
      return asura::fdps::mortonKey(parts[a].pos, cube) <
             asura::fdps::mortonKey(parts[b].pos, cube);
    });
    benchmark::DoNotOptimize(sel.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TargetGroupsLegacyComparator)->Arg(100000)->Unit(benchmark::kMillisecond);

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
