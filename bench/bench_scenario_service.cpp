// Scenario-service hosting benchmark.
//
// Measures what the multi-tenant layer is for: how much simulation the host
// delivers when many instances share one worker pool. Each of 1, 4 and 8
// concurrent instances runs kRuns times, each time on a fresh service, and
// the record gives the median and min-max over the runs of
//   - aggregate throughput (steps/s across the fleet),
//   - per-step latency p50 / p99 (from the service's per-instance latency
//     rings — the fairness quantum shows up here, not in throughput).
// The first run of each level verifies the hosting contract: every
// instance's final snapshot must be bitwise identical to an unhosted rerun
// of the same IC.
//
// Gate (non-smoke): median aggregate steps/s at 8 concurrent instances must
// be at least 3x the single-instance median — cooperative multi-tenancy has
// to actually scale, not just interleave. Exits non-zero on a gate or
// bitwise failure.
//
// Usage: bench_scenario_service [--smoke] [--out PATH]
//   --smoke    tiny fixture for CI: gates on bitwise correctness only (the
//              scaling ratio is machine-dependent).
//   --out      where to write the JSON record (default
//              BENCH_scenario_service.json in the current directory).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_context.hpp"
#include "core/simulation.hpp"
#include "io/serialize.hpp"
#include "service/scenario_service.hpp"
#include "util/rng.hpp"

namespace {

// Schema version for the JSON record: bump when field names/meaning change
// so downstream tooling can tell records apart. The fixture version pins
// the IC generator + config so throughput numbers stay comparable.
constexpr const char* kSchemaVersion = "asura-bench-3";
constexpr const char* kFixtureVersion = "scenario-fleet-2";
/// Runs per concurrency level: one short run's p99 rests on a few hundred
/// latencies and moved 2x between recordings of one build.
constexpr int kRuns = 5;

using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::fdps::Particle;
using asura::fdps::Species;
using asura::service::InstanceId;
using asura::service::ScenarioService;
using asura::service::ServiceConfig;
using asura::service::Snapshot;

std::vector<Particle> fleetIc(int n, int i) {
  asura::util::Pcg32 rng(0xBE7Cull + static_cast<std::uint64_t>(i));
  std::vector<Particle> parts;
  parts.reserve(static_cast<std::size_t>(n));
  const double radius = 5.0 + 0.2 * i;
  for (int k = 0; k < n; ++k) {
    Particle p;
    p.id = static_cast<std::uint64_t>(k + 1);
    p.type = Species::Gas;
    for (;;) {
      const double x = 2.0 * rng.uniform() - 1.0;
      const double y = 2.0 * rng.uniform() - 1.0;
      const double z = 2.0 * rng.uniform() - 1.0;
      if (x * x + y * y + z * z <= 1.0) {
        p.pos = {radius * x, radius * y, radius * z};
        break;
      }
    }
    p.vel = {-0.02 * p.pos.x, -0.02 * p.pos.y, -0.02 * p.pos.z};
    p.mass = 1.0;
    p.u = 120.0;
    p.h = 1.5;
    parts.push_back(p);
  }
  return parts;
}

SimulationConfig fleetConfig() {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 24;
  cfg.dt_global = 0.005;
  return cfg;
}

std::vector<char> soloBytes(int particles, int i, const SimulationConfig& cfg,
                            long steps) {
  Simulation sim(fleetIc(particles, i), cfg);
  for (long s = 0; s < steps; ++s) sim.step();
  asura::io::ByteWriter w;
  sim.serializeState(w);
  return w.take();
}

double nowSeconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * (static_cast<double>(v.size()) - 1.0);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

struct RunResult {
  double steps_per_s = 0.0;  ///< aggregate across the fleet
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool bitwise_ok = true;
};

/// Median and range of one quantity over a level's runs.
struct Spread {
  double median = 0.0, min = 0.0, max = 0.0;
};

Spread spread(const std::vector<double>& v) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return {percentile(v, 0.5), *lo, *hi};
}

struct LevelResult {
  int concurrency = 0;
  Spread steps_per_s, p50_ms, p99_ms;
  bool bitwise_ok = true;
};

RunResult runOnce(int concurrency, int particles, long steps, int workers,
                  const SimulationConfig& cfg, bool verify) {
  ServiceConfig scfg;
  scfg.n_workers = workers;
  scfg.step_budget = 4;
  scfg.snapshot_interval = 16;
  ScenarioService svc(scfg);

  std::vector<InstanceId> ids;
  for (int i = 0; i < concurrency; ++i) {
    ids.push_back(svc.create(
        {"fleet-" + std::to_string(i), fleetIc(particles, i), cfg, nullptr}));
  }

  const double t0 = nowSeconds();
  for (InstanceId id : ids) svc.start(id, steps);
  svc.waitIdle();
  const double wall = nowSeconds() - t0;

  RunResult r;
  r.steps_per_s = static_cast<double>(concurrency) * static_cast<double>(steps) / wall;

  std::vector<double> lat;
  for (InstanceId id : ids) {
    const auto l = svc.stepLatenciesMs(id);
    lat.insert(lat.end(), l.begin(), l.end());
  }
  r.p50_ms = percentile(lat, 0.50);
  r.p99_ms = percentile(lat, 0.99);

  if (verify) {
    for (int i = 0; i < concurrency; ++i) {
      const Snapshot snap = svc.latestSnapshot(ids[static_cast<std::size_t>(i)]);
      if (!snap.bytes || *snap.bytes != soloBytes(particles, i, cfg, steps)) {
        r.bitwise_ok = false;
      }
    }
  }
  return r;
}

/// kRuns runs of one level, each on a fresh service; the first verifies.
LevelResult runLevel(int concurrency, int particles, long steps, int workers,
                     const SimulationConfig& cfg) {
  std::vector<double> sps, p50, p99;
  LevelResult level;
  level.concurrency = concurrency;
  for (int run = 0; run < kRuns; ++run) {
    const RunResult r = runOnce(concurrency, particles, steps, workers, cfg, run == 0);
    sps.push_back(r.steps_per_s);
    p50.push_back(r.p50_ms);
    p99.push_back(r.p99_ms);
    level.bitwise_ok = level.bitwise_ok && r.bitwise_ok;
  }
  level.steps_per_s = spread(sps);
  level.p50_ms = spread(p50);
  level.p99_ms = spread(p99);
  return level;
}

/// `"name": {"median": m, "min": lo, "max": hi}` with `digits` decimals.
void writeSpread(std::FILE* f, const char* name, const Spread& s, int digits) {
  std::fprintf(f, "\"%s\": {\"median\": %.*f, \"min\": %.*f, \"max\": %.*f}", name, digits,
               s.median, digits, s.min, digits, s.max);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scenario_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const int particles = smoke ? 64 : 160;
  const long steps = smoke ? 8 : 48;
  const int workers = 8;
  const SimulationConfig cfg = fleetConfig();

  // Warm-up: fault in code pages and the allocator before the timed levels.
  (void)runOnce(1, particles, 2, workers, cfg, /*verify=*/false);

  const int levels[] = {1, 4, 8};
  std::vector<LevelResult> results;
  std::printf("scenario service hosting (%d particles/instance, %ld steps, "
              "%d workers, budget 4; median [min, max] of %d runs):\n",
              particles, steps, workers, kRuns);
  std::printf("  %11s %26s %24s %24s  %s\n", "concurrency", "steps/s", "p50 [ms]",
              "p99 [ms]", "bitwise");
  bool bitwise_ok = true;
  for (int c : levels) {
    const LevelResult r = runLevel(c, particles, steps, workers, cfg);
    std::printf("  %11d %8.1f [%7.1f, %7.1f] %6.3f [%6.3f, %6.3f] %6.3f [%6.3f, %6.3f]  %s\n",
                r.concurrency, r.steps_per_s.median, r.steps_per_s.min, r.steps_per_s.max,
                r.p50_ms.median, r.p50_ms.min, r.p50_ms.max, r.p99_ms.median, r.p99_ms.min,
                r.p99_ms.max, r.bitwise_ok ? "ok" : "DIVERGED");
    bitwise_ok = bitwise_ok && r.bitwise_ok;
    results.push_back(r);
  }

  const double scaling =
      results.back().steps_per_s.median / results.front().steps_per_s.median;
  std::printf("  aggregate throughput at 8 instances vs single: %.2fx\n", scaling);
  // The 3x gate only means something where the hardware can express it: on
  // an 8-thread host, 8 cooperatively hosted instances must deliver at
  // least 3x the single-instance aggregate. On narrower machines the ratio
  // is recorded but not gated (a 1-core box can never beat 1x).
  const unsigned hw = std::thread::hardware_concurrency();
  const bool gate_armed = !smoke && hw >= 8;
  const bool scaling_ok = !gate_armed || scaling >= 3.0;
  if (!gate_armed && !smoke) {
    std::printf("  scaling gate skipped: host has %u hardware threads (< 8)\n", hw);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"scenario_service\",\n");
    std::fprintf(f, "  \"schema_version\": \"%s\",\n", kSchemaVersion);
    std::fprintf(f, "  \"fixture_version\": \"%s\",\n", kFixtureVersion);
    asura::bench::writeContext(f);
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"fixture\": {\"particles_per_instance\": %d, \"steps\": %ld, "
                 "\"workers\": %d, \"step_budget\": 4, "
                 "\"omp_threads_per_instance\": 1, \"runs_per_level\": %d},\n",
                 particles, steps, workers, kRuns);
    std::fprintf(f, "  \"levels\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const LevelResult& r = results[i];
      std::fprintf(f, "    {\"concurrency\": %d, ", r.concurrency);
      writeSpread(f, "steps_per_s", r.steps_per_s, 2);
      std::fprintf(f, ", ");
      writeSpread(f, "step_latency_p50_ms", r.p50_ms, 4);
      std::fprintf(f, ", ");
      writeSpread(f, "step_latency_p99_ms", r.p99_ms, 4);
      std::fprintf(f, ", \"bitwise_vs_solo\": %s}%s\n", r.bitwise_ok ? "true" : "false",
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"scaling_8x_vs_1x\": %.3f,\n", scaling);
    std::fprintf(f,
                 "  \"gates\": {\"bitwise\": %s, \"scaling_3x\": %s, "
                 "\"scaling_gate_armed\": %s}\n",
                 bitwise_ok ? "true" : "false", scaling_ok ? "true" : "false",
                 gate_armed ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not open %s for writing\n", out_path.c_str());
  }

  if (!bitwise_ok) {
    std::fprintf(stderr, "FAIL: a hosted instance diverged from its solo rerun\n");
    return 1;
  }
  if (!scaling_ok) {
    std::fprintf(stderr, "FAIL: 8-instance aggregate throughput %.2fx < 3x single\n",
                 scaling);
    return 1;
  }
  return 0;
}
