// Checkpoint subsystem benchmark: serialization, file write and restore
// throughput for a mid-size particle set, serial and at 8 SPMD ranks. The
// numbers bound the cost of a periodic checkpoint cadence: a full write is a
// few ms at test scale, so even a once-per-50-steps cadence (matching the
// paper's prediction-return interval) is noise next to a force pass.
//
//   ./build/bench_checkpoint --benchmark_format=json > BENCH_checkpoint.json

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/distributed.hpp"
#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::core::blockPartition;
using asura::core::DistributedConfig;
using asura::core::DistributedEngine;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::fdps::Particle;

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

std::string benchPath(const char* name) {
  return std::string("/tmp/") + name;
}

void BM_SerializeState(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Simulation sim(benchIc(n), benchConfig());
  sim.step();
  std::size_t bytes = 0;
  for (auto _ : state) {
    asura::io::ByteWriter w;
    sim.serializeState(w);
    bytes = w.size();
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["state_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SerializeState)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_WriteCheckpointSerial(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Simulation sim(benchIc(n), benchConfig());
  sim.step();
  const std::string path = benchPath("bench_ckpt_serial.bin");
  for (auto _ : state) {
    asura::io::writeCheckpoint(path, sim);
  }
  const auto info = asura::io::inspectCheckpoint(path).info;
  state.SetBytesProcessed(static_cast<std::int64_t>(info.payload_bytes) *
                          static_cast<std::int64_t>(state.iterations()));
  std::remove(path.c_str());
}
BENCHMARK(BM_WriteCheckpointSerial)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_RestoreCheckpointSerial(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto ic = benchIc(n);
  const auto cfg = benchConfig();
  Simulation writer(ic, cfg);
  writer.step();
  const std::string path = benchPath("bench_ckpt_restore.bin");
  asura::io::writeCheckpoint(path, writer);
  Simulation sim(ic, cfg);
  for (auto _ : state) {
    asura::io::restoreCheckpoint(path, sim);
  }
  const auto info = asura::io::inspectCheckpoint(path).info;
  state.SetBytesProcessed(static_cast<std::int64_t>(info.payload_bytes) *
                          static_cast<std::int64_t>(state.iterations()));
  std::remove(path.c_str());
}
BENCHMARK(BM_RestoreCheckpointSerial)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_CheckpointRoundTrip8Ranks(benchmark::State& state) {
  // Full collective round trip at 8 ranks: serialize + allgatherv + write,
  // then read + bcast + per-rank parse/CRC/restore. One iteration spans the
  // whole cluster run so the reported time is the end-to-end recovery cost.
  const int n = static_cast<int>(state.range(0));
  const auto ic = benchIc(n);
  const auto cfg = benchConfig();
  const std::string path = benchPath("bench_ckpt_dist.bin");
  constexpr int P = 8;
  for (auto _ : state) {
    Cluster cluster(P);
    cluster.run([&](Comm& comm) {
      Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
      sim.attachDistributed(
          std::make_unique<DistributedEngine>(comm, DistributedConfig{}));
      sim.step();
      asura::io::writeCheckpoint(path, sim);
      asura::io::restoreCheckpoint(path, sim);
    });
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointRoundTrip8Ranks)->Arg(8000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
