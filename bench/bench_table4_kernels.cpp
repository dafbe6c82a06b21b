// Reproduces Table 4: asymptotic single-core performance of the interaction
// kernels, measured on the production PIKG-generated backends (scalar /
// AVX2 / AVX-512, runtime-dispatched). Measured GFLOPS use the paper's
// operation counts (27 / 73 / 101 per interaction); the paper's A64FX /
// genoa / GH200 rows are printed (stderr) as reference alongside this
// host's measurements.
//
// Machine-readable record (Release build):
//   bench_table4_kernels --benchmark_repetitions=5 \
//     --benchmark_report_aggregates_only=true \
//     --benchmark_format=json > BENCH_kernel_codegen.json

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_context.hpp"
#include "kernels/registry.hpp"
#include "perf/machines.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using asura::pikg::Isa;
namespace gen = asura::pikg::gen;

constexpr int kNi = 512, kNj = 512;

bool skipUnlessRunnable(benchmark::State& state, Isa isa) {
  if (asura::pikg::resolveIsa(isa) != isa) {
    state.SkipWithError("ISA not supported on this host");
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Gravity: generated mixed-F32 SoA group kernel.
// ---------------------------------------------------------------------------

struct GravData {
  std::vector<float> xi, yi, zi, e2i, xj, yj, zj, mj, e2j;
  std::vector<double> ax, ay, az, pot;
};

GravData makeGravData() {
  asura::util::Pcg32 rng(1);
  GravData d;
  d.xi.resize(kNi); d.yi.resize(kNi); d.zi.resize(kNi); d.e2i.assign(kNi, 0.01f);
  for (int i = 0; i < kNi; ++i) {
    d.xi[i] = static_cast<float>(rng.uniform(-10, 10));
    d.yi[i] = static_cast<float>(rng.uniform(-10, 10));
    d.zi[i] = static_cast<float>(rng.uniform(-10, 10));
  }
  d.xj.resize(kNj); d.yj.resize(kNj); d.zj.resize(kNj);
  d.mj.assign(kNj, 1.0f); d.e2j.assign(kNj, 0.01f);
  for (int j = 0; j < kNj; ++j) {
    d.xj[j] = static_cast<float>(rng.uniform(-10, 10));
    d.yj[j] = static_cast<float>(rng.uniform(-10, 10));
    d.zj[j] = static_cast<float>(rng.uniform(-10, 10));
  }
  d.ax.assign(kNi, 0.0); d.ay.assign(kNi, 0.0);
  d.az.assign(kNi, 0.0); d.pot.assign(kNi, 0.0);
  return d;
}

void gravGenBench(benchmark::State& state, Isa isa) {
  if (skipUnlessRunnable(state, isa)) return;
  auto d = makeGravData();
  const auto& k = asura::pikg::kernels(isa);
  for (auto _ : state) {
    k.grav(kNi, d.xi.data(), d.yi.data(), d.zi.data(), d.e2i.data(), kNj, d.xj.data(),
           d.yj.data(), d.zj.data(), d.mj.data(), d.e2j.data(), d.ax.data(),
           d.ay.data(), d.az.data(), d.pot.data());
    benchmark::DoNotOptimize(d.ax.data());
  }
  const double inter = static_cast<double>(state.iterations()) * kNi * kNj;
  state.counters["GFLOPS"] = benchmark::Counter(inter * 27 / 1e9,
                                                benchmark::Counter::kIsRate);
}

void BM_GravGenScalar(benchmark::State& state) { gravGenBench(state, Isa::Scalar); }
void BM_GravGenAvx2(benchmark::State& state) { gravGenBench(state, Isa::Avx2); }
void BM_GravGenAvx512(benchmark::State& state) { gravGenBench(state, Isa::Avx512); }

// ---------------------------------------------------------------------------
// SPH density: generated f64 PPA-table kernel.
// ---------------------------------------------------------------------------

struct SphData {
  double H = 0.0, hinv = 0.0, hinv3 = 0.0, hinv4 = 0.0;
  std::vector<double> xi, yi, zi, vxi, vyi, vzi;           // targets
  std::vector<double> xj, yj, zj, mj, vxj, vyj, vzj;       // sources
  std::vector<double> hfj, hhj, hij, h4j, p2j, rhoj, csj, balj;
};

SphData makeSphData() {
  asura::util::Pcg32 rng(3);
  SphData d;
  d.xi.resize(kNi); d.yi.resize(kNi); d.zi.resize(kNi);
  d.vxi.resize(kNi); d.vyi.resize(kNi); d.vzi.resize(kNi);
  for (int i = 0; i < kNi; ++i) {
    d.xi[i] = rng.uniform(-0.5, 0.5);
    d.yi[i] = rng.uniform(-0.5, 0.5);
    d.zi[i] = rng.uniform(-0.5, 0.5);
    d.vxi[i] = rng.uniform(-1, 1);
    d.vyi[i] = rng.uniform(-1, 1);
    d.vzi[i] = rng.uniform(-1, 1);
  }
  d.xj.resize(kNj); d.yj.resize(kNj); d.zj.resize(kNj);
  d.mj.resize(kNj); d.vxj.resize(kNj); d.vyj.resize(kNj); d.vzj.resize(kNj);
  d.hfj.resize(kNj); d.hhj.resize(kNj); d.hij.resize(kNj); d.h4j.resize(kNj);
  d.p2j.resize(kNj); d.rhoj.resize(kNj); d.csj.resize(kNj); d.balj.resize(kNj);
  for (int j = 0; j < kNj; ++j) {
    d.xj[j] = rng.uniform(-0.5, 0.5);
    d.yj[j] = rng.uniform(-0.5, 0.5);
    d.zj[j] = rng.uniform(-0.5, 0.5);
    d.mj[j] = rng.uniform(0.8, 1.2);
    d.vxj[j] = rng.uniform(-1, 1);
    d.vyj[j] = rng.uniform(-1, 1);
    d.vzj[j] = rng.uniform(-1, 1);
    d.hfj[j] = rng.uniform(2.0, 3.0);
    d.hhj[j] = 0.5 * d.hfj[j];
    d.hij[j] = 1.0 / d.hfj[j];
    d.h4j[j] = d.hij[j] * d.hij[j] * d.hij[j] * d.hij[j];
    d.rhoj[j] = rng.uniform(80.0, 160.0);
    d.p2j[j] = rng.uniform(0.1, 1.0);
    d.csj[j] = rng.uniform(1.0, 3.0);
    d.balj[j] = rng.uniform(0.0, 1.0);
  }
  // Support covering the whole cloud: every (i, j) pair is in range, so the
  // per-interaction work matches the production in-support contract.
  d.H = 3.0;
  d.hinv = 1.0 / d.H;
  d.hinv3 = d.hinv * d.hinv * d.hinv;
  d.hinv4 = d.hinv3 * d.hinv;
  return d;
}

void densGenBench(benchmark::State& state, Isa isa) {
  if (skipUnlessRunnable(state, isa)) return;
  auto d = makeSphData();
  const auto& k = asura::pikg::kernels(isa);
  std::vector<double> hinv(kNi, d.hinv), hinv3(kNi, d.hinv3), hinv4(kNi, d.hinv4);
  std::vector<double> rho(kNi, 0.0), div(kNi, 0.0), cx(kNi, 0.0), cy(kNi, 0.0),
      cz(kNi, 0.0);
  for (auto _ : state) {
    k.dens(kNi, d.xi.data(), d.yi.data(), d.zi.data(), d.vxi.data(), d.vyi.data(),
           d.vzi.data(), hinv.data(), hinv3.data(), hinv4.data(), kNj, d.xj.data(),
           d.yj.data(), d.zj.data(), d.mj.data(), d.vxj.data(), d.vyj.data(),
           d.vzj.data(), gen::kCubicSplineW, rho.data(), div.data(), cx.data(),
           cy.data(), cz.data());
    benchmark::DoNotOptimize(rho.data());
  }
  const double inter = static_cast<double>(state.iterations()) * kNi * kNj;
  state.counters["GFLOPS"] = benchmark::Counter(inter * 73 / 1e9,
                                                benchmark::Counter::kIsRate);
}

void BM_DensGenScalar(benchmark::State& state) { densGenBench(state, Isa::Scalar); }
void BM_DensGenAvx2(benchmark::State& state) { densGenBench(state, Isa::Avx2); }
void BM_DensGenAvx512(benchmark::State& state) { densGenBench(state, Isa::Avx512); }

// ---------------------------------------------------------------------------
// SPH hydro force: generated f64 pair kernel.
// ---------------------------------------------------------------------------

void hydroGenBench(benchmark::State& state, Isa isa) {
  if (skipUnlessRunnable(state, isa)) return;
  auto d = makeSphData();
  const auto& k = asura::pikg::kernels(isa);
  std::vector<double> hfi(kNi, d.H), hhi(kNi, 0.5 * d.H), hii(kNi, d.hinv),
      h4i(kNi, d.hinv4), p2i(kNi, 0.5), rhoi(kNi, 120.0), csi(kNi, 2.0),
      bali(kNi, 0.7);
  std::vector<double> ax(kNi, 0.0), ay(kNi, 0.0), az(kNi, 0.0), du(kNi, 0.0),
      vsig(kNi, 2.0);
  for (auto _ : state) {
    k.hydro(kNi, d.xi.data(), d.yi.data(), d.zi.data(), d.vxi.data(), d.vyi.data(),
            d.vzi.data(), hfi.data(), hhi.data(), hii.data(), h4i.data(), p2i.data(),
            rhoi.data(), csi.data(), bali.data(), kNj, d.xj.data(), d.yj.data(),
            d.zj.data(), d.mj.data(), d.vxj.data(), d.vyj.data(), d.vzj.data(),
            d.hfj.data(), d.hhj.data(), d.hij.data(), d.h4j.data(), d.p2j.data(),
            d.rhoj.data(), d.csj.data(), d.balj.data(), gen::kCubicSplineDw, 1.0, 2.0,
            ax.data(), ay.data(), az.data(), du.data(), vsig.data());
    benchmark::DoNotOptimize(ax.data());
  }
  const double inter = static_cast<double>(state.iterations()) * kNi * kNj;
  state.counters["GFLOPS"] = benchmark::Counter(inter * 101 / 1e9,
                                                benchmark::Counter::kIsRate);
}

void BM_HydroGenScalar(benchmark::State& state) { hydroGenBench(state, Isa::Scalar); }
void BM_HydroGenAvx2(benchmark::State& state) { hydroGenBench(state, Isa::Avx2); }
void BM_HydroGenAvx512(benchmark::State& state) { hydroGenBench(state, Isa::Avx512); }

BENCHMARK(BM_GravGenScalar);
BENCHMARK(BM_GravGenAvx2);
BENCHMARK(BM_GravGenAvx512);
BENCHMARK(BM_DensGenScalar);
BENCHMARK(BM_DensGenAvx2);
BENCHMARK(BM_DensGenAvx512);
BENCHMARK(BM_HydroGenScalar);
BENCHMARK(BM_HydroGenAvx2);
BENCHMARK(BM_HydroGenAvx512);

void printPaperReference() {
  asura::util::Table t("Table 4 (paper reference): asymptotic single-core kernel "
                       "performance using PIKG");
  t.setHeader({"Kernel", "#ops", "A64FX-SVE", "eff", "genoa-AVX2", "eff",
               "genoa-AVX512", "eff", "GH200", "eff"});
  t.addRow({"Gravity", "27", "37.7 GF", "29.4%", "65.8 GF", "50.2%", "90.6 GF",
            "69.1%", "25.4 TF", "38.0%"});
  t.addRow({"Hydro density/pressure", "73", "21.9 GF", "17.1%", "15.1 GF", "11.5%",
            "87.6 GF", "66.8%", "0.555 TF", "0.64%"});
  t.addRow({"Hydro force", "101", "19.8 GF", "15.4%", "29.4 GF", "22.4%", "81.5 GF",
            "62.1%", "1.88 TF", "2.8%"});
  t.setFootnote(
      "Rows above are the paper's measurements; google-benchmark rows below are this\n"
      "host's PIKG-generated backends (BM_*Gen<ISA>), each pinned to one ISA; an ISA\n"
      "the host cannot run is skipped. Host single-core SP peak estimate: see\n"
      "perf::genoaCoreSpGflops().");
  // Banner goes to stderr so `--benchmark_format=json > BENCH_*.json`
  // captures a clean machine-readable stream on stdout.
  std::fputs(t.str().c_str(), stderr);
  std::fprintf(stderr,
               "paper efficiency convention: GFLOPS / single-core SP peak "
               "(A64FX %.0f, genoa %.0f GFLOPS)\n\n",
               asura::perf::a64fxCoreSpGflops(), asura::perf::genoaCoreSpGflops());
}

}  // namespace

int main(int argc, char** argv) {
  printPaperReference();
  benchmark::AddCustomContext("build_type", asura::bench::kBuildType);
  benchmark::AddCustomContext("omp_threads", std::to_string(asura::bench::ompThreads()));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
