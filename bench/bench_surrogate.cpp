// Surrogate validation + throughput benchmark.
//
// Part 1 reproduces the §3.3 validation: the surrogate's post-SN state vs
// the direct (oracle) evolution — total energy, momentum, and the density /
// temperature PDFs ("We also confirmed that the probability distribution
// functions of gas density and temperature are reproduced with the
// surrogate model for SNe"). Compares three backends: Sedov oracle, a
// U-Net trained on oracle data here and now, and an untrained U-Net
// (ablation: why training matters).
//
// Part 2 measures inference throughput on a many-SN fixture (the shape of
// a production step where dozens of star-forming regions go off at once):
//   - per-region latency and regions/s for the im2col GEMM path
//     (sequential, one region at a time),
//   - regions/s for the batched path (predictBatch, one forward pass),
//   - raw sgemm GF/s of the parallel im2col kernel.
// The batched output must be bitwise identical to the sequential GEMM
// output (per-job rng streams make batching invisible to the physics);
// the bench exits non-zero if it is not, or if the accuracy budget fails.
//
// Usage: bench_surrogate [--smoke] [--out PATH]
//   --smoke    small fixture for CI (same gates, smaller sizes).
//   --out      where to write the JSON record (default BENCH_surrogate.json
//              in the current directory).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_context.hpp"
#include "core/surrogate.hpp"
#include "ml/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/optimizer.hpp"
#include "sn/turbulence.hpp"
#include "util/histogram.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using asura::fdps::Particle;
using asura::fdps::Species;
using asura::util::Vec3d;

/// Star-forming-region-like box: turbulent velocities with P(k) ∝ k^-4.
std::vector<Particle> turbulentBox(std::uint64_t seed, int n_particles = 3000) {
  asura::sn::TurbulenceParams tp;
  tp.n = 16;
  tp.box_size = 60.0;
  tp.v_rms = 3.0;
  tp.seed = seed;
  const auto vel = asura::sn::turbulentVelocityField(tp);

  asura::util::Pcg32 rng(seed, 77);
  std::vector<Particle> parts;
  const double rho0 = 1.0;
  const double mass = rho0 * 60.0 * 60.0 * 60.0 / n_particles;
  for (int i = 0; i < n_particles; ++i) {
    Particle p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.type = Species::Gas;
    p.mass = mass;
    p.pos = {rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-30, 30)};
    const int ci = static_cast<int>((p.pos.x + 30.0) / 60.0 * tp.n);
    const int cj = static_cast<int>((p.pos.y + 30.0) / 60.0 * tp.n);
    const int ck = static_cast<int>((p.pos.z + 30.0) / 60.0 * tp.n);
    const std::size_t c =
        (static_cast<std::size_t>(std::min(ci, tp.n - 1)) * tp.n +
         std::min(cj, tp.n - 1)) *
            static_cast<std::size_t>(tp.n) +
        std::min(ck, tp.n - 1);
    p.vel = {vel[0][c], vel[1][c], vel[2][c]};
    p.u = asura::units::temperature_to_u(100.0, 1.27);
    p.rho = rho0;
    p.h = 3.0;
    parts.push_back(p);
  }
  return parts;
}

struct Summary {
  double energy, momentum, rho_l1, temp_l1;
};

Summary summarize(const std::vector<Particle>& ref, const std::vector<Particle>& test) {
  auto energy = [](const std::vector<Particle>& v) {
    double e = 0.0;
    for (const auto& p : v) e += p.mass * (p.u + 0.5 * p.vel.norm2());
    return e;
  };
  auto momentum = [](const std::vector<Particle>& v) {
    Vec3d m{};
    for (const auto& p : v) m += p.mass * p.vel;
    return m.norm();
  };
  auto pdfs = [](const std::vector<Particle>& v, asura::util::Histogram& hr,
                 asura::util::Histogram& ht) {
    for (const auto& p : v) {
      hr.add(std::max(p.rho, 1e-9), p.mass);
      ht.add(asura::units::u_to_temperature(p.u, 0.6), p.mass);
    }
  };
  asura::util::Histogram hr_ref(1e-6, 1e4, 24, true), ht_ref(1.0, 1e9, 24, true);
  asura::util::Histogram hr_t(1e-6, 1e4, 24, true), ht_t(1.0, 1e9, 24, true);
  pdfs(ref, hr_ref, ht_ref);
  pdfs(test, hr_t, ht_t);
  return {energy(test) / energy(ref), momentum(test),
          asura::util::Histogram::l1Distance(hr_ref, hr_t),
          asura::util::Histogram::l1Distance(ht_ref, ht_t)};
}

double nowSeconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

bool bitwiseEqual(const std::vector<std::vector<Particle>>& a,
                  const std::vector<std::vector<Particle>>& b) {
  if (a.size() != b.size()) return false;
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (std::size_t i = 0; i < a[r].size(); ++i) {
      const Particle &p = a[r][i], &q = b[r][i];
      if (p.id != q.id || !same(p.pos.x, q.pos.x) || !same(p.pos.y, q.pos.y) ||
          !same(p.pos.z, q.pos.z) || !same(p.vel.x, q.vel.x) ||
          !same(p.vel.y, q.vel.y) || !same(p.vel.z, q.vel.z) ||
          !same(p.u, q.u) || !same(p.rho, q.rho)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_surrogate.json";
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

  const double horizon = 0.1;  // Myr, the paper's prediction window
  const auto region = turbulentBox(11);

  // ---- Part 1: §3.3 accuracy validation --------------------------------
  // Reference: the oracle (stands in for the direct 1-Msun simulation).
  asura::core::SedovOracleBackend oracle;
  const auto ref = oracle.predict(region, {0, 0, 0}, asura::units::E_SN, horizon);

  // U-Net trained on oracle pairs (tiny: 16^3 grid, base width 4).
  asura::ml::UNetConfig ucfg;
  ucfg.base_width = 4;
  asura::voxel::VoxelParams vp;
  vp.grid_n = 16;
  asura::core::UNetSurrogateBackend trained(ucfg, vp, 60.0, 99);
  {
    asura::ml::Adam::Config oc;
    oc.lr = 2e-3;
    asura::ml::Adam opt(trained.network().parameters(), oc);
    const int epochs = smoke ? 4 : 12;
    for (int epoch = 0; epoch < epochs; ++epoch) {
      for (std::uint64_t s = 0; s < 3; ++s) {
        auto box = turbulentBox(100 + s, 1500);
        const auto in_grid = asura::voxel::depositParticles(box, {0, 0, 0}, 60.0, vp);
        auto evolved = oracle.predict(box, {0, 0, 0}, asura::units::E_SN, horizon);
        const auto out_grid = asura::voxel::depositParticles(evolved, {0, 0, 0}, 60.0, vp);
        const auto x = asura::voxel::encodeGrid(in_grid);
        auto delta = asura::voxel::encodeGrid(out_grid);  // residual target
        for (std::size_t i = 0; i < delta.numel(); ++i) delta[i] -= x[i];
        trained.network().zeroGrad();
        const auto pred = trained.network().forward(x);
        asura::ml::Tensor g;
        (void)asura::ml::mseLoss(pred, delta, &g);
        trained.network().backward(g);
        opt.step();
      }
    }
  }
  const auto out_trained = trained.predict(region, {0, 0, 0}, asura::units::E_SN, horizon);

  asura::core::UNetSurrogateBackend untrained(ucfg, vp, 60.0, 7);
  const auto out_raw = untrained.predict(region, {0, 0, 0}, asura::units::E_SN, horizon);

  const auto s_oracle = summarize(ref, ref);
  const auto s_trained = summarize(ref, out_trained);
  const auto s_raw = summarize(ref, out_raw);

  asura::util::Table t("Section 3.3 validation: surrogate vs direct post-SN state "
                       "(0.1 Myr horizon)");
  t.setHeader({"backend", "E/E_direct", "|p| [code]", "L1(rho PDF)", "L1(T PDF)"});
  auto row = [&](const char* name, const Summary& s) {
    t.addRow({name, asura::util::fmt(s.energy, 3), asura::util::fmt(s.momentum, 1),
              asura::util::fmt(s.rho_l1, 3), asura::util::fmt(s.temp_l1, 3)});
  };
  row("direct (oracle reference)", s_oracle);
  row("U-Net (trained on oracle data)", s_trained);
  row("U-Net (untrained = identity ablation)", s_raw);
  t.setFootnote("L1 PDF distance in [0,2]; the residual-parametrized U-Net starts at\n"
                "the identity (no SN at all) and training moves it toward the direct\n"
                "simulation's energy and PDFs (paper §3.3). Mass conservation is exact\n"
                "by construction.");
  t.print();

  std::printf("\ntrained-vs-untrained improvement: rho PDF %.2fx, T PDF %.2fx\n",
              s_raw.rho_l1 / std::max(s_trained.rho_l1, 1e-9),
              s_raw.temp_l1 / std::max(s_trained.temp_l1, 1e-9));

  // Accuracy budget: the trained surrogate must beat the identity ablation
  // on both PDFs and land within a generous energy bracket of the oracle.
  const bool accuracy_ok = s_trained.rho_l1 <= s_raw.rho_l1 &&
                           s_trained.temp_l1 <= s_raw.temp_l1 &&
                           s_trained.energy > 0.2 && s_trained.energy < 5.0;

  // ---- Part 2: many-SN throughput --------------------------------------
  const int n_regions = smoke ? 6 : 32;
  const int n_parts = smoke ? 800 : 2000;
  std::vector<asura::core::SurrogateRequest> requests;
  for (int i = 0; i < n_regions; ++i) {
    asura::core::SurrogateRequest rq;
    rq.region = turbulentBox(500 + static_cast<std::uint64_t>(i), n_parts);
    rq.sn_pos = {0, 0, 0};
    rq.energy = asura::units::E_SN;
    rq.horizon = horizon;
    requests.push_back(std::move(rq));
  }

  // Warm-up (page in weights, spin up the OpenMP pool) outside the timers.
  (void)trained.predict(requests[0].region, {0, 0, 0}, asura::units::E_SN, horizon);

  std::vector<std::vector<Particle>> out_seq;
  const double t0s = nowSeconds();
  for (const auto& rq : requests) {
    out_seq.push_back(trained.predict(rq.region, rq.sn_pos, rq.energy, rq.horizon));
  }
  const double t_seq = nowSeconds() - t0s;

  const double t0b = nowSeconds();
  const auto out_batched = trained.predictBatch(requests);
  const double t_batched = nowSeconds() - t0b;

  const bool bitwise_ok = bitwiseEqual(out_batched, out_seq);
  const double rps_seq = n_regions / t_seq;
  const double rps_batched = n_regions / t_batched;

  std::printf("\nmany-SN throughput (%d regions, %d particles each, 16^3 grid):\n",
              n_regions, n_parts);
  std::printf("  %-32s %8.1f ms/region  %7.2f regions/s\n",
              "sequential, im2col GEMM", 1e3 * t_seq / n_regions, rps_seq);
  std::printf("  %-32s %8.1f ms/region  %7.2f regions/s\n",
              "batched, im2col GEMM", 1e3 * t_batched / n_regions, rps_batched);
  std::printf("  batched output bitwise == sequential: %s\n", bitwise_ok ? "yes" : "NO");

  // ---- Part 3: raw sgemm kernel ----------------------------------------
  const int mnk = smoke ? 128 : 256;
  const std::size_t nn = static_cast<std::size_t>(mnk) * mnk;
  std::vector<float> ga(nn), gb(nn), gc(nn);
  asura::util::Pcg32 grng(3, 9);
  for (auto& v : ga) v = static_cast<float>(grng.uniform(-1, 1));
  for (auto& v : gb) v = static_cast<float>(grng.uniform(-1, 1));
  auto time_gemm = [&](auto&& fn, int reps) {
    fn();  // warm-up
    const double t0 = nowSeconds();
    for (int r = 0; r < reps; ++r) fn();
    const double dt = (nowSeconds() - t0) / reps;
    return 2.0 * mnk * double(mnk) * mnk / dt / 1e9;  // GF/s
  };
  const double gfs_parallel = time_gemm(
      [&] {
        std::fill(gc.begin(), gc.end(), 0.0f);
        asura::ml::sgemmAccParallel(mnk, mnk, mnk, ga.data(), mnk, gb.data(), mnk,
                                    gc.data(), mnk);
      },
      smoke ? 3 : 10);
  std::printf("\nsgemm %dx%dx%d: parallel %.2f GF/s\n", mnk, mnk, mnk, gfs_parallel);

  // ---- Gates + JSON record ---------------------------------------------

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"surrogate\",\n");
    // Versioned record: schema tracks field names/meaning, fixture pins the
    // IC + config generation so numbers stay comparable across runs.
    std::fprintf(f, "  \"schema_version\": \"asura-bench-2\",\n");
    std::fprintf(f, "  \"fixture_version\": \"surrogate-sedov-1\",\n");
    asura::bench::writeContext(f);
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"fixture\": {\"regions\": %d, \"particles_per_region\": %d, "
                 "\"grid_n\": %d, \"base_width\": %d, \"horizon_myr\": %.3f},\n",
                 n_regions, n_parts, vp.grid_n, ucfg.base_width, horizon);
    std::fprintf(f, "  \"accuracy\": {\n");
    std::fprintf(f, "    \"energy_ratio_trained\": %.6f,\n", s_trained.energy);
    std::fprintf(f, "    \"rho_pdf_l1_trained\": %.6f,\n", s_trained.rho_l1);
    std::fprintf(f, "    \"temp_pdf_l1_trained\": %.6f,\n", s_trained.temp_l1);
    std::fprintf(f, "    \"rho_pdf_l1_untrained\": %.6f,\n", s_raw.rho_l1);
    std::fprintf(f, "    \"temp_pdf_l1_untrained\": %.6f\n", s_raw.temp_l1);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"throughput\": {\n");
    std::fprintf(f,
                 "    \"sequential_gemm\": {\"ms_per_region\": %.3f, "
                 "\"regions_per_s\": %.3f},\n",
                 1e3 * t_seq / n_regions, rps_seq);
    std::fprintf(f,
                 "    \"batched_gemm\": {\"ms_per_region\": %.3f, "
                 "\"regions_per_s\": %.3f},\n",
                 1e3 * t_batched / n_regions, rps_batched);
    std::fprintf(f, "    \"batched_bitwise_matches_sequential\": %s\n",
                 bitwise_ok ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sgemm\": {\"mnk\": %d, \"parallel_gflops\": %.3f},\n", mnk,
                 gfs_parallel);
    std::fprintf(f, "  \"gates\": {\"accuracy\": %s, \"bitwise\": %s}\n",
                 accuracy_ok ? "true" : "false", bitwise_ok ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not open %s for writing\n", out_path.c_str());
  }

  if (!bitwise_ok) {
    std::fprintf(stderr, "FAIL: batched output is not bitwise identical to sequential\n");
    return 1;
  }
  if (!accuracy_ok) {
    std::fprintf(stderr, "FAIL: trained surrogate missed the accuracy budget\n");
    return 1;
  }
  return 0;
}
