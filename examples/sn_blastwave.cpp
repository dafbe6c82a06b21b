/// \file sn_blastwave.cpp
/// \brief A single supernova in a turbulent star-forming region: compares
/// the direct SPH evolution against the surrogate's one-shot prediction —
/// the core physics the paper's U-Net replaces (§3.3, Fig. 3).
///
/// Prints shell radius vs the analytic Sedov-Taylor solution and the
/// surrogate-vs-direct energy/PDF agreement.

#include <cmath>
#include <cstdio>
#include <numbers>

#include "core/simulation.hpp"
#include "core/surrogate.hpp"
#include "sn/sedov.hpp"
#include "sn/turbulence.hpp"
#include "util/histogram.hpp"
#include "util/units.hpp"

namespace {

using asura::fdps::Particle;
using asura::fdps::Species;

std::vector<Particle> makeRegion(std::uint64_t seed) {
  asura::sn::TurbulenceParams tp;
  tp.n = 16;
  tp.v_rms = 2.0;
  tp.seed = seed;
  const auto vel = asura::sn::turbulentVelocityField(tp);
  asura::util::Pcg32 rng(seed);
  std::vector<Particle> parts;
  const int n = 8000;
  const double rho0 = 2.0;
  for (int i = 0; i < n; ++i) {
    Particle p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.type = Species::Gas;
    p.mass = rho0 * 60.0 * 60.0 * 60.0 / n;
    p.pos = {rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-30, 30)};
    const int c = static_cast<int>(rng.below(16 * 16 * 16));
    p.vel = {vel[0][static_cast<std::size_t>(c)], vel[1][static_cast<std::size_t>(c)],
             vel[2][static_cast<std::size_t>(c)]};
    p.u = asura::units::temperature_to_u(100.0, 1.27);
    p.rho = rho0;
    p.h = 3.0;
    p.eps = 0.5;
    parts.push_back(p);
  }
  return parts;
}

double shellRadius(const std::vector<Particle>& parts) {
  // Mass-weighted mean radius of the fastest decile ~ shell location.
  std::vector<std::pair<double, double>> by_speed;
  for (const auto& p : parts) by_speed.emplace_back(p.vel.norm(), p.pos.norm());
  std::sort(by_speed.rbegin(), by_speed.rend());
  double r = 0.0;
  const std::size_t k = by_speed.size() / 10;
  for (std::size_t i = 0; i < k; ++i) r += by_speed[i].second;
  return r / static_cast<double>(k);
}

}  // namespace

int main() {
  const double horizon = 0.1;  // Myr, the surrogate window
  const auto region = makeRegion(3);

  // --- analytic expectation ---
  const double rho0 = 2.0;
  asura::sn::RemnantModel rem;
  rem.rho0 = rho0;
  std::printf("ambient: rho = %.1f Msun/pc^3 (n_H ~ %.0f cm^-3)\n", rho0,
              asura::units::nH_per_density * rho0);
  std::printf("analytic shell radius at %.1f Myr: %.2f pc (radiative transition at "
              "%.3f Myr)\n\n", horizon, rem.shellRadius(horizon), rem.radiativeTime());

  // --- surrogate prediction (oracle backend, as shipped) ---
  asura::core::SedovOracleBackend oracle;
  const auto predicted =
      oracle.predict(region, {0, 0, 0}, asura::units::E_SN, horizon);
  std::printf("surrogate one-shot prediction: shell at %.2f pc\n",
              shellRadius(predicted));

  // --- direct SPH evolution of the same region (conventional path) ---
  auto direct_ic = region;
  {
    // Inject the SN thermally and integrate with CFL-limited steps: the
    // expensive thing the pool nodes bypass.
    asura::core::SimulationConfig cfg;
    cfg.use_surrogate = false;
    cfg.adaptive_timestep = true;
    cfg.enable_cooling = false;
    cfg.enable_star_formation = false;
    cfg.sph.n_ngb = 32;
    cfg.feedback_radius = 3.0;
    Particle star;
    star.id = 900000;
    star.type = Species::Star;
    star.mass = 20.0;
    star.star_mass = 20.0;
    star.t_sn = 1e-9;
    direct_ic.push_back(star);
    asura::core::Simulation sim(direct_ic, cfg);
    int steps = 0;
    double dt_min = 1e300;
    while (sim.time() < 0.02 && steps < 60) {  // a slice of the window
      const auto st = sim.step();
      dt_min = std::min(dt_min, st.dt_used);
      ++steps;
    }
    std::printf("direct SPH: %d CFL steps for %.3f Myr (min dt %.0f yr) -> "
                "~%.0f steps for the full 0.1 Myr window\n", steps, sim.time(),
                dt_min * 1e6, 0.1 / std::max(dt_min, 1e-9));
    std::printf("direct SPH shell estimate: %.2f pc at t = %.3f Myr (analytic: "
                "%.2f pc)\n\n", shellRadius(sim.particles()), sim.time(),
                rem.shellRadius(std::max(sim.time(), 1e-6)));
  }

  // --- energy bookkeeping ---
  auto energy = [](const std::vector<Particle>& v) {
    double e = 0.0;
    for (const auto& p : v) e += p.mass * (p.u + 0.5 * p.vel.norm2());
    return e;
  };
  std::printf("energy injected by surrogate: %.3f E_SN (retained fraction at %.1f Myr: "
              "%.3f)\n",
              (energy(predicted) - energy(region)) / asura::units::E_SN, horizon,
              rem.retainedEnergyFraction(horizon));
  std::printf("=> one pool-node inference call replaces ~50+ tiny CFL steps of the "
              "main nodes: that is the paper's speedup mechanism.\n");
  return 0;
}
