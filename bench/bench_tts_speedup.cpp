// Reproduces §5.3 "Time-to-Solution": (a) the 113x speedup arithmetic vs
// GIZMO-style adaptive-timestep simulations, (b) the 10x timestep ratio
// measured by actually running the surrogate scheme and the conventional
// CFL-limited baseline on the same SN-bearing initial condition.

#include <cstdio>
#include <numbers>

#include "core/simulation.hpp"
#include "perf/scaling.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

std::vector<asura::fdps::Particle> snNursery(std::uint64_t seed) {
  // Dense star-forming clump with an 8 Msun-progenitor SN about to fire:
  // star-by-star resolution (m ~ 2 Msun) so the CFL collapse is resolved.
  asura::util::Pcg32 rng(seed);
  std::vector<asura::fdps::Particle> parts;
  const int n = 12000;
  const double radius = 6.0, rho = 50.0;
  const double total = 4.0 / 3.0 * std::numbers::pi * radius * radius * radius * rho;
  for (int i = 0; i < n; ++i) {
    asura::fdps::Particle p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.type = asura::fdps::Species::Gas;
    p.mass = total / n;
    p.pos = radius * std::cbrt(rng.uniform()) * rng.isotropic();
    p.u = asura::units::temperature_to_u(50.0, 1.27);
    p.rho = rho;
    p.h = 1.0;
    p.eps = 0.3;
    parts.push_back(p);
  }
  asura::fdps::Particle star;
  star.id = 999999;
  star.type = asura::fdps::Species::Star;
  star.mass = 20.0;
  star.star_mass = 20.0;
  star.pos = {0, 0, 0};
  star.t_sn = 1e-9;
  parts.push_back(star);
  return parts;
}

}  // namespace

int main() {
  using asura::util::fmt;

  // --- (b) measured timestep ratio: surrogate vs conventional ---
  asura::core::SimulationConfig base;
  base.enable_cooling = false;
  base.enable_star_formation = false;
  base.sph.n_ngb = 32;
  base.gravity.theta = 0.6;
  base.feedback_radius = 1.5;

  auto cfg_ml = base;
  cfg_ml.use_surrogate = true;
  cfg_ml.return_interval = 3;
  asura::core::Simulation sim_ml(snNursery(1), cfg_ml);

  auto cfg_conv = base;
  cfg_conv.use_surrogate = false;
  cfg_conv.adaptive_timestep = true;
  asura::core::Simulation sim_conv(snNursery(1), cfg_conv);

  double dt_ml_min = 1e300, dt_conv_min = 1e300;
  for (int s = 0; s < 5; ++s) {
    dt_ml_min = std::min(dt_ml_min, sim_ml.step().dt_used);
    dt_conv_min = std::min(dt_conv_min, sim_conv.step().dt_used);
  }

  asura::util::Table t1("Section 5.3 (measured here): timestep after an SN");
  t1.setHeader({"scheme", "min dt [yr]", "vs fixed 2,000 yr"});
  t1.addRow({"surrogate (fixed global dt)", fmt(dt_ml_min * 1e6, 0), "1.0x"});
  t1.addRow({"conventional (CFL adaptive)", fmt(dt_conv_min * 1e6, 0),
             fmt(dt_ml_min / dt_conv_min, 1) + "x slower stepping"});
  t1.setFootnote("paper: \"The timestep of our conventional simulation shrank to 200\n"
                 "years after the SN, which is 10x smaller than that adopted for the\n"
                 "method with ML (2,000 yr).\"");
  t1.print();

  // --- (a) the 113x arithmetic at full scale ---
  asura::perf::TimeToSolution tts;  // 3e11 particles, 20 s/step, 2,000 yr
  asura::util::Table t2(
      "Section 5.3: time-to-solution at 3e11 particles — analytic model (src/perf), "
      "not a measurement");
  t2.setHeader({"quantity", "value"});
  t2.addRow({"steps for 1 Myr", fmt(1.0e6 / tts.dt_years, 0)});
  t2.addRow({"wall-clock for 1 Myr (this work, model)",
             fmt(tts.hoursFor(1.0), 2) + " h"});
  t2.addRow({"wall-clock for 1 Myr (GIZMO-extrapolated)",
             fmt(asura::perf::TimeToSolution::conventionalHoursFor(1.0, 3.0e11), 0) +
                 " h"});
  t2.addRow({"speedup", fmt(tts.speedupVsConventional(), 0) + "x  (paper: 113x)"});
  t2.addRow({"1 Gyr at 10 s/step",
             [] {
               asura::perf::TimeToSolution fast;
               fast.sec_per_step = 10.0;
               return fmt(fast.hoursFor(1000.0) / 24.0, 0) + " days (paper: ~60)";
             }()});
  t2.print();

  std::printf("\nconventional-dt scaling argument: timestep count grows ∝ N^{1/3} "
              "(CFL ∝ m^{5/6} per particle), hence the (N/1.5e8)^{4/3} factor.\n");
  return 0;
}
