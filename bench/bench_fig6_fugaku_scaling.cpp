// Reproduces Figure 6: weak-scaling (left) and strong-scaling (right)
// wall-clock time per step on Fugaku with the full 18-category breakdown.
// Weak scaling: 2M particles per node, 128 -> 148,896 nodes, with the
// paper's "∝ log N" reference line. Strong scaling: the three particle-count
// tiers of Table 2 (strongMWm / strongMWs / strongMW).

#include <cmath>
#include <cstdio>

#include "perf/scaling.hpp"
#include "util/table.hpp"

namespace {

void printSeries(const char* title,
                 const std::vector<std::pair<asura::perf::RunPoint,
                                             std::map<std::string, double>>>& series,
                 bool weak) {
  asura::util::Table t(title);
  std::vector<std::string> header = {"Category \\ nodes"};
  for (const auto& [run, _] : series) header.push_back(std::to_string(run.nodes));
  t.setHeader(header);
  for (const auto& cat : asura::perf::breakdownCategories()) {
    std::vector<std::string> row = {cat};
    for (const auto& [run, times] : series) {
      row.push_back(asura::util::fmt(times.at(cat), 3));
    }
    t.addRow(row);
  }
  if (weak) {
    // The paper's dashed "∝ log N" line, normalized at the first point.
    std::vector<std::string> row = {"(log N reference)"};
    const double t0 = series.front().second.at("Total");
    const double l0 = std::log2(series.front().first.n_total);
    for (const auto& [run, _] : series) {
      row.push_back(asura::util::fmt(t0 * std::log2(run.n_total) / l0, 3));
    }
    t.addSeparator();
    t.addRow(row);
  } else {
    // Ideal linear-scaling line from the first point.
    std::vector<std::string> row = {"(ideal 1/p)"};
    const double t0 = series.front().second.at("Total");
    const double p0 = series.front().first.nodes;
    for (const auto& [run, _] : series) {
      row.push_back(asura::util::fmt(t0 * p0 / run.nodes, 3));
    }
    t.addSeparator();
    t.addRow(row);
  }
  t.print();
  std::printf("\n");
}

}  // namespace

int main() {
  const auto model = asura::perf::BreakdownModel::forFugaku();

  // --- weak scaling: 2M per node (run weakMW2M) ---
  const auto weak = model.weakScaling({128, 512, 2048, 8192, 32768, 148896}, 2.0e6);
  printSeries("Figure 6 (left): Fugaku weak scaling, 2M particles/node — "
              "analytic model (src/perf), not a measurement", weak, true);

  const double eff_raw = weak.front().second.at("Total") / weak.back().second.at("Total");
  const double logn_ratio = std::log2(weak.back().first.n_total) /
                            std::log2(weak.front().first.n_total);
  std::printf("weak efficiency 148896 vs 128 nodes: %.0f%% raw, %.0f%% after the "
              "log N correction (paper: 54%%)\n\n",
              100.0 * eff_raw, 100.0 * eff_raw * logn_ratio);

  // --- strong scaling: the three tiers of Table 2 ---
  const auto strong_m = model.strongScaling({128, 256, 512, 1024}, 1.8e10 / 3.5);
  printSeries("Figure 6 (right, tier strongMWm): N = 5.1e9 — analytic model "
              "(src/perf), not a measurement", strong_m, false);
  const auto strong_s = model.strongScaling({4096, 8192, 16384, 40608}, 2.3e10);
  printSeries("Figure 6 (right, tier strongMWs): N = 2.3e10 — analytic model "
              "(src/perf), not a measurement", strong_s, false);
  const auto strong_l = model.strongScaling({67680, 148896}, 1.5e11);
  printSeries("Figure 6 (right, tier strongMW): N = 1.5e11 — analytic model "
              "(src/perf), not a measurement", strong_l, false);

  std::printf("shape check: Calc_Force scales ~1/p, Exchange_LET / Exchange_Particle "
              "flatten at large p (the paper's communication bottleneck, §5.2.3).\n");
  std::printf("time-per-step at full system: %.1f s (paper: ~20 s; \"It is important "
              "to reach ~10 sec per step\", §5.1).\n",
              weak.back().second.at("Total"));
  return 0;
}
