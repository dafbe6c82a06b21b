// Reproduces Figure 7: weak and strong scaling on the Rusty genoa cluster
// (11 -> 193 nodes, 48 MPI ranks per node). Model anchored to the measured
// Table 3 Rusty kernels; same 18-category breakdown as Figure 6.

#include <cmath>
#include <cstdio>

#include "perf/scaling.hpp"
#include "util/table.hpp"

namespace {

void printSeries(const char* title,
                 const std::vector<std::pair<asura::perf::RunPoint,
                                             std::map<std::string, double>>>& series) {
  asura::util::Table t(title);
  std::vector<std::string> header = {"Category \\ nodes"};
  for (const auto& [run, _] : series) header.push_back(std::to_string(run.nodes));
  t.setHeader(header);
  for (const auto& cat : asura::perf::breakdownCategories()) {
    std::vector<std::string> row = {cat};
    for (const auto& [run, times] : series) {
      row.push_back(asura::util::fmt(times.at(cat), 2));
    }
    t.addRow(row);
  }
  t.print();
  std::printf("\n");
}

}  // namespace

int main() {
  const auto model = asura::perf::BreakdownModel::forRusty();

  // Weak scaling: 1.2e9 particles per node (run weakMW_rusty, 25M per rank).
  const auto weak = model.weakScaling({11, 24, 48, 96, 193}, 1.2e9);
  printSeries("Figure 7 (left): Rusty weak scaling, 1.2e9 particles/node — "
              "analytic model (src/perf), not a measurement", weak);

  const double t11 = weak.front().second.at("Total");
  const double t193 = weak.back().second.at("Total");
  const double logn = std::log2(weak.back().first.n_total) /
                      std::log2(weak.front().first.n_total);
  std::printf("weak efficiency 193 vs 11 nodes: %.0f%% raw, %.0f%% with log N "
              "correction (excellent scalability, paper §5.1)\n\n",
              100.0 * t11 / t193, 100.0 * t11 / t193 * logn);

  // Strong scaling: N = 5.1e10 (runs strongMW_rusty / strongMWs_rusty).
  const auto strong = model.strongScaling({11, 24, 43, 96, 193}, 5.1e10);
  printSeries("Figure 7 (right): Rusty strong scaling, N = 5.1e10 — analytic "
              "model (src/perf), not a measurement", strong);

  std::printf("note: the weakMW2M-equivalent on Rusty reaches 2.3e11 particles — "
              "\"approximately the same as the number of particles in the full system "
              "run on Fugaku\" (§5.2.4).\n");
  return 0;
}
