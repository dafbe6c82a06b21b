/// \file scaling_cluster.cpp
/// \brief Distributed-memory demo on the thread-backed cluster: decompose a
/// galaxy over P SPMD ranks, route every particle to its owner once through
/// the flat all-to-all and once through the paper's 3-D torus all-to-all
/// (§3.4), exchange gravity LETs, and compute forces — the real
/// communication structure of §3.4 at laptop scale, with traffic counters.
/// Each rank records the particle ids it received per route; the run exits 1
/// unless both routes delivered identical lists on every rank.
///
///   ./scaling_cluster [ranks]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "comm/comm.hpp"
#include "comm/torus.hpp"
#include "fdps/context.hpp"
#include "fdps/domain.hpp"
#include "fdps/let.hpp"
#include "galaxy/galaxy.hpp"
#include "gravity/gravity.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const int P = argc > 1 ? std::atoi(argv[1]) : 8;
  int px = 0, py = 0, pz = 0;
  asura::comm::factor3(P, px, py, pz);
  std::printf("cluster: %d ranks as a %dx%dx%d torus\n", P, px, py, pz);

  auto model = asura::galaxy::GalaxyModel::milkyWayMini();
  asura::galaxy::IcCounts counts;
  counts.n_dm = 20000;
  counts.n_star = 12000;
  counts.n_gas = 8000;
  counts.seed = 11;

  asura::comm::Cluster cluster(P);
  std::mutex print_mutex;
  // received[route][rank]: ids in arrival order (source-rank major).
  std::vector<std::vector<std::uint64_t>> received[2];

  for (const int route : {0, 1}) {
    const bool via_torus = route == 1;
    received[route].assign(static_cast<std::size_t>(P), {});
    cluster.resetTraffic();
    const double t0 = asura::util::wtime();
    cluster.run([&](asura::comm::Comm& comm) {
      // Per-domain IC generation (paper §4.2: ICs generated per domain).
      auto mine = asura::galaxy::generateGalaxySlice(model, counts, comm.rank(), P);

      asura::fdps::DomainDecomposer dd(px, py, pz);
      asura::util::Pcg32 rng(1, static_cast<std::uint64_t>(comm.rank()));
      dd.decompose(comm, mine, rng, false);

      // Bucket by owner, then route: flat, or x -> y -> z along torus lines.
      std::vector<std::vector<asura::fdps::Particle>> outgoing(static_cast<std::size_t>(P));
      for (const auto& p : mine) {
        outgoing[static_cast<std::size_t>(dd.ownerOf(p.pos))].push_back(p);
      }
      std::vector<std::vector<asura::fdps::Particle>> incoming;
      if (via_torus) {
        asura::comm::TorusTopology torus(comm, px, py, pz);
        incoming = torus.alltoallv3d(outgoing);
      } else {
        incoming = comm.alltoallv(outgoing);
      }
      mine.clear();
      auto& ids = received[route][static_cast<std::size_t>(comm.rank())];
      for (const auto& v : incoming) {
        for (const auto& p : v) {
          mine.push_back(p);
          ids.push_back(p.id);
        }
      }

      asura::fdps::SourceTree tree;
      tree.build(asura::fdps::makeSourceEntries(mine));
      const auto let = asura::fdps::exchangeGravityLet(comm, dd, tree, 0.5);

      asura::gravity::GravityParams gp;
      gp.theta = 0.5;
      asura::fdps::StepContext ctx;
      const auto stats = asura::gravity::accumulateTreeGravity(
          ctx, mine, let, asura::fdps::targetIndices(mine), gp);

      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lk(print_mutex);
        std::printf("  rank 0: %zu local particles, %zu LET imports, %.2e gravity "
                    "interactions\n", mine.size(), let.size(),
                    static_cast<double>(stats.ep_interactions + stats.sp_interactions));
      }
    });
    const auto traffic = cluster.traffic();
    std::printf("%s run (particle routing + flat LET): %.2f s, %llu messages, %.1f MB\n",
                via_torus ? "3-D torus" : "flat     ",
                asura::util::wtime() - t0,
                static_cast<unsigned long long>(traffic.messages),
                static_cast<double>(traffic.bytes) / 1e6);
  }

  std::printf("\nthe 3-D algorithm trades message count (O(p^{1/3}) partners per "
              "phase) for forwarding volume — the win grows with p (§3.4).\n");

  for (int r = 0; r < P; ++r) {
    if (received[0][static_cast<std::size_t>(r)] != received[1][static_cast<std::size_t>(r)]) {
      std::printf("FAIL: rank %d received different particle ids via the torus route\n", r);
      return 1;
    }
  }
  std::printf("torus and flat routes delivered identical id lists on all %d ranks\n", P);
  return 0;
}
