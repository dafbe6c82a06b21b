/// \file scaling_cluster.cpp
/// \brief Distributed-memory demo on the thread-backed cluster: decompose a
/// galaxy over P SPMD ranks, route every particle to its owner through the
/// flat all-to-all, exchange gravity LETs, and compute forces — the
/// communication structure of §3.4 at laptop scale, with traffic counters.
/// The run exits 1 unless every received particle lies in its receiver's
/// domain and the routing conserved the global particle count and id sum.
///
///   ./scaling_cluster [ranks]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "comm/comm.hpp"
#include "fdps/context.hpp"
#include "fdps/domain.hpp"
#include "fdps/let.hpp"
#include "galaxy/galaxy.hpp"
#include "gravity/gravity.hpp"
#include "util/timer.hpp"

namespace {

struct Census {
  long count = 0;
  std::uint64_t id_sum = 0;  ///< wraps modulo 2^64; equality still checks
};

Census globalCensus(asura::comm::Comm& comm,
                    const std::vector<asura::fdps::Particle>& parts) {
  Census local;
  local.count = static_cast<long>(parts.size());
  for (const auto& p : parts) local.id_sum += p.id;
  return {comm.allreduce(local.count, asura::comm::Op::Sum),
          comm.allreduce(local.id_sum, asura::comm::Op::Sum)};
}

}  // namespace

int main(int argc, char** argv) {
  const int P = argc > 1 ? std::atoi(argv[1]) : 8;
  int px = 0, py = 0, pz = 0;
  asura::comm::factor3(P, px, py, pz);
  std::printf("cluster: %d ranks as a %dx%dx%d domain grid\n", P, px, py, pz);

  auto model = asura::galaxy::GalaxyModel::milkyWayMini();
  asura::galaxy::IcCounts counts;
  counts.n_dm = 20000;
  counts.n_star = 12000;
  counts.n_gas = 8000;
  counts.seed = 11;

  asura::comm::Cluster cluster(P);
  // Written by rank 0 from globally reduced values.
  long misrouted = 0;
  Census before, after;

  const double t0 = asura::util::wtime();
  cluster.run([&](asura::comm::Comm& comm) {
    // Per-domain IC generation (paper §4.2: ICs generated per domain).
    auto mine = asura::galaxy::generateGalaxySlice(model, counts, comm.rank(), P);

    asura::fdps::DomainDecomposer dd(px, py, pz);
    asura::util::Pcg32 rng(1, static_cast<std::uint64_t>(comm.rank()));
    dd.decompose(comm, mine, rng, false);

    const Census sent = globalCensus(comm, mine);
    mine = dd.exchange(comm, mine);
    const Census received = globalCensus(comm, mine);
    long foreign = 0;
    for (const auto& p : mine) {
      if (dd.ownerOf(p.pos) != comm.rank()) ++foreign;
    }
    const long foreign_total = comm.allreduce(foreign, asura::comm::Op::Sum);

    asura::fdps::SourceTree tree;
    tree.build(asura::fdps::makeSourceEntries(mine));
    const auto let = asura::fdps::exchangeGravityLet(comm, dd, tree, 0.5);

    asura::gravity::GravityParams gp;
    gp.theta = 0.5;
    asura::fdps::StepContext ctx;
    const auto stats = asura::gravity::accumulateTreeGravity(
        ctx, mine, let, asura::fdps::targetIndices(mine), gp);

    if (comm.rank() == 0) {
      misrouted = foreign_total;
      before = sent;
      after = received;
      std::printf("  rank 0: %zu local particles, %zu LET imports, %.2e gravity "
                  "interactions\n", mine.size(), let.size(),
                  static_cast<double>(stats.ep_interactions + stats.sp_interactions));
    }
  });
  const auto traffic = cluster.traffic();
  std::printf("particle routing + LET + forces: %.2f s, %llu messages, %.1f MB\n",
              asura::util::wtime() - t0, static_cast<unsigned long long>(traffic.messages),
              static_cast<double>(traffic.bytes) / 1e6);

  if (misrouted != 0) {
    std::printf("FAIL: %ld particles landed on a rank that does not own them\n", misrouted);
    return 1;
  }
  if (after.count != before.count || after.id_sum != before.id_sum) {
    std::printf("FAIL: routing changed the particle census (%ld -> %ld particles, "
                "id sum %llu -> %llu)\n", before.count, after.count,
                static_cast<unsigned long long>(before.id_sum),
                static_cast<unsigned long long>(after.id_sum));
    return 1;
  }
  std::printf("all %ld particles reached their owners on %d ranks\n", after.count, P);
  return 0;
}
