// Tests for the FDPS-like framework: Morton keys, octree invariants,
// neighbour search, multisection domain decomposition, particle exchange,
// and LET completeness.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "comm/comm.hpp"
#include "comm/torus.hpp"
#include "fdps/box.hpp"
#include "fdps/domain.hpp"
#include "fdps/let.hpp"
#include "fdps/morton.hpp"
#include "fdps/tree.hpp"
#include "util/rng.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::comm::TorusTopology;
using asura::fdps::Box;
using asura::fdps::DomainDecomposer;
using asura::fdps::Particle;
using asura::fdps::SourceEntry;
using asura::fdps::SourceTree;
using asura::fdps::Species;
using asura::util::Pcg32;
using asura::util::Vec3d;

std::vector<Particle> randomParticles(int n, std::uint64_t seed, double box = 100.0) {
  Pcg32 rng(seed);
  std::vector<Particle> parts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& p = parts[static_cast<std::size_t>(i)];
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.mass = rng.uniform(0.5, 1.5);
    p.pos = {rng.uniform(-box, box), rng.uniform(-box, box), rng.uniform(-box, box)};
    p.vel = {rng.normal(), rng.normal(), rng.normal()};
    p.eps = 0.1;
    p.h = 5.0;
    p.type = (i % 3 == 0) ? Species::Gas : Species::DarkMatter;
  }
  return parts;
}

// ---------------------------------------------------------------------------
// Box
// ---------------------------------------------------------------------------

TEST(BoxTest, ExtendAndContains) {
  Box b;
  EXPECT_FALSE(b.valid());
  b.extend({0, 0, 0});
  b.extend({1, 2, 3});
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(b.contains({0.5, 1.0, 2.9}));
  EXPECT_FALSE(b.contains({1.5, 0.0, 0.0}));
  EXPECT_EQ(b.center(), Vec3d(0.5, 1.0, 1.5));
}

TEST(BoxTest, PointDistance) {
  Box b{{0, 0, 0}, {1, 1, 1}};
  EXPECT_DOUBLE_EQ(b.distance(Vec3d{0.5, 0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(b.distance(Vec3d{2.0, 0.5, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(b.distance(Vec3d{2.0, 2.0, 0.5}), std::sqrt(2.0));
}

TEST(BoxTest, BoxDistanceAndInflate) {
  Box a{{0, 0, 0}, {1, 1, 1}};
  Box b{{3, 0, 0}, {4, 1, 1}};
  EXPECT_DOUBLE_EQ(a.distance(b), 2.0);
  EXPECT_DOUBLE_EQ(a.inflated(1.0).distance(b), 1.0);
  Box c{{0.5, 0.5, 0.5}, {2, 2, 2}};
  EXPECT_DOUBLE_EQ(a.distance(c), 0.0);
}

TEST(BoxTest, BoundingCubeIsCubicAndCovers) {
  Box b{{0, 0, 0}, {4, 2, 1}};
  const Box c = b.boundingCube();
  const Vec3d e = c.extent();
  EXPECT_NEAR(e.x, e.y, 1e-9);
  EXPECT_NEAR(e.y, e.z, 1e-9);
  EXPECT_LE(c.lo.x, 0.0);
  EXPECT_GE(c.hi.x, 4.0);
}

// ---------------------------------------------------------------------------
// Morton keys
// ---------------------------------------------------------------------------

TEST(Morton, SpreadBitsInterleaves) {
  EXPECT_EQ(asura::fdps::spreadBits21(0b1ULL), 0b1ULL);
  EXPECT_EQ(asura::fdps::spreadBits21(0b11ULL), 0b1001ULL);
  EXPECT_EQ(asura::fdps::spreadBits21(0b101ULL), 0b1000001ULL);
}

TEST(Morton, OctantOrdering) {
  const Box cube{{0, 0, 0}, {1, 1, 1}};
  // x is the most significant dimension in our key layout.
  const auto k_lo = asura::fdps::mortonKey({0.1, 0.1, 0.1}, cube);
  const auto k_x = asura::fdps::mortonKey({0.9, 0.1, 0.1}, cube);
  const auto k_y = asura::fdps::mortonKey({0.1, 0.9, 0.1}, cube);
  const auto k_z = asura::fdps::mortonKey({0.1, 0.1, 0.9}, cube);
  EXPECT_LT(k_lo, k_z);
  EXPECT_LT(k_z, k_y);
  EXPECT_LT(k_y, k_x);
  EXPECT_EQ(asura::fdps::octantAtLevel(k_x, 0), 4u);
  EXPECT_EQ(asura::fdps::octantAtLevel(k_y, 0), 2u);
  EXPECT_EQ(asura::fdps::octantAtLevel(k_z, 0), 1u);
}

TEST(Morton, PointsOutsideCubeClamp) {
  const Box cube{{0, 0, 0}, {1, 1, 1}};
  EXPECT_EQ(asura::fdps::mortonKey({-5.0, -5.0, -5.0}, cube), 0u);
  const auto k = asura::fdps::mortonKey({5.0, 5.0, 5.0}, cube);
  EXPECT_EQ(k, asura::fdps::mortonKey({0.999999999, 0.999999999, 0.999999999}, cube));
}

// ---------------------------------------------------------------------------
// SourceTree
// ---------------------------------------------------------------------------

TEST(Tree, MomentsMatchDirectSums) {
  const auto parts = randomParticles(500, 42);
  SourceTree tree;
  tree.build(asura::fdps::makeSourceEntries(parts));
  double m = 0.0;
  Vec3d com{};
  for (const auto& p : parts) {
    m += p.mass;
    com += p.mass * p.pos;
  }
  com /= m;
  EXPECT_NEAR(tree.totalMass(), m, 1e-9 * m);
  const auto& root = tree.nodes()[0];
  EXPECT_NEAR(root.com.x, com.x, 1e-9 * std::abs(com.x) + 1e-12);
  EXPECT_NEAR(root.com.y, com.y, 1e-9 * std::abs(com.y) + 1e-12);
}

TEST(Tree, NodeRangesPartitionEntries) {
  const auto parts = randomParticles(300, 7);
  SourceTree tree;
  tree.build(asura::fdps::makeSourceEntries(parts), 8);
  for (const auto& n : tree.nodes()) {
    ASSERT_LE(n.first + n.count, tree.entries().size());
    // bbox must contain all entries of the node.
    for (std::uint32_t i = n.first; i < n.first + n.count; ++i) {
      EXPECT_LE(n.bbox.distance(tree.entries()[i].pos), 1e-12);
    }
  }
  // All original indices present exactly once.
  std::set<std::uint32_t> idx;
  for (const auto& e : tree.entries()) idx.insert(e.idx);
  EXPECT_EQ(idx.size(), parts.size());
}

TEST(Tree, EmptyTree) {
  SourceTree tree;
  tree.build({});
  EXPECT_TRUE(tree.empty());
  std::vector<std::uint32_t> ep;
  std::vector<asura::fdps::Monopole> sp;
  tree.gatherInteraction(Box{{0, 0, 0}, {1, 1, 1}}, 0.5, ep, sp);
  EXPECT_TRUE(ep.empty());
  EXPECT_TRUE(sp.empty());
}

TEST(Tree, InteractionListCoversTotalMass) {
  const auto parts = randomParticles(1000, 3);
  SourceTree tree;
  tree.build(asura::fdps::makeSourceEntries(parts));
  Box target;
  target.extend({-10, -10, -10});
  target.extend({10, 10, 10});
  std::vector<std::uint32_t> ep;
  std::vector<asura::fdps::Monopole> sp;
  tree.gatherInteraction(target, 0.5, ep, sp);
  double m = 0.0;
  for (auto i : ep) m += tree.entries()[i].mass;
  for (const auto& s : sp) m += s.mass;
  EXPECT_NEAR(m, tree.totalMass(), 1e-9 * tree.totalMass());
}

TEST(Tree, ThetaZeroGivesAllParticles) {
  const auto parts = randomParticles(200, 5);
  SourceTree tree;
  tree.build(asura::fdps::makeSourceEntries(parts));
  Box target;
  target.extend({0, 0, 0});
  std::vector<std::uint32_t> ep;
  std::vector<asura::fdps::Monopole> sp;
  tree.gatherInteraction(target, 0.0, ep, sp);
  EXPECT_EQ(ep.size(), parts.size());
  EXPECT_TRUE(sp.empty());
}

TEST(Tree, NeighborGatherFindsAllInRadius) {
  const auto parts = randomParticles(2000, 11);
  SourceTree tree;
  tree.build(asura::fdps::makeSourceEntries(parts));
  const Vec3d centre{10.0, -5.0, 3.0};
  const double radius = 20.0;
  Box target;
  target.extend(centre);

  std::vector<std::uint32_t> found;
  tree.gatherNeighbors(target, radius, found);
  std::set<std::uint32_t> found_ids;
  for (auto i : found) found_ids.insert(tree.entries()[i].idx);

  for (std::uint32_t i = 0; i < parts.size(); ++i) {
    const double d = (parts[i].pos - centre).norm();
    if (d < radius) {
      EXPECT_TRUE(found_ids.count(i)) << "missing neighbor at distance " << d;
    }
  }
}

TEST(Tree, TargetGroupsPartitionAndRespectSize) {
  const auto parts = randomParticles(500, 13);
  const auto groups = asura::fdps::makeTargetGroups(parts, 64);
  std::set<std::uint32_t> seen;
  for (const auto& g : groups) {
    EXPECT_LE(g.indices.size(), 64u);
    EXPECT_FALSE(g.indices.empty());
    for (auto i : g.indices) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index";
      EXPECT_LE(g.bbox.distance(parts[i].pos), 1e-12);
    }
  }
  EXPECT_EQ(seen.size(), parts.size());
}

TEST(Tree, GasOnlyGroups) {
  const auto parts = randomParticles(300, 17);
  const auto groups = asura::fdps::makeTargetGroups(parts, 32, /*gas_only=*/true);
  std::size_t n_gas = 0;
  for (const auto& p : parts) n_gas += p.isGas() ? 1 : 0;
  std::size_t in_groups = 0;
  for (const auto& g : groups) {
    for (auto i : g.indices) {
      EXPECT_TRUE(parts[i].isGas());
      ++in_groups;
    }
  }
  EXPECT_EQ(in_groups, n_gas);
}

// ---------------------------------------------------------------------------
// Domain decomposition
// ---------------------------------------------------------------------------

TEST(Domain, SerialDecompositionBalances) {
  auto parts = randomParticles(8000, 23);
  DomainDecomposer dd(2, 2, 2);
  dd.decomposeSerial(parts);
  std::map<int, int> counts;
  for (const auto& p : parts) counts[dd.ownerOf(p.pos)]++;
  ASSERT_EQ(counts.size(), 8u);
  for (const auto& [r, c] : counts) {
    EXPECT_NEAR(c, 1000, 150) << "rank " << r;
  }
}

TEST(Domain, DomainsAreDisjointAndCoverSpace) {
  auto parts = randomParticles(5000, 29);
  DomainDecomposer dd(3, 2, 2);
  dd.decomposeSerial(parts);
  Pcg32 rng(99);
  for (int i = 0; i < 2000; ++i) {
    const Vec3d p{rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(-200, 200)};
    const int owner = dd.ownerOf(p);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 12);
    // The owner's box must contain the point; all other boxes must not.
    int containing = 0;
    for (int r = 0; r < 12; ++r) {
      if (dd.domainOf(r).contains(p)) {
        ++containing;
        EXPECT_EQ(r, owner);
      }
    }
    EXPECT_EQ(containing, 1);
  }
}

TEST(Domain, CentrallyConcentratedDistributionMakesThinCentralDomains) {
  // Galaxy-like: r^-2-ish concentration -> central domains much smaller
  // (the Fig. 4 effect).
  Pcg32 rng(31);
  std::vector<Particle> parts(20000);
  for (auto& p : parts) {
    const double r = 50.0 * std::pow(rng.uniform(1e-4, 1.0), 1.5);
    p.pos = r * rng.isotropic();
  }
  DomainDecomposer dd(4, 4, 1);
  dd.decomposeSerial(parts);
  const Box frame{{-50, -50, -50}, {50, 50, 50}};
  double min_vol = 1e300, max_vol = 0.0;
  for (int r = 0; r < 16; ++r) {
    const Box b = dd.domainOfClamped(r, frame);
    const Vec3d e = b.extent();
    const double v = e.x * e.y * e.z;
    min_vol = std::min(min_vol, v);
    max_vol = std::max(max_vol, v);
  }
  EXPECT_GT(max_vol / min_vol, 10.0);
}

TEST(Domain, ParallelDecomposeMatchesAcrossRanks) {
  const int P = 8;
  Cluster cluster(P);
  cluster.run([&](Comm& comm) {
    auto parts = randomParticles(1000, 100 + static_cast<std::uint64_t>(comm.rank()));
    DomainDecomposer dd(2, 2, 2);
    Pcg32 rng(1, static_cast<std::uint64_t>(comm.rank()));
    dd.decompose(comm, parts, rng);
    // All ranks agree on the decomposition: compare a fingerprint.
    double fp = 0.0;
    for (int r = 0; r < P; ++r) {
      const Box b = dd.domainOfClamped(r, Box{{-100, -100, -100}, {100, 100, 100}});
      fp += b.lo.x + 2 * b.hi.y + 3 * b.lo.z;
    }
    const auto all = comm.allgather(fp);
    for (double v : all) EXPECT_DOUBLE_EQ(v, fp);
  });
}

TEST(Domain, ExchangeDeliversEveryParticleToItsOwner) {
  const int P = 8;
  Cluster cluster(P);
  cluster.run([&](Comm& comm) {
    auto parts = randomParticles(500, 200 + static_cast<std::uint64_t>(comm.rank()));
    DomainDecomposer dd(2, 2, 2);
    Pcg32 rng(2, static_cast<std::uint64_t>(comm.rank()));
    dd.decompose(comm, parts, rng);
    auto mine = dd.exchange(comm, parts);
    for (const auto& p : mine) EXPECT_EQ(dd.ownerOf(p.pos), comm.rank());
    // Global particle count conserved.
    const auto total = comm.allreduce(static_cast<long long>(mine.size()),
                                      asura::comm::Op::Sum);
    EXPECT_EQ(total, 500LL * P);
  });
}

TEST(Domain, ExchangeViaTorusMatchesFlat) {
  const int P = 8;
  Cluster cluster(P);
  cluster.run([&](Comm& comm) {
    auto parts = randomParticles(300, 300 + static_cast<std::uint64_t>(comm.rank()));
    DomainDecomposer dd(2, 2, 2);
    Pcg32 rng(3, static_cast<std::uint64_t>(comm.rank()));
    dd.decompose(comm, parts, rng);
    TorusTopology torus(comm, 2, 2, 2);
    auto flat = dd.exchange(comm, parts);
    auto via_torus = dd.exchange(comm, parts, &torus);
    // Same multiset of particle ids.
    auto key = [](const Particle& p) { return p.id; };
    std::vector<std::uint64_t> a, b;
    for (const auto& p : flat) a.push_back(key(p));
    for (const auto& p : via_torus) b.push_back(key(p));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  });
}

// ---------------------------------------------------------------------------
// LET
// ---------------------------------------------------------------------------

TEST(Let, ExportConservesMass) {
  const auto parts = randomParticles(2000, 37);
  SourceTree tree;
  tree.build(asura::fdps::makeSourceEntries(parts));
  const Box remote{{200, 200, 200}, {300, 300, 300}};
  std::vector<SourceEntry> out;
  tree.exportLet(remote, 0.5, out);
  double m = 0.0;
  for (const auto& e : out) m += e.mass;
  EXPECT_NEAR(m, tree.totalMass(), 1e-9 * tree.totalMass());
  // A distant box should receive mostly multipoles (compressed view).
  EXPECT_LT(out.size(), parts.size() / 4);
}

TEST(Let, NearbyBoxGetsRawParticles) {
  const auto parts = randomParticles(500, 41);
  SourceTree tree;
  tree.build(asura::fdps::makeSourceEntries(parts));
  const Box remote{{-100, -100, -100}, {100, 100, 100}};  // overlaps everything
  std::vector<SourceEntry> out;
  tree.exportLet(remote, 0.5, out);
  std::size_t raw = 0;
  for (const auto& e : out) raw += e.isMultipole() ? 0 : 1;
  EXPECT_EQ(raw, parts.size());
}

TEST(Let, GravityLetExchangeMassConsistency) {
  const int P = 8;
  Cluster cluster(P);
  cluster.run([&](Comm& comm) {
    auto parts = randomParticles(400, 500 + static_cast<std::uint64_t>(comm.rank()));
    DomainDecomposer dd(2, 2, 2);
    Pcg32 rng(4, static_cast<std::uint64_t>(comm.rank()));
    dd.decompose(comm, parts, rng);
    auto mine = dd.exchange(comm, parts);

    SourceTree tree;
    tree.build(asura::fdps::makeSourceEntries(mine));
    const auto let = asura::fdps::exchangeGravityLet(comm, dd, tree, 0.5);

    double local_mass = 0.0;
    for (const auto& p : mine) local_mass += p.mass;
    double let_mass = 0.0;
    for (const auto& e : let) let_mass += e.mass;

    // local + imported LET mass == global mass on every rank.
    const double global = comm.allreduce(local_mass, asura::comm::Op::Sum);
    EXPECT_NEAR(local_mass + let_mass, global, 1e-8 * global);
  });
}

TEST(Let, HydroGhostsContainAllKernelOverlaps) {
  const int P = 8;
  Cluster cluster(P);
  cluster.run([&](Comm& comm) {
    auto parts = randomParticles(400, 700 + static_cast<std::uint64_t>(comm.rank()));
    for (auto& p : parts) {
      p.type = Species::Gas;
      p.h = 8.0;
    }
    DomainDecomposer dd(2, 2, 2);
    Pcg32 rng(5, static_cast<std::uint64_t>(comm.rank()));
    dd.decompose(comm, parts, rng);
    auto mine = dd.exchange(comm, parts);

    double max_h = 0.0;
    for (const auto& p : mine) max_h = std::max(max_h, p.h);
    const auto ghosts =
        asura::fdps::exchangeHydroGhostsCached(comm, dd, mine, mine.size(), max_h, 1.0, 0.0)
            .ghosts;

    // Check against a global gather: every remote particle within max(h_i,
    // h_j) of our domain must be in the ghost list.
    std::vector<double> flat;
    for (const auto& p : mine) {
      flat.push_back(p.pos.x);
      flat.push_back(p.pos.y);
      flat.push_back(p.pos.z);
      flat.push_back(p.h);
      flat.push_back(static_cast<double>(p.id));
    }
    const auto all = comm.allgatherv(flat);
    const Box home = dd.domainOf(comm.rank());

    std::set<std::uint64_t> ghost_ids;
    for (const auto& g : ghosts) ghost_ids.insert(g.id);

    for (int r = 0; r < P; ++r) {
      if (r == comm.rank()) continue;
      const auto& v = all[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i + 4 < v.size(); i += 5) {
        const Vec3d pos{v[i], v[i + 1], v[i + 2]};
        const double h = v[i + 3];
        const auto id = static_cast<std::uint64_t>(v[i + 4]);
        if (home.distance(pos) <= std::max(h, max_h)) {
          EXPECT_TRUE(ghost_ids.count(id)) << "missing ghost";
        }
      }
    }
  });
}

}  // namespace
