#include "fdps/let.hpp"

#include <algorithm>
#include <stdexcept>

namespace asura::fdps {

std::vector<SourceEntry> exchangeGravityLet(comm::Comm& comm, const DomainDecomposer& dd,
                                            const SourceTree& local_tree, double theta,
                                            comm::TorusTopology* torus,
                                            LetExportRecord* record) {
  const int p = comm.size();
  std::vector<std::vector<SourceEntry>> outgoing(static_cast<std::size_t>(p));
  if (record) {
    record->items.assign(static_cast<std::size_t>(p), {});
    record->perm.clear();
    for (const auto& e : local_tree.entries()) record->perm.push_back(e.idx);
  }
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank() || local_tree.empty()) continue;
    local_tree.exportLet(dd.domainOf(r), theta, outgoing[static_cast<std::size_t>(r)],
                         record ? &record->items[static_cast<std::size_t>(r)] : nullptr);
  }
  const auto incoming = torus ? torus->alltoallv3d(outgoing) : comm.alltoallv(outgoing);
  std::vector<SourceEntry> result;
  if (record) record->import_counts.assign(static_cast<std::size_t>(p), 0);
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;  // own contribution excluded
    const auto& v = incoming[static_cast<std::size_t>(r)];
    if (record) record->import_counts[static_cast<std::size_t>(r)] = v.size();
    result.insert(result.end(), v.begin(), v.end());
  }
  // Imported entries must not alias local particle indices.
  for (auto& e : result) {
    if (!e.isMultipole()) e.idx = SourceEntry::kMultipole;
  }
  return result;
}

std::vector<SourceEntry> refreshLetValues(comm::Comm& comm, const LetExportRecord& record,
                                          const std::vector<Particle>& particles,
                                          comm::TorusTopology* torus) {
  const int p = comm.size();
  if (!record.ready(p)) {
    throw std::logic_error("refreshLetValues: record does not match comm size");
  }
  std::vector<std::vector<SourceEntry>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const auto& items = record.items[static_cast<std::size_t>(r)];
    auto& buf = outgoing[static_cast<std::size_t>(r)];
    buf.reserve(items.size());
    for (const auto& item : items) {
      SourceEntry e;
      e.idx = SourceEntry::kMultipole;  // imports never alias local indices
      if (item.count == 0) {
        const auto& part = particles.at(record.perm.at(item.first));
        e.pos = part.pos;
        e.mass = part.mass;
        e.eps = part.eps;
        e.h = part.isGas() ? part.h : 0.0;
      } else {
        // Direct monopole summation in ascending recorded order: the order
        // is a pure function of the serialized record, so a restored run
        // reproduces these values bitwise.
        double mass = 0.0;
        Vec3d mpos{};
        double meps = 0.0;
        for (std::uint32_t j = item.first; j < item.first + item.count; ++j) {
          const auto& part = particles.at(record.perm.at(j));
          mass += part.mass;
          mpos += part.pos * part.mass;
          meps += part.eps * part.mass;
        }
        if (mass > 0.0) {
          e.pos = mpos / mass;
          e.eps = meps / mass;
        } else {
          e.pos = particles.at(record.perm.at(item.first)).pos;
          e.eps = particles.at(record.perm.at(item.first)).eps;
        }
        e.mass = mass;
        e.h = 0.0;
      }
      buf.push_back(e);
    }
  }
  const auto incoming = torus ? torus->alltoallv3d(outgoing) : comm.alltoallv(outgoing);
  std::vector<SourceEntry> result;
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const auto& v = incoming[static_cast<std::size_t>(r)];
    if (v.size() != record.import_counts[static_cast<std::size_t>(r)]) {
      throw std::runtime_error("refreshLetValues: import layout changed");
    }
    result.insert(result.end(), v.begin(), v.end());
  }
  return result;
}

GhostExchange exchangeHydroGhostsCached(comm::Comm& comm, const DomainDecomposer& dd,
                                        const std::vector<Particle>& particles,
                                        std::size_t n_local, double local_max_h,
                                        double h_margin, double skin,
                                        comm::TorusTopology* torus) {
  const int p = comm.size();
  n_local = std::min(n_local, particles.size());
  GhostExchange out;
  out.exported_reach = local_max_h * h_margin + skin;
  // Every rank needs to know how far the others' (margin-inflated) gather
  // kernels reach. Exchanging the inflated value is the stale-reach fix: a
  // density solve growing supports by up to h_margin — and both sides
  // drifting by up to skin/2 — stays inside the exported set.
  const std::vector<double> reach = comm.allgather(out.exported_reach);

  out.export_idx.assign(static_cast<std::size_t>(p), {});
  std::vector<std::vector<Particle>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const Box remote = dd.domainOf(r);
    const double remote_reach = reach[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < n_local; ++i) {
      const auto& part = particles[i];
      if (!part.isGas()) continue;
      const double d = remote.distance(part.pos);
      if (d <= std::max(part.h * h_margin + skin, remote_reach)) {
        out.export_idx[static_cast<std::size_t>(r)].push_back(
            static_cast<std::uint32_t>(i));
        outgoing[static_cast<std::size_t>(r)].push_back(part);
      }
    }
  }
  const auto incoming = torus ? torus->alltoallv3d(outgoing) : comm.alltoallv(outgoing);
  out.import_counts.assign(static_cast<std::size_t>(p), 0);
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const auto& v = incoming[static_cast<std::size_t>(r)];
    out.import_counts[static_cast<std::size_t>(r)] = v.size();
    out.ghosts.insert(out.ghosts.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<Particle> refreshGhostValues(comm::Comm& comm, const GhostExchange& cache,
                                         const std::vector<Particle>& particles,
                                         comm::TorusTopology* torus) {
  const int p = comm.size();
  std::vector<std::vector<Particle>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const auto& idx = cache.export_idx[static_cast<std::size_t>(r)];
    auto& buf = outgoing[static_cast<std::size_t>(r)];
    buf.reserve(idx.size());
    for (const auto i : idx) buf.push_back(particles.at(i));
  }
  const auto incoming = torus ? torus->alltoallv3d(outgoing) : comm.alltoallv(outgoing);
  std::vector<Particle> result;
  result.reserve(cache.ghosts.size());
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const auto& v = incoming[static_cast<std::size_t>(r)];
    if (v.size() != cache.import_counts[static_cast<std::size_t>(r)]) {
      throw std::runtime_error("refreshGhostValues: import layout changed");
    }
    result.insert(result.end(), v.begin(), v.end());
  }
  return result;
}

}  // namespace asura::fdps
