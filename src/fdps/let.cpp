#include "fdps/let.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace asura::fdps {

namespace {

/// The record of `p` for import slot `slot`.
GhostRecord toGhostRecord(const Particle& p, std::uint32_t slot) {
  GhostRecord g;
  g.id = p.id;
  g.mass = p.mass;
  g.eps = p.eps;
  g.pos = p.pos;
  g.vel = p.vel;
  g.h = p.h;
  g.rho = p.rho;
  g.u_pred = p.u_pred;
  g.du_dt = p.du_dt;
  g.divv = p.divv;
  g.curlv = p.curlv;
  g.slot = slot;
  g.type = p.type;
  g.rung = p.rung;
  g.frozen = p.frozen;
  return g;
}

/// The ghost a record stands for: the record's fields, Particle{} defaults
/// everywhere else.
Particle fromGhostRecord(const GhostRecord& g) {
  Particle p;
  p.id = g.id;
  p.type = g.type;
  p.mass = g.mass;
  p.eps = g.eps;
  p.pos = g.pos;
  p.vel = g.vel;
  p.h = g.h;
  p.rho = g.rho;
  p.u_pred = g.u_pred;
  p.du_dt = g.du_dt;
  p.divv = g.divv;
  p.curlv = g.curlv;
  p.rung = g.rung;
  p.frozen = g.frozen;
  return p;
}

/// Both refresh forms: ship the records of every export (`all`) or of the
/// exports `changed` flags, validate every incoming message against the
/// layout, then write each record into its slot.
void refreshSlots(comm::Comm& comm, const GhostExchange& cache, std::vector<Particle>& parts,
                  std::size_t n_local, bool all, std::span<const std::uint8_t> changed) {
  const int p = comm.size();
  std::vector<std::vector<GhostRecord>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const auto& idx = cache.export_idx[static_cast<std::size_t>(r)];
    auto& buf = outgoing[static_cast<std::size_t>(r)];
    if (all) buf.reserve(idx.size());
    for (std::size_t s = 0; s < idx.size(); ++s) {
      if (!all && changed[idx[s]] == 0) continue;
      buf.push_back(toGhostRecord(parts.at(idx[s]), static_cast<std::uint32_t>(s)));
    }
  }
  const auto incoming = comm.alltoallv(outgoing);

  std::size_t total = 0;
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const auto& v = incoming[static_cast<std::size_t>(r)];
    const std::size_t count = cache.import_counts[static_cast<std::size_t>(r)];
    if (all ? v.size() != count : v.size() > count) {
      throw std::runtime_error("refreshGhostValues: import layout changed");
    }
    for (const auto& g : v) {
      if (g.slot >= count) {
        throw std::runtime_error(
            "refreshGhostValues: ghost slot " + std::to_string(g.slot) + " from rank " +
            std::to_string(r) + " is not below its import count " + std::to_string(count));
      }
    }
    total += count;
  }
  if (n_local > parts.size() || parts.size() - n_local != total) {
    throw std::runtime_error(
        "refreshGhostValues: ghost suffix length is not the sum of import_counts");
  }

  std::size_t first = n_local;  // the source's first suffix slot
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    for (const auto& g : incoming[static_cast<std::size_t>(r)]) {
      parts[first + g.slot] = fromGhostRecord(g);
    }
    first += cache.import_counts[static_cast<std::size_t>(r)];
  }
}

}  // namespace

std::vector<SourceEntry> exchangeGravityLet(comm::Comm& comm, const DomainDecomposer& dd,
                                            const SourceTree& local_tree, double theta) {
  const int p = comm.size();
  std::vector<std::vector<SourceEntry>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank() || local_tree.empty()) continue;
    local_tree.exportLet(dd.domainOf(r), theta, outgoing[static_cast<std::size_t>(r)]);
  }
  const auto incoming = comm.alltoallv(outgoing);
  std::vector<SourceEntry> result;
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;  // own contribution excluded
    const auto& v = incoming[static_cast<std::size_t>(r)];
    result.insert(result.end(), v.begin(), v.end());
  }
  // Imported entries must not alias local particle indices.
  for (auto& e : result) {
    if (!e.isMultipole()) e.idx = SourceEntry::kMultipole;
  }
  return result;
}

GhostExchange exchangeHydroGhostsCached(comm::Comm& comm, const DomainDecomposer& dd,
                                        std::vector<Particle>& parts, std::size_t n_local,
                                        double local_max_h, double h_margin, double skin) {
  const int p = comm.size();
  n_local = std::min(n_local, parts.size());
  GhostExchange out;
  out.exported_reach = local_max_h * h_margin + skin;
  // Every rank needs to know how far the others' (margin-inflated) gather
  // kernels reach. Exchanging the inflated value is the stale-reach fix: a
  // density solve growing supports by up to h_margin — and both sides
  // drifting by up to skin/2 — stays inside the exported set.
  const std::vector<double> reach = comm.allgather(out.exported_reach);

  out.export_idx.assign(static_cast<std::size_t>(p), {});
  std::vector<std::vector<GhostRecord>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const Box remote = dd.domainOf(r);
    const double remote_reach = reach[static_cast<std::size_t>(r)];
    auto& list = out.export_idx[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < n_local; ++i) {
      const auto& part = parts[i];
      if (!part.isGas()) continue;
      const double d = remote.distance(part.pos);
      if (d <= std::max(part.h * h_margin + skin, remote_reach)) {
        outgoing[static_cast<std::size_t>(r)].push_back(
            toGhostRecord(part, static_cast<std::uint32_t>(list.size())));
        list.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  const auto incoming = comm.alltoallv(outgoing);
  out.import_counts.assign(static_cast<std::size_t>(p), 0);
  parts.resize(n_local);
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const auto& v = incoming[static_cast<std::size_t>(r)];
    out.import_counts[static_cast<std::size_t>(r)] = v.size();
    for (const auto& g : v) parts.push_back(fromGhostRecord(g));
  }
  return out;
}

void refreshGhostValues(comm::Comm& comm, const GhostExchange& cache,
                        std::vector<Particle>& parts, std::size_t n_local) {
  refreshSlots(comm, cache, parts, n_local, /*all=*/true, {});
}

void refreshChangedGhosts(comm::Comm& comm, const GhostExchange& cache,
                          std::vector<Particle>& parts, std::size_t n_local,
                          std::span<const std::uint8_t> changed) {
  if (changed.size() != n_local) {
    throw std::invalid_argument("refreshChangedGhosts: need one changed flag per local");
  }
  refreshSlots(comm, cache, parts, n_local, /*all=*/false, changed);
}

}  // namespace asura::fdps
