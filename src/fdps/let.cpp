#include "fdps/let.hpp"

#include <algorithm>
#include <stdexcept>

namespace asura::fdps {

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
  std::vector<std::vector<Particle>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const Box remote = dd.domainOf(r);
    const double remote_reach = reach[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < n_local; ++i) {
      const auto& part = parts[i];
      if (!part.isGas()) continue;
      const double d = remote.distance(part.pos);
      if (d <= std::max(part.h * h_margin + skin, remote_reach)) {
        out.export_idx[static_cast<std::size_t>(r)].push_back(
            static_cast<std::uint32_t>(i));
        outgoing[static_cast<std::size_t>(r)].push_back(part);
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
    parts.insert(parts.end(), v.begin(), v.end());
  }
  return out;
}

void refreshGhostValues(comm::Comm& comm, const GhostExchange& cache,
                        std::vector<Particle>& parts, std::size_t n_local) {
  const int p = comm.size();
  std::vector<std::vector<Particle>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const auto& idx = cache.export_idx[static_cast<std::size_t>(r)];
    auto& buf = outgoing[static_cast<std::size_t>(r)];
    buf.reserve(idx.size());
    for (const auto i : idx) buf.push_back(parts.at(i));
  }
  const auto incoming = comm.alltoallv(outgoing);
  std::size_t total = 0;
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const auto n = incoming[static_cast<std::size_t>(r)].size();
    if (n != cache.import_counts[static_cast<std::size_t>(r)]) {
      throw std::runtime_error("refreshGhostValues: import layout changed");
    }
    total += n;
  }
  if (n_local > parts.size() || parts.size() - n_local != total) {
    throw std::runtime_error(
        "refreshGhostValues: ghost suffix length is not the sum of import_counts");
  }
  auto at = parts.begin() + static_cast<std::ptrdiff_t>(n_local);
  for (int r = 0; r < p; ++r) {
    if (r == comm.rank()) continue;
    const auto& v = incoming[static_cast<std::size_t>(r)];
    at = std::copy(v.begin(), v.end(), at);
  }
}

}  // namespace asura::fdps
