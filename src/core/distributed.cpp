#include "core/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "io/particle_codec.hpp"

namespace asura::core {

using comm::Op;

namespace {

/// The domain grid: `ranks` factored into near-cubes.
fdps::DomainDecomposer factoredGrid(int ranks) {
  int px = 0, py = 0, pz = 0;
  comm::factor3(ranks, px, py, pz);
  return {px, py, pz};
}

/// Reject a config whose fields would silently disable the cache or the
/// balancer: a NaN skin never expires the cache, a NaN margin exports no
/// ghosts, and a NaN threshold re-cuts every step.
void validate(const DistributedConfig& cfg) {
  const auto bad = [](const char* field, const char* rule) {
    throw std::invalid_argument(std::string("DistributedConfig: ") + field + " must be " +
                                rule);
  };
  if (cfg.decompose_interval != 0 && cfg.decompose_interval != 1) {
    bad("decompose_interval", "0 or 1");
  }
  if (!std::isfinite(cfg.skin) || cfg.skin < 0.0) bad("skin", "finite and >= 0");
  if (!std::isfinite(cfg.ghost_h_margin) || cfg.ghost_h_margin < 1.0) {
    bad("ghost_h_margin", "finite and >= 1");
  }
  if (!std::isfinite(cfg.imbalance_threshold) || cfg.imbalance_threshold < 1.0) {
    bad("imbalance_threshold", "finite and >= 1");
  }
}

}  // namespace

DistributedEngine::DistributedEngine(comm::Comm& comm, DistributedConfig cfg)
    : comm_(comm), cfg_(cfg), dd_(factoredGrid(comm.size())) {
  validate(cfg_);
}

bool DistributedEngine::exchangeParticles(std::vector<Particle>& parts,
                                          std::size_t& n_local, fdps::StepContext& ctx,
                                          util::Pcg32& rng, long step) {
  // Arm any step-gated fault plan: "kill rank r at step s" triggers on the
  // first communication this rank performs once it has entered step s.
  comm_.cluster().noteStep(comm_.rank(), step);
  changed_.clear();  // the locals may be reordered: flags wait for a full refresh

  const std::span<const Particle> locals(parts.data(), n_local);
  bool decomposed = false;
  if (!dd_.ready() || cfg_.decompose_interval == 1) {
    decomposed = dd_.decompose(comm_, locals, rng, cfg_.weighted_decomposition);
  } else {
    // Measure, then re-cut only past the threshold: a balanced step changes
    // nothing, so the exchange cache survives it unless particles migrate.
    decomposed = dd_.maintain(comm_, locals, rng, cfg_.weighted_decomposition,
                              cfg_.imbalance_threshold, &stats_.balance_max_over_mean);
    if (decomposed) ++stats_.rebalances;
  }

  long moved_local = 0;
  for (const auto& p : locals) {
    if (dd_.ownerOf(p.pos) != comm_.rank()) ++moved_local;
  }
  const long moved = comm_.allreduce(moved_local, Op::Sum);
  stats_.migrated = static_cast<int>(moved);
  if (!decomposed && moved == 0) {
    // The exchange would route every local to its own bucket in order, so
    // skipping it leaves the locals bitwise as shipping would. A stale cache
    // will be rebuilt: drop the ghost suffix with it.
    if (stale_) parts.resize(n_local);
    return false;
  }
  auto owned = dd_.exchange(comm_, locals);
  // Deterministic local order: force sums, captures and diagnostics iterate
  // in id order regardless of which rank shipped what when.
  std::sort(owned.begin(), owned.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  // Domain change / migration: the trees (array content changed), the
  // imported sets (domain boxes or source populations changed) and the
  // ghost suffix die.
  ctx.invalidate();
  stale_ = true;
  parts = std::move(owned);
  n_local = parts.size();
  return true;
}

void DistributedEngine::exchangeLet(std::span<const Particle> locals,
                                    const gravity::GravityParams& grav) {
  // Locals-only tree for the export walks: the cached gravity tree holds
  // imports and cannot serve exportLet.
  export_tree_.build(fdps::makeSourceEntries(locals), grav.leaf_size);
  let_imports_ = fdps::exchangeGravityLet(comm_, dd_, export_tree_, grav.theta);
  ++stats_.let_exchanges;
  // exchangeGravityLet skips the walk loop entirely for an empty local
  // tree, so an empty rank reports 0 walks, not P-1.
  stats_.let_export_walks += export_tree_.empty() ? 0 : comm_.size() - 1;
  let_drift_ = 0.0;
}

void DistributedEngine::fullExchange(std::vector<Particle>& parts, std::size_t n_local,
                                     fdps::StepContext& ctx,
                                     const gravity::GravityParams& grav) {
  exchangeLet({parts.data(), n_local}, grav);

  const double reach = sph::maxGatherRadius(parts, n_local);
  ghost_cache_ = fdps::exchangeHydroGhostsCached(comm_, dd_, parts, n_local, reach,
                                                 cfg_.ghost_h_margin, cfg_.skin);
  ++stats_.ghost_exchanges;

  ctx.invalidate();  // import content changed: trees rebuild lazily
  drift_accum_ = 0.0;
  stale_ = false;
  changed_.assign(n_local, 0);  // every ghost is its home's record
}

void DistributedEngine::ensureExchanged(std::vector<Particle>& parts, std::size_t n_local,
                                        fdps::StepContext& ctx,
                                        const gravity::GravityParams& grav,
                                        bool allow_value_refresh) {
  if (comm_.size() == 1) return;  // no peer, nothing to import
  // 2 if any rank is stale or past skin/2, else 1 if any moved since the LET walk.
  const int mine = stale_ || drift_accum_ > 0.5 * cfg_.skin ? 2 : let_drift_ > 0.0 ? 1 : 0;
  const int state = comm_.allreduce(mine, Op::Max);
  if (state == 2) {
    fullExchange(parts, n_local, ctx, grav);
    return;
  }

  if (allow_value_refresh && state == 1) {
    // A drifted LET is walked again over the current locals. The entry set
    // may change, but only the gravity tree holds it.
    exchangeLet({parts.data(), n_local}, grav);
    ctx.invalidateGravityTree();
  } else {
    ++stats_.let_reuses;
  }
  if (allow_value_refresh) {
    // Same ghost list, fresh records: remote kicks, re-rungs and cooling
    // become visible to the density gather without any selection scan. The
    // call is an alltoallv and therefore collective — the flag feeding this
    // branch is uniform across ranks by construction.
    fdps::refreshGhostValues(comm_, ghost_cache_, parts, n_local);
    changed_.assign(n_local, 0);
    ++stats_.ghost_value_refreshes;
    ctx.refreshGasGhosts(parts);  // see refreshGhostPayloads
  } else {
    ++stats_.ghost_reuses;
  }
}

void DistributedEngine::refreshGhostPayloads(std::vector<Particle>& parts,
                                             std::size_t n_local, fdps::StepContext& ctx) {
  if (comm_.size() == 1) return;
  fdps::refreshChangedGhosts(comm_, ghost_cache_, parts, n_local, changed_);
  std::fill(changed_.begin(), changed_.end(), 0);
  ++stats_.ghost_value_refreshes;
  // Ghost positions and supports moved within an unchanged layout: an O(N)
  // in-place refresh (entry pos + h, node moments) keeps the cached gas
  // tree consistent without a rebuild. The target groups hold locals only
  // and stay.
  ctx.refreshGasGhosts(parts);
}

std::optional<double> DistributedEngine::escapedReach(std::span<const Particle> parts,
                                                     std::size_t n_local) {
  if (comm_.size() == 1) return std::nullopt;
  const double reach = sph::maxGatherRadius(parts, n_local);
  const int any = comm_.allreduce(reach > ghost_cache_.exported_reach ? 1 : 0, Op::Max);
  return any != 0 ? std::optional(reach) : std::nullopt;
}

bool DistributedEngine::reexchangeIfReachEscaped(std::vector<Particle>& parts,
                                                 std::size_t n_local,
                                                 fdps::StepContext& ctx) {
  const auto reach = escapedReach(parts, n_local);
  if (!reach) return false;

  // Some rank's supports outgrew what anyone exported to it: rebuild the
  // ghost set around the grown radii. The LET is position-only and stays.
  ghost_cache_ = fdps::exchangeHydroGhostsCached(comm_, dd_, parts, n_local, *reach,
                                                 cfg_.ghost_h_margin, cfg_.skin);
  ++stats_.ghost_exchanges;
  // Ghost membership (and with it the work-array suffix) changed.
  ctx.invalidate();
  ++stats_.reach_retries;
  return true;
}

void DistributedEngine::noteReachGiveupIfStillEscaped(std::span<const Particle> parts,
                                                      std::size_t n_local) {
  if (escapedReach(parts, n_local)) ++stats_.reach_giveups;
}

template <class Io, class Engine>
void DistributedEngine::stateFields(Io& io, Engine& e, fdps::DomainDecomposer::Cuts& cuts) {
  io(e.let_imports_, e.stale_, cuts.x, cuts.y, cuts.z, e.ghost_cache_, e.drift_accum_,
     e.let_drift_);
}

void DistributedEngine::serializeState(io::ByteWriter& w) const {
  auto cuts = dd_.saveCuts();
  stateFields(w, *this, cuts);
}

void DistributedEngine::restoreState(io::ByteReader& r, std::size_t n_local,
                                     std::size_t n_ghosts) {
  fdps::DomainDecomposer::Cuts cuts;
  stateFields(r, *this, cuts);
  // refreshGhostValues indexes both lists by rank; only an engine that has
  // never exchanged holds neither.
  const auto ranks = static_cast<std::size_t>(comm_.size());
  const bool never_exchanged = stale_ && ghost_cache_.export_idx.empty() &&
                               ghost_cache_.import_counts.empty();
  if (!never_exchanged && (ghost_cache_.export_idx.size() != ranks ||
                           ghost_cache_.import_counts.size() != ranks)) {
    throw std::runtime_error(
        "checkpoint: ghost cache export_idx/import_counts length != comm size");
  }
  // The ghost payload refresh ships the restored locals parts[export_idx].
  for (const auto& list : ghost_cache_.export_idx) {
    for (const auto i : list) {
      if (i >= n_local) {
        throw std::runtime_error("checkpoint: ghost cache export_idx entry >= local count");
      }
    }
  }
  if (stale_) {
    // Phase 0 drops a stale cache's ghost suffix, so a suffix here holds
    // miscounted locals. Every real payload passes: a stepped multi-rank
    // cache is clean, and a one-rank cache never holds a suffix.
    if (n_ghosts != 0) {
      throw std::runtime_error("checkpoint: stale cache with a ghost suffix: local count " +
                               std::to_string(n_local) + " of " +
                               std::to_string(n_local + n_ghosts) + " particles");
    }
  } else {
    // The next full pass refreshes a clean cache's ghosts in place: the
    // suffix must hold exactly the imports the layout describes.
    std::size_t imported = 0;
    for (const auto c : ghost_cache_.import_counts) {
      // Clamped, so corrupt counts cannot wrap the sum around to n_ghosts.
      imported += std::min<std::size_t>(c, n_ghosts + 1);
    }
    if (imported != n_ghosts) {
      throw std::runtime_error(
          "checkpoint: ghost cache import_counts do not sum to the restored ghost count");
    }
  }
  dd_.restoreCuts(std::move(cuts));
  stats_ = ExchangeStats{};
}

std::vector<Particle> blockPartition(const std::vector<Particle>& all, int rank,
                                     int nranks) {
  const std::size_t n = all.size();
  const std::size_t lo = n * static_cast<std::size_t>(rank) /
                         static_cast<std::size_t>(nranks);
  const std::size_t hi = n * static_cast<std::size_t>(rank + 1) /
                         static_cast<std::size_t>(nranks);
  return {all.begin() + static_cast<std::ptrdiff_t>(lo),
          all.begin() + static_cast<std::ptrdiff_t>(hi)};
}

}  // namespace asura::core
