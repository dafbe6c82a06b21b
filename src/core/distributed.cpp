#include "core/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fdps/box.hpp"

namespace asura::core {

using comm::Op;
using fdps::Box;
using util::Vec3d;

namespace {

/// Captured particle routed to an SN event's owner rank.
struct EvCapture {
  std::int32_t ev = 0;  ///< index into the globally sorted event list
  Particle p;
};
static_assert(std::is_trivially_copyable_v<EvCapture>);

static_assert(std::is_trivially_copyable_v<stellar::SnEvent>,
              "SN events must be shippable through the comm layer");

}  // namespace

DistributedEngine::DistributedEngine(comm::Comm& comm, DistributedConfig cfg)
    : comm_(comm),
      cfg_([&] {
        if (cfg.px <= 0 || cfg.py <= 0 || cfg.pz <= 0) {
          comm::factor3(comm.size(), cfg.px, cfg.py, cfg.pz);
        }
        return cfg;
      }()),
      dd_(cfg_.px, cfg_.py, cfg_.pz) {
  if (cfg_.px * cfg_.py * cfg_.pz != comm_.size()) {
    throw std::invalid_argument("DistributedEngine: px*py*pz != comm size");
  }
  if (cfg_.use_torus) {
    torus_ = std::make_unique<comm::TorusTopology>(comm_, cfg_.px, cfg_.py, cfg_.pz);
  }
}

int DistributedEngine::reduceMaxInt(int v) { return comm_.allreduce(v, Op::Max); }

void DistributedEngine::allreduceSum(double* vals, int n) {
  if (n <= 0) return;
  const std::vector<double> local(vals, vals + n);
  // allgather + rank-ordered summation: every rank computes the same sum of
  // the same addends in the same order, so the result is bitwise identical
  // across ranks and across repeated calls (a scalar allreduce per element
  // would give the same bits, at n collectives instead of one).
  const auto parts = comm_.allgatherv(local);
  for (int k = 0; k < n; ++k) vals[k] = 0.0;
  for (const auto& p : parts) {
    if (static_cast<int>(p.size()) != n) {
      // A mismatched contribution means the collective was entered with
      // diverging n across ranks — a silent partial sum would break the
      // bitwise rank-invariance contract undetectably.
      throw std::runtime_error("allreduceSum: rank contribution size mismatch");
    }
    for (int k = 0; k < n; ++k) vals[k] += p[k];
  }
}

void DistributedEngine::exchangeParticles(std::vector<Particle>& parts,
                                          fdps::StepContext& ctx, util::Pcg32& rng,
                                          long step) {
  if (attached_) throw std::logic_error("exchangeParticles: detach ghosts first");

  // Arm any step-gated fault plan: "kill rank r at step s" triggers on the
  // first communication this rank performs once it has entered step s.
  comm_.cluster().noteStep(comm_.worldRank(comm_.rank()), step);

  bool decomposed = false;
  if (!dd_.ready() ||
      (cfg_.decompose_interval > 0 && step % cfg_.decompose_interval == 0)) {
    if (cfg_.weighted_decomposition) {
      dd_.decomposeWeighted(comm_, parts, rng, cfg_.sample_cap, cfg_.oversub);
    } else {
      dd_.decompose(comm_, parts, rng, cfg_.sample_cap);
    }
    decomposed = true;
    ++stats_.decompositions;
  } else if (cfg_.weighted_decomposition && dd_.weighted()) {
    // Between full re-decompositions: re-weigh the unchanged segments from
    // the current work counters and move only boundary segments when the
    // imbalance drifted past the threshold. A below-threshold step changes
    // nothing — the exchange cache survives intact.
    double imbalance = 0.0;
    if (dd_.maintain(comm_, parts, cfg_.imbalance_threshold, &imbalance)) {
      decomposed = true;
      ++stats_.rebalances;
    }
    stats_.balance_max_over_mean = imbalance;
  }

  long moved_local = 0;
  for (const auto& p : parts) {
    if (dd_.ownerOf(p.pos) != comm_.rank()) ++moved_local;
  }
  parts = dd_.exchange(comm_, std::move(parts), torus());
  const long moved = comm_.allreduce(moved_local, Op::Sum);
  stats_.migrated = static_cast<int>(moved);
  if (decomposed || moved > 0) {
    // Deterministic local order: force sums, captures and diagnostics
    // iterate in id order regardless of which rank shipped what when. A
    // no-migration, no-recut step preserves the previous step's sorted
    // order bitwise (own-bucket routing keeps iteration order), so the
    // O(N log N) sweep only runs when the exchange actually moved data.
    std::sort(parts.begin(), parts.end(),
              [](const Particle& a, const Particle& b) { return a.id < b.id; });
    // Domain change / migration: both the trees (array content changed) and
    // the imported sets (domain boxes or source populations changed) die.
    ctx.invalidate();
    ctx.invalidateExchange();
    dirty_local_ = true;
  }
}

void DistributedEngine::attachGhosts(std::vector<Particle>& parts,
                                     std::size_t& n_local, fdps::StepContext& ctx) {
  if (attached_) return;
  n_local = parts.size();
  const auto& ghosts = ctx.ghostImports();
  parts.insert(parts.end(), ghosts.begin(), ghosts.end());
  attached_ = true;
}

void DistributedEngine::detachGhosts(std::vector<Particle>& parts,
                                     std::size_t& n_local, fdps::StepContext& ctx) {
  if (!attached_) {
    n_local = parts.size();
    return;
  }
  auto& ghosts = ctx.ghostImports();
  if (n_local > parts.size()) throw std::logic_error("detachGhosts: bad n_local");
  // Preserve the coasted state so a later re-attach resumes mid-step drift.
  ghosts.assign(parts.begin() + static_cast<std::ptrdiff_t>(n_local), parts.end());
  parts.resize(n_local);
  attached_ = false;
}

void DistributedEngine::fullExchange(std::vector<Particle>& parts,
                                     std::size_t& n_local, fdps::StepContext& ctx,
                                     const gravity::GravityParams& grav) {
  detachGhosts(parts, n_local, ctx);

  // Locals-only tree for the export walks (the cached gravity tree holds
  // imports and cannot serve exportLet). The walk provenance is recorded so
  // later passes can refresh the entry *values* without re-walking.
  export_tree_.build(fdps::makeSourceEntries(parts), grav.leaf_size);
  ctx.letImports() = fdps::exchangeGravityLet(comm_, dd_, export_tree_, grav.theta,
                                              torus(), &let_record_);
  // exchangeGravityLet skips the walk loop entirely for an empty local
  // tree, so an empty rank reports 0 walks, not P-1.
  ctx.noteLetExchange(export_tree_.empty() ? 0 : comm_.size() - 1);
  let_drift_ = 0.0;

  const double reach = sph::maxGatherRadius(parts, parts.size());
  ghost_cache_ = fdps::exchangeHydroGhostsCached(comm_, dd_, parts, parts.size(),
                                                 reach, cfg_.ghost_h_margin,
                                                 cfg_.skin, torus());
  ctx.ghostImports() = ghost_cache_.ghosts;
  ctx.noteGhostExchange();

  ctx.invalidate();  // import content changed: trees rebuild lazily
  drift_accum_ = 0.0;
  dirty_local_ = false;
  attachGhosts(parts, n_local, ctx);
}

void DistributedEngine::ensureExchanged(std::vector<Particle>& parts,
                                        std::size_t& n_local, fdps::StepContext& ctx,
                                        const gravity::GravityParams& grav,
                                        bool allow_value_refresh) {
  const bool dirty_mine = dirty_local_ || !ctx.letValid() || !ctx.ghostsValid() ||
                          drift_accum_ > 0.5 * cfg_.skin;
  const int dirty = comm_.allreduce(dirty_mine ? 1 : 0, Op::Max);
  if (dirty != 0) {
    fullExchange(parts, n_local, ctx, grav);
    return;
  }

  ctx.noteLetReuse();
  if (allow_value_refresh && comm_.size() > 1) {
    // Payload-style LET refresh: if any rank drifted since the entry values
    // were last synced, every rank recomputes its exported values from live
    // particle state along the recorded walk structure and re-ships them —
    // an alltoallv, no exportLet walk, no tree build. Both gates are
    // collective reductions so ranks cannot disagree about the exchange
    // (a pre-record checkpoint restores with an empty record on *every*
    // rank, so the Min keeps the cluster out of the refresh together).
    const int ready = comm_.allreduce(let_record_.ready(comm_.size()) ? 1 : 0, Op::Min);
    const int drifted = comm_.allreduce(let_drift_ > 0.0 ? 1 : 0, Op::Max);
    if (ready != 0 && drifted != 0) {
      const bool was_attached = attached_;
      detachGhosts(parts, n_local, ctx);
      ctx.letImports() = fdps::refreshLetValues(comm_, let_record_, parts, torus());
      ctx.noteLetValueRefresh();
      let_drift_ = 0.0;
      if (was_attached) attachGhosts(parts, n_local, ctx);
    }
  }
  if (allow_value_refresh) {
    // Same ghost list, fresh payloads: remote kicks/cooling updates become
    // visible to the density gather without any selection scan or exportLet
    // walk. The call is an alltoallv and therefore collective — the flag
    // feeding this branch is uniform across ranks by construction.
    refreshGhostPayloads(parts, n_local, ctx);
  } else {
    ctx.noteGhostReuse();
    attachGhosts(parts, n_local, ctx);
  }
}

void DistributedEngine::refreshGhostPayloads(std::vector<Particle>& parts,
                                             std::size_t& n_local,
                                             fdps::StepContext& ctx) {
  detachGhosts(parts, n_local, ctx);
  ctx.ghostImports() = fdps::refreshGhostValues(comm_, ghost_cache_, parts, torus());
  ctx.noteGhostValueRefresh();
  attachGhosts(parts, n_local, ctx);
  // Positions and supports moved within an unchanged layout: an O(N)
  // in-place refresh (entry pos + h, node moments) keeps the cached gas
  // tree consistent without a rebuild.
  ctx.refreshGasPositions(parts);
}

bool DistributedEngine::reexchangeIfReachEscaped(std::vector<Particle>& parts,
                                                 std::size_t& n_local,
                                                 fdps::StepContext& ctx) {
  const double reach = sph::maxGatherRadius(parts, n_local);
  const bool escaped_mine = reach > ghost_cache_.exported_reach;
  const int escaped = comm_.allreduce(escaped_mine ? 1 : 0, Op::Max);
  if (escaped == 0) return false;

  // Some rank's supports outgrew what anyone exported to it: rebuild the
  // ghost set around the grown radii. The LET is position-only and stays.
  detachGhosts(parts, n_local, ctx);
  const double grown = sph::maxGatherRadius(parts, parts.size());
  ghost_cache_ = fdps::exchangeHydroGhostsCached(comm_, dd_, parts, parts.size(),
                                                 grown, cfg_.ghost_h_margin,
                                                 cfg_.skin, torus());
  ctx.ghostImports() = ghost_cache_.ghosts;
  ctx.noteGhostExchange();
  attachGhosts(parts, n_local, ctx);
  // Ghost membership (and with it the work-array suffix) changed.
  ctx.invalidate();
  ++stats_.reach_retries;
  return true;
}

bool DistributedEngine::noteReachGiveupIfStillEscaped(
    std::span<const Particle> parts, std::size_t n_local) {
  const double reach = sph::maxGatherRadius(parts, n_local);
  const bool escaped_mine = reach > ghost_cache_.exported_reach;
  const int escaped = comm_.allreduce(escaped_mine ? 1 : 0, Op::Max);
  if (escaped != 0) ++stats_.reach_giveups;
  return escaped != 0;
}

std::vector<stellar::SnEvent> DistributedEngine::gatherEvents(
    std::vector<stellar::SnEvent> local) {
  const auto parts = comm_.allgatherv(local);
  std::vector<stellar::SnEvent> all;
  for (const auto& v : parts) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return std::pair(a.t_explode, a.star_id) < std::pair(b.t_explode, b.star_id);
  });
  return all;
}

int DistributedEngine::captureAndSubmit(std::vector<Particle>& parts,
                                        std::size_t n_local,
                                        const std::vector<stellar::SnEvent>& events,
                                        PoolNodeScheduler* pool, double box_size,
                                        double horizon, long step) {
  // No pool, no capture: freezing gas with nobody to ever unfreeze it would
  // silently halt its thermodynamics. Pool presence is uniform across ranks
  // (it follows use_surrogate), so the early return is collectively safe.
  if (pool == nullptr) return 0;
  const int p = comm_.size();
  const double half = 0.5 * box_size;
  std::vector<std::vector<EvCapture>> outgoing(static_cast<std::size_t>(p));
  // Per-event local captures kept at home (owner == this rank).
  std::vector<std::vector<Particle>> mine(events.size());

  for (std::size_t e = 0; e < events.size(); ++e) {
    const auto& ev = events[e];
    const int owner = dd_.ownerOf(ev.pos);
    Box box;
    box.extend(ev.pos - Vec3d{half, half, half});
    box.extend(ev.pos + Vec3d{half, half, half});
    for (std::size_t i = 0; i < n_local; ++i) {
      auto& q = parts[i];
      if (!q.isGas() || q.frozen) continue;  // one pending prediction at a time
      if (!box.contains(q.pos)) continue;
      q.frozen = 1;
      if (owner == comm_.rank()) {
        mine[e].push_back(q);
      } else {
        outgoing[static_cast<std::size_t>(owner)].push_back(
            {static_cast<std::int32_t>(e), q});
      }
    }
  }

  const auto incoming = torus() ? torus()->alltoallv3d(outgoing)
                                : comm_.alltoallv(outgoing);
  for (int r = 0; r < p; ++r) {
    if (r == comm_.rank()) continue;
    for (const auto& c : incoming[static_cast<std::size_t>(r)]) {
      mine[static_cast<std::size_t>(c.ev)].push_back(c.p);
    }
  }

  int sent = 0;
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (dd_.ownerOf(events[e].pos) != comm_.rank()) continue;
    auto& region = mine[e];
    if (region.empty()) continue;
    std::sort(region.begin(), region.end(),
              [](const Particle& a, const Particle& b) { return a.id < b.id; });
    if (pool != nullptr) {
      pool->submit(step, std::move(region), events[e].pos, events[e].energy, horizon);
      ++sent;
    }
  }
  return sent;
}

std::vector<Particle> DistributedEngine::gatherPredictions(
    const std::vector<std::vector<Particle>>& due) {
  std::vector<Particle> flat;
  for (const auto& region : due) flat.insert(flat.end(), region.begin(), region.end());
  const auto all = comm_.allgatherv(flat);
  std::vector<Particle> merged;
  for (const auto& v : all) merged.insert(merged.end(), v.begin(), v.end());
  return merged;
}

void DistributedEngine::directFeedback(std::vector<Particle>& parts,
                                       std::size_t n_local,
                                       const std::vector<stellar::SnEvent>& events,
                                       double feedback_radius) {
  for (const auto& ev : events) {
    std::vector<std::size_t> sel;
    double mass_local = 0.0;
    for (std::size_t i = 0; i < n_local; ++i) {
      const auto& q = parts[i];
      if (!q.isGas()) continue;
      if ((q.pos - ev.pos).norm() < feedback_radius) {
        sel.push_back(i);
        mass_local += q.mass;
      }
    }
    const double mass_total = comm_.allreduce(mass_local, Op::Sum);
    if (mass_total > 0.0) {
      for (const auto i : sel) parts[i].u += ev.energy / mass_total;
      continue;
    }
    // Nearest-particle fallback, resolved collectively: global minimum
    // distance, ties broken toward the lowest rank.
    double best = std::numeric_limits<double>::max();
    std::size_t arg = n_local;
    for (std::size_t i = 0; i < n_local; ++i) {
      if (!parts[i].isGas()) continue;
      const double d = (parts[i].pos - ev.pos).norm();
      if (d < best) {
        best = d;
        arg = i;
      }
    }
    const double global_best = comm_.allreduce(best, Op::Min);
    if (global_best >= std::numeric_limits<double>::max()) continue;  // no gas at all
    const int claim = (arg < n_local && best == global_best)
                          ? comm_.rank()
                          : std::numeric_limits<int>::max();
    const int winner = comm_.allreduce(claim, Op::Min);
    if (winner == comm_.rank()) parts[arg].u += ev.energy / parts[arg].mass;
  }
}

DistributedEngine::EngineState DistributedEngine::saveState() const {
  if (attached_) throw std::logic_error("saveState: detach ghosts first");
  return {dd_.saveCuts(), ghost_cache_, drift_accum_, dirty_local_, let_record_,
          let_drift_};
}

void DistributedEngine::restoreState(EngineState s) {
  dd_.restoreCuts(std::move(s.cuts));
  ghost_cache_ = std::move(s.ghost_cache);
  drift_accum_ = s.drift_accum;
  dirty_local_ = s.dirty_local;
  let_record_ = std::move(s.let_record);
  let_drift_ = s.let_drift;
  attached_ = false;
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
