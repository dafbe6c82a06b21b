#include "sph/sph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "fdps/tree.hpp"
#include "kernels/registry.hpp"
#include "sph/eos.hpp"
#include "util/omp.hpp"
#include "util/timer.hpp"

namespace asura::sph {

using fdps::SourceEntry;
using fdps::SourceTree;
using fdps::TargetGroup;
using util::ompThreadId;
using util::Vec3d;

DensityStats solveDensity(fdps::StepContext& ctx, std::span<Particle> work,
                          std::span<const std::uint32_t> targets, const SphParams& params) {
  DensityStats stats;
  if (targets.empty()) return stats;
  const int builds_before = ctx.buildsThisStep();
  const double t0 = util::wtime();
  const SourceTree& tree = ctx.gasTree(work, kLeafSize);
  if (tree.empty()) return stats;
  const auto& groups = ctx.gasGroups(work, targets, kGroupSize);
  stats.t_build = util::wtime() - t0;
  stats.tree_builds = ctx.buildsThisStep() - builds_before;
  const auto& entries = tree.entries();
  // Kernel sums run through the PIKG-generated backend for the requested
  // ISA (resolved once per pass; all threads run the same backend).
  const pikg::KernelSet& kset = pikg::kernels(params.isa);
  int max_iter = 0;
  std::uint64_t interactions = 0;
  double walk_s = 0.0, kernel_s = 0.0;

#pragma omp parallel reduction(max : max_iter) reduction(+ : interactions, walk_s, kernel_s)
  {
    fdps::ThreadArena& a = ctx.arena(ompThreadId());

#pragma omp for schedule(dynamic)
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& grp = groups[g];
      const double tg0 = util::wtime();
      const double walk_at_g0 = walk_s;

      // Group-shared candidate gather: one tree walk with the group's
      // maximum support (+30% closure margin) serves every member, and the
      // candidates are staged into SoA once per (group, radius). The seed
      // closure instead re-walked the tree and radius-sorted the candidates
      // per particle per H change — the counting the closure needs is done
      // below by a vectorized compare over squared distances, so a regather
      // only happens when some member's H outgrows the shared radius.
      double search = 0.0;
      auto gatherGroup = [&](double radius) {
        search = radius;
        const double tw = util::wtime();
        a.idx.clear();
        tree.gatherNeighbors(grp.bbox, search, a.idx);
        walk_s += util::wtime() - tw;
        const std::size_t nc = a.idx.size();
        a.sx.resize(nc); a.sy.resize(nc); a.sz.resize(nc); a.sm.resize(nc);
        a.qvx.resize(nc); a.qvy.resize(nc); a.qvz.resize(nc);
        for (std::size_t j = 0; j < nc; ++j) {
          const SourceEntry& s = entries[a.idx[j]];
          const Particle& q = work[s.idx];
          a.sx[j] = s.pos.x; a.sy[j] = s.pos.y; a.sz[j] = s.pos.z;
          a.sm[j] = s.mass;
          a.qvx[j] = q.vel.x; a.qvy[j] = q.vel.y; a.qvz[j] = q.vel.z;
        }
      };
      double group_h = 0.0;
      for (const auto pi : grp.indices) group_h = std::max(group_h, work[pi].h);
      gatherGroup(1.3 * group_h);

      for (const auto pi : grp.indices) {
        Particle& p = work[pi];
        const double px = p.pos.x, py = p.pos.y, pz = p.pos.z;

        // Per-particle squared distances over the shared SoA. Counts are
        // exact for any H <= search: every source within `search` of the
        // group box (hence of any member) is staged.
        auto distances = [&] {
          const std::size_t nc = a.idx.size();
          a.r2.resize(nc);
#pragma omp simd
          for (std::size_t j = 0; j < nc; ++j) {
            const double dx = px - a.sx[j];
            const double dy = py - a.sy[j];
            const double dz = pz - a.sz[j];
            a.r2[j] = dx * dx + dy * dy + dz * dz;
          }
        };
        distances();
        auto countWithin = [&](double radius) {
          const double cut = radius * (1.0 - 1e-15);
          const double cut2 = cut * cut;
          const std::size_t nc = a.r2.size();
          int c = 0;
#pragma omp simd reduction(+ : c)
          for (std::size_t j = 0; j < nc; ++j) c += a.r2[j] <= cut2 ? 1 : 0;
          return c;
        };

        // Neighbour-count closure solved on counts of N(H) = #{r < H}: the
        // count needs no kernel evaluations, is exactly monotone in H, and
        // converges in a handful of closure-scaled / bisection steps even
        // though N is a noisy step function — the discreteness that defeats
        // a pure Newton iteration on rho(H). Acceptance band
        // +-max(2, 5%) neighbours, standard in SPH codes.
        double H = p.h;
        const int tol = std::max(2, params.n_ngb / 20);
        double lo = 0.0, hi = 0.0;  // bracket (hi == 0: not yet found)
        int it = 0;
        for (; it < kMaxHIterations; ++it) {
          if (H > search) {
            gatherGroup(1.3 * H);
            distances();
          }
          const int cnt = countWithin(H);
          if (std::abs(cnt - params.n_ngb) <= tol) break;
          if (cnt > params.n_ngb) {
            hi = H;
          } else {
            lo = H;
            // If every gathered candidate is inside, the true count may be
            // larger; the regather above handles growth next iteration.
          }
          double H_new;
          if (cnt > 0) {
            // Closure-scaled proposal: H ~ (n_ngb / N)^{1/3}.
            H_new = H * std::cbrt(static_cast<double>(params.n_ngb) /
                                  static_cast<double>(cnt));
          } else {
            H_new = 2.0 * H;
          }
          if (hi > 0.0) {
            // Keep proposals inside the bracket; fall back to bisection.
            if (H_new <= lo || H_new >= hi) H_new = 0.5 * (lo + hi);
            if (hi - lo < 1e-10 * hi) {
              H = hi;  // discrete jump straddles the target; take the
                       // smallest support containing >= n_ngb - tol
              break;
            }
          } else {
            H_new = std::clamp(H_new, 0.5 * H, 2.0 * H);
          }
          H = H_new;
        }
        max_iter = std::max(max_iter, it + 1);

        // Final gather statistics with the converged support: compact the
        // survivors, then one scalar pass for the kernel sums.
        if (H > search) {
          gatherGroup(1.3 * H);
          distances();
        }
        const double cut = H * (1.0 - 1e-15);
        const double cut2 = cut * cut;
        a.sel.clear();
        const std::size_t nc = a.r2.size();
        for (std::size_t j = 0; j < nc; ++j) {
          if (a.r2[j] <= cut2) a.sel.push_back(static_cast<std::uint32_t>(j));
        }
        // Pack the survivors into contiguous SoA and run the PIKG density
        // kernel (rho plus the un-normalized div/curl estimators).
        const std::size_t nsel = a.sel.size();
        a.kx.resize(nsel); a.ky.resize(nsel); a.kz.resize(nsel);
        a.km.resize(nsel);
        a.kvx.resize(nsel); a.kvy.resize(nsel); a.kvz.resize(nsel);
        for (std::size_t t = 0; t < nsel; ++t) {
          const std::size_t j = a.sel[t];
          a.kx[t] = a.sx[j]; a.ky[t] = a.sy[j]; a.kz[t] = a.sz[j];
          a.km[t] = a.sm[j];
          a.kvx[t] = a.qvx[j]; a.kvy[t] = a.qvy[j]; a.kvz[t] = a.qvz[j];
        }
        const double pvx = p.vel.x, pvy = p.vel.y, pvz = p.vel.z;
        const double hinv = 1.0 / H;
        const double hinv3 = hinv * hinv * hinv;
        const double hinv4 = hinv3 * hinv;
        double rho = 0.0, div = 0.0;
        double clx = 0.0, cly = 0.0, clz = 0.0;
        kset.dens(1, &px, &py, &pz, &pvx, &pvy, &pvz, &hinv, &hinv3, &hinv4,
                  static_cast<int>(nsel), a.kx.data(), a.ky.data(), a.kz.data(),
                  a.km.data(), a.kvx.data(), a.kvy.data(), a.kvz.data(),
                  pikg::gen::kCubicSplineW, &rho, &div, &clx, &cly, &clz);
        interactions += nsel;
        p.h = H;
        p.rho = rho;
        p.nngb = static_cast<int>(nsel);
        p.divv = rho > 0.0 ? div / rho : 0.0;
        p.curlv = rho > 0.0 ? Vec3d{clx, cly, clz}.norm() / rho : 0.0;
        p.pres = pressure(rho, p.u);
        p.cs = soundSpeed(p.u);
        // A density target's u is current (it was just kicked), so its
        // prediction re-syncs here; inactive neighbours keep coasting on
        // the u_pred the drift sweep advances.
        p.u_pred = p.u;
      }
      kernel_s += util::wtime() - tg0 - (walk_s - walk_at_g0);
    }
  }

  // Propagate the converged supports into the cached tree so the hydro
  // force (and a possible second pass) reuses it without a rebuild.
  ctx.refreshGasSmoothing(work);

  stats.max_iterations = max_iter;
  stats.interactions = interactions;
  stats.t_walk = walk_s;
  stats.t_kernel = kernel_s;
  return stats;
}

ForceStats accumulateHydroForce(fdps::StepContext& ctx, std::span<Particle> work,
                                std::span<const std::uint32_t> targets,
                                const SphParams& params,
                                std::vector<std::uint64_t>* wake_out) {
  ForceStats stats;
  if (wake_out != nullptr) wake_out->clear();
  if (targets.empty()) return stats;
  const int builds_before = ctx.buildsThisStep();
  const double t0 = util::wtime();
  const SourceTree& tree = ctx.gasTree(work, kLeafSize);
  if (tree.empty()) return stats;
  const auto& groups = ctx.gasGroups(work, targets, kGroupSize);
  stats.t_build = util::wtime() - t0;
  stats.tree_builds = ctx.buildsThisStep() - builds_before;
  const auto& entries = tree.entries();
  // Pair math runs through the PIKG-generated backend; the host keeps the
  // prefilter, neighbour selection, and limiter bookkeeping.
  const pikg::KernelSet& kset = pikg::kernels(params.isa);
  std::uint64_t interactions = 0;
  double walk_s = 0.0, kernel_s = 0.0;
  double dt_cfl = std::numeric_limits<double>::infinity();

#pragma omp parallel reduction(+ : interactions, walk_s, kernel_s) reduction(min : dt_cfl)
  {
    fdps::ThreadArena& a = ctx.arena(ompThreadId());
    a.wake.clear();

#pragma omp for schedule(dynamic)
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& grp = groups[g];
      // Group-level candidate gather: radius = max support in the group;
      // scatter side handled by the tree's per-node max_h.
      double group_h = 0.0;
      for (const auto pi : grp.indices) group_h = std::max(group_h, work[pi].h);
      const double tw = util::wtime();
      a.idx.clear();
      tree.gatherNeighbors(grp.bbox, group_h, a.idx);
      walk_s += util::wtime() - tw;

      const double tk = util::wtime();
      // Stage the shared candidate list into SoA once per group: every
      // particle in the group then runs a vectorized distance prefilter
      // over packed arrays instead of chasing 240-byte Particle records.
      const std::size_t nc = a.idx.size();
      a.sx.resize(nc); a.sy.resize(nc); a.sz.resize(nc);
      a.sm.resize(nc); a.qh.resize(nc);
      a.qvx.resize(nc); a.qvy.resize(nc); a.qvz.resize(nc);
      a.qrho.resize(nc); a.qpres.resize(nc); a.qcs.resize(nc);
      a.qdivv.resize(nc); a.qcurlv.resize(nc);
      a.qidx.resize(nc);
      a.qrung.resize(nc);
      a.qhinv.resize(nc); a.qhh.resize(nc); a.qh4.resize(nc);
      a.qp2.resize(nc); a.qbal.resize(nc);
      for (std::size_t j = 0; j < nc; ++j) {
        const SourceEntry& s = entries[a.idx[j]];
        const Particle& q = work[s.idx];
        a.sx[j] = s.pos.x; a.sy[j] = s.pos.y; a.sz[j] = s.pos.z;
        a.sm[j] = s.mass; a.qh[j] = s.h;
        a.qvx[j] = q.vel.x; a.qvy[j] = q.vel.y; a.qvz[j] = q.vel.z;
        // Thermodynamics from the *predicted* u: for an active neighbour
        // u_pred == u and this reproduces q.pres/q.cs exactly (same EOS,
        // same inputs); for an inactive one it is the drift-advanced
        // estimate at the current sub-step time instead of the state frozen
        // at its last closing. (Predicting rho through the continuity
        // equation as well was tried and rejected: mixed-epoch density
        // estimates break the pairwise symmetry SPH conservation leans on
        // and measurably worsen blastwave drift.)
        a.qrho[j] = q.rho;
        a.qpres[j] = pressure(q.rho, q.u_pred);
        a.qcs[j] = soundSpeed(q.u_pred);
        a.qdivv[j] = q.divv; a.qcurlv[j] = q.curlv;
        a.qidx[j] = s.idx;
        a.qrung[j] = q.rung;
        // Pure j-quantities of the pair kernel, staged once per group:
        // supports, P/rho^2, and the Balsara factor.
        const double Hj = s.h;
        const double hj = 0.5 * Hj;
        const double hinv_j = 1.0 / Hj;
        const double hinv2_j = hinv_j * hinv_j;
        a.qhinv[j] = hinv_j;
        a.qhh[j] = hj;
        a.qh4[j] = hinv2_j * hinv2_j;
        a.qp2[j] = a.qpres[j] / (q.rho * q.rho);
        const double cj = a.qcs[j];
        a.qbal[j] = std::abs(q.divv) /
                    (std::abs(q.divv) + q.curlv + 1e-4 * cj / std::max(hj, 1e-30));
      }
      a.r2.resize(nc);

      for (const auto pi : grp.indices) {
        Particle& p = work[pi];
        const double Hi = p.h;
        const double Pi_rho2 = p.pres / (p.rho * p.rho);
        const double ci = p.cs;
        const double hi = 0.5 * Hi;
        const double balsara_i =
            std::abs(p.divv) /
            (std::abs(p.divv) + p.curlv + 1e-4 * ci / std::max(hi, 1e-30));

        // Vectorized distance prefilter ...
        const double px = p.pos.x, py = p.pos.y, pz = p.pos.z;
#pragma omp simd
        for (std::size_t j = 0; j < nc; ++j) {
          const double dx = px - a.sx[j];
          const double dy = py - a.sy[j];
          const double dz = pz - a.sz[j];
          a.r2[j] = dx * dx + dy * dy + dz * dz;
        }
        // ... then compact the true neighbours (r < max(Hi, Hj), not self).
        a.sel.clear();
        for (std::size_t j = 0; j < nc; ++j) {
          const double rmax = std::max(Hi, a.qh[j]);
          if (a.r2[j] < rmax * rmax && a.r2[j] > 0.0 && a.qidx[j] != pi) {
            a.sel.push_back(static_cast<std::uint32_t>(j));
          }
        }

        // Timestep-limiter bookkeeping (host-side integers): deepest
        // neighbour rung, plus wake requests for pairs lagging this
        // (active) target by more than the allowed gap.
        int rung_ngb = 0;
        const int rung_i = static_cast<int>(p.rung);
        for (const auto j : a.sel) {
          const int rung_j = static_cast<int>(a.qrung[j]);
          rung_ngb = std::max(rung_ngb, rung_j);
          if (wake_out != nullptr && rung_i - rung_j > kLimiterGap) {
            a.wake.push_back(packWake(pi, a.qidx[j]));
          }
        }
        interactions += a.sel.size();

        // Pack the selected neighbours into contiguous SoA and run the PIKG
        // pair kernel (symmetrized gradient + Monaghan viscosity + signal
        // velocity max-reduction).
        const std::size_t nsel = a.sel.size();
        a.kx.resize(nsel); a.ky.resize(nsel); a.kz.resize(nsel);
        a.km.resize(nsel);
        a.kvx.resize(nsel); a.kvy.resize(nsel); a.kvz.resize(nsel);
        a.khf.resize(nsel); a.khh.resize(nsel); a.khi.resize(nsel);
        a.kh4.resize(nsel); a.kp2.resize(nsel); a.krho.resize(nsel);
        a.kcs.resize(nsel); a.kbal.resize(nsel);
        for (std::size_t t = 0; t < nsel; ++t) {
          const std::size_t j = a.sel[t];
          a.kx[t] = a.sx[j]; a.ky[t] = a.sy[j]; a.kz[t] = a.sz[j];
          a.km[t] = a.sm[j];
          a.kvx[t] = a.qvx[j]; a.kvy[t] = a.qvy[j]; a.kvz[t] = a.qvz[j];
          a.khf[t] = a.qh[j]; a.khh[t] = a.qhh[j]; a.khi[t] = a.qhinv[j];
          a.kh4[t] = a.qh4[j]; a.kp2[t] = a.qp2[j]; a.krho[t] = a.qrho[j];
          a.kcs[t] = a.qcs[j]; a.kbal[t] = a.qbal[j];
        }
        const double pvx = p.vel.x, pvy = p.vel.y, pvz = p.vel.z;
        const double hinv_i = 1.0 / Hi;
        const double hinv2_i = hinv_i * hinv_i;
        const double hinv4_i = hinv2_i * hinv2_i;
        const double rho_i = p.rho;
        double fax = 0.0, fay = 0.0, faz = 0.0, dudt = 0.0;
        double vsig = ci;
        kset.hydro(1, &px, &py, &pz, &pvx, &pvy, &pvz, &Hi, &hi, &hinv_i, &hinv4_i,
                   &Pi_rho2, &rho_i, &ci, &balsara_i, static_cast<int>(nsel),
                   a.kx.data(), a.ky.data(), a.kz.data(), a.km.data(), a.kvx.data(),
                   a.kvy.data(), a.kvz.data(), a.khf.data(), a.khh.data(),
                   a.khi.data(), a.kh4.data(), a.kp2.data(), a.krho.data(),
                   a.kcs.data(), a.kbal.data(), pikg::gen::kCubicSplineDw,
                   kAlphaVisc, kBetaVisc, &fax, &fay, &faz, &dudt, &vsig);

        p.acc += Vec3d{fax, fay, faz};
        p.du_dt = dudt;
        p.vsig = vsig;
        p.rung_ngb = static_cast<std::uint8_t>(rung_ngb);
        // The adaptive baseline's CFL minimum falls out of this pass for
        // free — no separate full-particle cflTimestep sweep needed.
        if (vsig > 0.0) dt_cfl = std::min(dt_cfl, kCfl * 0.5 * Hi / vsig);
      }
      kernel_s += util::wtime() - tk;
    }
  }

  if (wake_out != nullptr) {
    // Merge the per-thread request lists and canonicalize: which arena holds
    // which request depends on dynamic scheduling, but the sorted multiset
    // depends only on particle state — the integrator's wake processing (and
    // with it every kick) stays bitwise identical across thread counts.
    wake_out->clear();
    for (int t = 0; t < ctx.numArenas(); ++t) {
      auto& w = ctx.arena(t).wake;
      wake_out->insert(wake_out->end(), w.begin(), w.end());
      w.clear();
    }
    std::sort(wake_out->begin(), wake_out->end());
  }

  stats.interactions = interactions;
  stats.t_walk = walk_s;
  stats.t_kernel = kernel_s;
  stats.dt_cfl_min = dt_cfl;
  return stats;
}

double cflTimestep(std::span<const Particle> gas) {
  double dt = std::numeric_limits<double>::max();
  for (const auto& p : gas) {
    if (!p.isGas()) continue;
    const double v = std::max(p.vsig, p.cs);
    if (v > 0.0) dt = std::min(dt, kCfl * 0.5 * p.h / v);
  }
  return dt;
}

double maxGatherRadius(std::span<const Particle> particles, std::size_t n_local) {
  double m = 0.0;
  for (std::size_t i = 0; i < n_local && i < particles.size(); ++i) {
    if (particles[i].isGas()) m = std::max(m, particles[i].h);
  }
  return m;
}

}  // namespace asura::sph
