#include "gravity/gravity.hpp"

#include <cmath>

#include "kernels/registry.hpp"
#include "util/omp.hpp"
#include "util/timer.hpp"
#include "util/vec3.hpp"

namespace asura::gravity {

using util::ompThreadId;

void accumulateDirect(std::span<Particle> targets, std::span<const SourceEntry> sources,
                      double G) {
  for (auto& t : targets) {
    Vec3d acc{};
    double pot = 0.0;
    for (const auto& s : sources) {
      const Vec3d dr = t.pos - s.pos;
      const double r2 = dr.norm2();
      if (r2 == 0.0) continue;  // self / coincident
      const double soft2 = t.eps * t.eps + s.eps * s.eps;
      const double rinv = 1.0 / std::sqrt(r2 + soft2);
      const double rinv3 = rinv * rinv * rinv;
      acc -= (G * s.mass * rinv3) * dr;
      pot -= G * s.mass * rinv;
    }
    t.acc += acc;
    t.pot += pot;
  }
}

void evalGroupSoaF64(const Vec3d* target_pos, const double* target_eps, int n_targets,
                     const double* sx, const double* sy, const double* sz,
                     const double* sm, const double* se2, std::size_t ns, double G,
                     Vec3d* acc_out, double* pot_out) {
  for (int i = 0; i < n_targets; ++i) {
    const double px = target_pos[i].x, py = target_pos[i].y, pz = target_pos[i].z;
    const double e2i = target_eps[i] * target_eps[i];
    double ax = 0.0, ay = 0.0, az = 0.0, phi = 0.0;
#pragma omp simd reduction(+ : ax, ay, az, phi)
    for (std::size_t j = 0; j < ns; ++j) {
      const double dx = px - sx[j];
      const double dy = py - sy[j];
      const double dz = pz - sz[j];
      const double r2 = dx * dx + dy * dy + dz * dz;
      const double mj = r2 > 0.0 ? sm[j] : 0.0;
      const double denom = r2 > 0.0 ? r2 + e2i + se2[j] : 1.0;
      const double rinv = 1.0 / std::sqrt(denom);
      const double mr = mj * rinv;
      const double mr3 = mr * rinv * rinv;
      ax -= mr3 * dx;
      ay -= mr3 * dy;
      az -= mr3 * dz;
      phi -= mr;
    }
    acc_out[i] += G * Vec3d{ax, ay, az};
    pot_out[i] += G * phi;
  }
}

GravityStats accumulateTreeGravity(fdps::StepContext& ctx, std::span<Particle> particles,
                                   std::span<const SourceEntry> let_entries,
                                   std::span<const std::uint32_t> targets,
                                   const GravityParams& params) {
  GravityStats stats;
  if (particles.empty() || targets.empty()) return stats;

  const int builds_before = ctx.buildsThisStep();
  const double t0 = util::wtime();
  const fdps::SourceTree& tree = ctx.gravityTree(particles, let_entries, params.leaf_size);
  const auto& groups = ctx.gravityGroups(particles, targets, params.group_size);
  stats.t_build = util::wtime() - t0;
  stats.tree_builds = ctx.buildsThisStep() - builds_before;
  const auto& entries = tree.entries();
  // MixedF32 inner loop: PIKG-generated kernel for the requested ISA
  // (resolved once per pass; all threads run the same backend).
  const pikg::KernelSet& kset = pikg::kernels(params.isa);
  std::uint64_t ep_total = 0, sp_total = 0, targets_total = 0;
  double walk_s = 0.0, kernel_s = 0.0;

#pragma omp parallel reduction(+ : ep_total, sp_total, targets_total, walk_s, kernel_s)
  {
    fdps::ThreadArena& a = ctx.arena(ompThreadId());

#pragma omp for schedule(dynamic)
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& grp = groups[g];
      const double tw = util::wtime();
      a.idx.clear();
      a.sp.clear();
      tree.gatherInteraction(grp.bbox, params.theta, a.idx, a.sp);
      walk_s += util::wtime() - tw;

      const double tk = util::wtime();
      const auto nt = static_cast<int>(grp.indices.size());
      const std::size_t ns = a.idx.size() + a.sp.size();
      if (params.kernel == GravityParams::Kernel::ScalarF64) {
        // Absolute double-precision SoA staging (hand-written reference).
        a.tpos.resize(static_cast<std::size_t>(nt));
        a.teps.resize(static_cast<std::size_t>(nt));
        a.tacc.assign(static_cast<std::size_t>(nt), Vec3d{});
        a.tpot.assign(static_cast<std::size_t>(nt), 0.0);
        for (int i = 0; i < nt; ++i) {
          const Particle& p = particles[grp.indices[static_cast<std::size_t>(i)]];
          a.tpos[static_cast<std::size_t>(i)] = p.pos;
          a.teps[static_cast<std::size_t>(i)] = p.eps;
        }
        a.sx.resize(ns); a.sy.resize(ns); a.sz.resize(ns);
        a.sm.resize(ns); a.se2.resize(ns);
        std::size_t k = 0;
        for (const auto idx : a.idx) {
          const SourceEntry& s = entries[idx];
          a.sx[k] = s.pos.x; a.sy[k] = s.pos.y; a.sz[k] = s.pos.z;
          a.sm[k] = s.mass; a.se2[k] = s.eps * s.eps;
          ++k;
        }
        for (const auto& s : a.sp) {
          a.sx[k] = s.com.x; a.sy[k] = s.com.y; a.sz[k] = s.com.z;
          a.sm[k] = s.mass; a.se2[k] = s.eps * s.eps;
          ++k;
        }
        evalGroupSoaF64(a.tpos.data(), a.teps.data(), nt, a.sx.data(), a.sy.data(),
                        a.sz.data(), a.sm.data(), a.se2.data(), ns, params.G,
                        a.tacc.data(), a.tpot.data());
        for (int i = 0; i < nt; ++i) {
          auto& p = particles[grp.indices[static_cast<std::size_t>(i)]];
          p.acc += a.tacc[static_cast<std::size_t>(i)];
          p.pot += a.tpot[static_cast<std::size_t>(i)];
        }
      } else {
        // Mixed scheme (§4.3): both ends staged relative to the group centre
        // in single precision, PIKG-generated kernel, f64 accumulators.
        Vec3d centre{};
        for (int i = 0; i < nt; ++i) {
          centre += particles[grp.indices[static_cast<std::size_t>(i)]].pos;
        }
        centre /= static_cast<double>(nt);
        a.tx.resize(static_cast<std::size_t>(nt));
        a.ty.resize(static_cast<std::size_t>(nt));
        a.tz.resize(static_cast<std::size_t>(nt));
        a.te2.resize(static_cast<std::size_t>(nt));
        a.tax.assign(static_cast<std::size_t>(nt), 0.0);
        a.tay.assign(static_cast<std::size_t>(nt), 0.0);
        a.taz.assign(static_cast<std::size_t>(nt), 0.0);
        a.tpt.assign(static_cast<std::size_t>(nt), 0.0);
        for (int i = 0; i < nt; ++i) {
          const Particle& p = particles[grp.indices[static_cast<std::size_t>(i)]];
          const Vec3d rel = p.pos - centre;
          a.tx[static_cast<std::size_t>(i)] = static_cast<float>(rel.x);
          a.ty[static_cast<std::size_t>(i)] = static_cast<float>(rel.y);
          a.tz[static_cast<std::size_t>(i)] = static_cast<float>(rel.z);
          a.te2[static_cast<std::size_t>(i)] = static_cast<float>(p.eps * p.eps);
        }
        a.fx.resize(ns); a.fy.resize(ns); a.fz.resize(ns);
        a.fm.resize(ns); a.fe2.resize(ns);
        std::size_t k = 0;
        for (const auto idx : a.idx) {
          const SourceEntry& s = entries[idx];
          const Vec3d rel = s.pos - centre;
          a.fx[k] = static_cast<float>(rel.x);
          a.fy[k] = static_cast<float>(rel.y);
          a.fz[k] = static_cast<float>(rel.z);
          a.fm[k] = static_cast<float>(s.mass);
          a.fe2[k] = static_cast<float>(s.eps * s.eps);
          ++k;
        }
        for (const auto& s : a.sp) {
          const Vec3d rel = s.com - centre;
          a.fx[k] = static_cast<float>(rel.x);
          a.fy[k] = static_cast<float>(rel.y);
          a.fz[k] = static_cast<float>(rel.z);
          a.fm[k] = static_cast<float>(s.mass);
          a.fe2[k] = static_cast<float>(s.eps * s.eps);
          ++k;
        }
        kset.grav(nt, a.tx.data(), a.ty.data(), a.tz.data(), a.te2.data(),
                  static_cast<int>(ns), a.fx.data(), a.fy.data(), a.fz.data(),
                  a.fm.data(), a.fe2.data(), a.tax.data(), a.tay.data(), a.taz.data(),
                  a.tpt.data());
        for (int i = 0; i < nt; ++i) {
          auto& p = particles[grp.indices[static_cast<std::size_t>(i)]];
          p.acc += params.G * Vec3d{a.tax[static_cast<std::size_t>(i)],
                                    a.tay[static_cast<std::size_t>(i)],
                                    a.taz[static_cast<std::size_t>(i)]};
          p.pot += params.G * a.tpt[static_cast<std::size_t>(i)];
        }
      }
      ep_total += static_cast<std::uint64_t>(nt) * a.idx.size();
      sp_total += static_cast<std::uint64_t>(nt) * a.sp.size();
      targets_total += static_cast<std::uint64_t>(nt);
      kernel_s += util::wtime() - tk;
    }
  }

  stats.ep_interactions = ep_total;
  stats.sp_interactions = sp_total;
  stats.targets = targets_total;
  stats.t_walk = walk_s;
  stats.t_kernel = kernel_s;
  return stats;
}

}  // namespace asura::gravity
