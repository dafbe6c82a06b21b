/// \file driver.cpp
/// \brief End-to-end benchmark driver: wall-clock seconds per simulated Myr
/// on three fixed workloads, plus a traced run that breaks the step into
/// the paper's Table 3 layers.
///
///   asura_perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Workloads (inputs are a pure function of the seed):
///   mw_mini_p1   MW-mini galaxy (DM + stellar disc + gas disc) with a
///                steady stream of SN progenitors, the paper's scheme: fixed
///                2,000-yr global steps, SN regions shipped to a U-Net
///                surrogate on a pool thread, star formation and cooling.
///                Serial step path.
///   mw_mini_p8   The same problem stepped by 8 in-process ranks: adds the
///                particle, LET and ghost exchanges and the SN-region
///                capture across ranks.
///   sn_storm_p8  A diffuse gas ball with a dense off-centre clump whose SN
///                progenitors fire in a rolling storm, 8 ranks, block
///                timesteps with the Saitoh-Makino limiter, direct thermal
///                feedback (surrogate bypassed) and the work-weighted
///                Morton-segment decomposition.
///
/// Method. The inputs are generated, the run warmed up for a few steps and
/// the warmed state checkpointed in memory. The timed unit is a *segment*:
/// restore the checkpoint, then step a fixed number of global steps. The
/// same segment repeats until --seconds of segment time have been spent,
/// and every metric is the median over segments, so a faster program runs
/// more repetitions of the same work, never different work. Set-up (input
/// generation, construction of the backend, the simulation(s) and, for
/// multi-rank workloads, the engines, the warm-up steps and the checkpoint)
/// runs several times from scratch and is reported as a median.
///
/// Correctness. Every segment must end in a bitwise-identical state (the
/// restart == continuous gate), conserve the global particle count and
/// mass, keep the energy finite, and finish without a surrogate fallback or
/// a density reach give-up; SNe must go off in it, each shipping exactly one
/// surrogate region when the workload uses the surrogate.
///
/// The last line of stdout is one JSON object with keys correct, attempted
/// (timed global steps), failed (timed steps in segments that failed a
/// check) and metrics: the end-to-end metrics with --trace 0, the per-layer
/// metrics with --trace 1.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "comm/comm.hpp"
#include "core/distributed.hpp"
#include "core/simulation.hpp"
#include "core/surrogate.hpp"
#include "galaxy/galaxy.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/units.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::core::DistributedConfig;
using asura::core::DistributedEngine;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::core::StepStats;
using asura::core::SurrogateBackend;
using asura::core::SurrogateRequest;
using asura::fdps::Particle;
using asura::fdps::Species;
using asura::util::Vec3d;
using asura::util::wtime;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// SN progenitor at `pos` exploding at `t_sn`.
Particle progenitor(std::uint64_t id, const Vec3d& pos, double t_sn) {
  Particle star;
  star.id = id;
  star.type = Species::Star;
  star.mass = 20.0;
  star.star_mass = 20.0;
  star.pos = pos;
  star.t_sn = t_sn;
  star.eps = 0.5;
  return star;
}

/// Model MW at 1/100 mass (Table 2's MW-mini) plus `n_sn` SN progenitors
/// planted on randomly chosen gas particles, one exploding in each of the
/// global steps after `t_first`.
std::vector<Particle> mwMiniIc(std::uint64_t seed, double t_first, double dt,
                               int n_sn) {
  asura::galaxy::IcCounts counts;
  counts.n_dm = 8000;
  counts.n_star = 6000;
  counts.n_gas = 10000;
  counts.seed = seed;
  auto parts = asura::galaxy::generateGalaxy(
      asura::galaxy::GalaxyModel::milkyWayMini(), counts);
  asura::util::Pcg32 rng(seed ^ 0x5eedf00dULL, 7);
  std::vector<std::size_t> gas;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].isGas()) gas.push_back(i);
  }
  for (int k = 0; k < n_sn; ++k) {
    const auto& host = parts[gas[rng.below(static_cast<std::uint32_t>(gas.size()))]];
    parts.push_back(progenitor(10'000'000 + static_cast<std::uint64_t>(k), host.pos,
                               t_first + (k + 0.5) * dt));
  }
  return parts;
}

/// Cold gas ball of about `n` particles (radius pc, density Msun/pc^3) on a
/// cubic lattice with a seeded jitter of 0.2 spacings. The lattice keeps
/// the density free of Poisson clumps, so how deep the SN-heated gas drives
/// the rungs depends little on the seed; which lattice sites lie inside the
/// ball is fixed, so the particle count does not depend on it at all.
std::vector<Particle> gasBall(int n, double radius, double rho, std::uint64_t seed,
                              std::uint64_t first_id, const Vec3d& centre) {
  const double volume = 4.0 / 3.0 * 3.14159265358979 * radius * radius * radius;
  const double a = std::cbrt(volume / n);
  const int m = static_cast<int>(std::ceil(radius / a));
  std::vector<Vec3d> sites;
  for (int i = -m; i <= m; ++i) {
    for (int j = -m; j <= m; ++j) {
      for (int k = -m; k <= m; ++k) {
        const Vec3d site{(i + 0.5) * a, (j + 0.5) * a, (k + 0.5) * a};
        if (site.norm() <= radius) sites.push_back(site);
      }
    }
  }
  asura::util::Pcg32 rng(seed, 11);
  std::vector<Particle> parts;
  parts.reserve(sites.size());
  for (const auto& site : sites) {
    Particle p;
    p.id = first_id + parts.size();
    p.type = Species::Gas;
    p.mass = rho * volume / static_cast<double>(sites.size());
    p.pos = centre + site +
            Vec3d{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)} * a;
    p.u = asura::units::temperature_to_u(100.0, 1.27);
    p.h = radius * std::cbrt(32.0 / static_cast<double>(sites.size()));
    p.eps = 0.2;
    parts.push_back(p);
  }
  return parts;
}

/// SN storm: a diffuse ambient ball (3/4 of the gas) and a dense clump
/// shifted off-centre, with `n_sn` progenitors at the corners of a 0.8-pc
/// cube in the clump exploding on successive global steps — deep rungs
/// concentrated in one pocket, so one rank's share of the work dominates
/// unless the decomposition weighs it.
std::vector<Particle> snStormIc(std::uint64_t seed, int n, int n_sn, double dt) {
  const Vec3d shift{4.0, 4.0, 4.0};
  auto parts = gasBall(3 * n / 4, 10.0, 1.0, seed, 1, {});
  auto clump = gasBall(n - 3 * n / 4, 1.5, 60.0, seed ^ 0x5bd1e995ULL, 1'000'000, shift);
  parts.insert(parts.end(), clump.begin(), clump.end());
  for (int k = 0; k < n_sn; ++k) {
    const Vec3d off{0.4 * ((k & 1) ? 1 : -1), 0.4 * ((k & 2) ? 1 : -1),
                    0.4 * ((k & 4) ? 1 : -1)};
    parts.push_back(progenitor(2'000'000 + static_cast<std::uint64_t>(k), shift + off,
                               1e-9 + k * dt));
  }
  return parts;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  int ranks = 1;           ///< 1: serial step path; > 1: in-process cluster
  int warm_steps = 0;      ///< untimed steps before the checkpoint
  int segment_steps = 0;   ///< global steps per timed segment
  SimulationConfig cfg;
  DistributedConfig dcfg;
  std::function<std::vector<Particle>(std::uint64_t seed)> make_ic;
};

Workload mwMini(int ranks) {
  Workload w;
  w.name = ranks == 1 ? "mw_mini_p1" : "mw_mini_p8";
  w.ranks = ranks;
  w.warm_steps = 2;
  w.segment_steps = 6;
  SimulationConfig& c = w.cfg;
  c.dt_global = 0.002;  // 2,000 yr (paper §3.2)
  c.use_surrogate = true;  // served by the U-Net backend (makeUnet)
  c.n_pool_nodes = 1;
  c.return_interval = 3;  // predictions land inside the segment
  c.surrogate_horizon = c.return_interval * c.dt_global;
  c.sn_box_size = 200.0;  // a few gas particles per region at this resolution
  c.sph.n_ngb = 32;
  c.gravity.theta = 0.6;
  w.dcfg.skin = 5.0;  // pc: disc speeds cover several steps
  const double t_first = w.warm_steps * c.dt_global;
  const double dt = c.dt_global;
  const int n_sn = w.segment_steps;
  w.make_ic = [t_first, dt, n_sn](std::uint64_t seed) {
    return mwMiniIc(seed, t_first, dt, n_sn);
  };
  return w;
}

Workload snStorm() {
  Workload w;
  w.name = "sn_storm_p8";
  w.ranks = 8;
  w.warm_steps = 4;
  w.segment_steps = 3;
  SimulationConfig& c = w.cfg;
  c.dt_global = 0.005;
  c.use_surrogate = false;  // direct thermal injection: the rung collapse
  c.enable_star_formation = false;
  c.hierarchical_timestep = true;
  c.max_rung = 6;
  w.dcfg.skin = 1.0;
  w.dcfg.weighted_decomposition = true;
  w.dcfg.decompose_interval = 0;  // decompose once, maintain() thereafter
  w.dcfg.imbalance_threshold = 1.1;
  const int n_sn = 6;
  const double dt = c.dt_global;
  w.make_ic = [n_sn, dt](std::uint64_t seed) { return snStormIc(seed, 6000, n_sn, dt); };
  return w;
}

// ---------------------------------------------------------------------------
// Surrogate span recorder (trace runs only)
// ---------------------------------------------------------------------------

/// Forwards to the real backend and records the wall time spent inside it
/// (pool threads call it concurrently, so the tallies are atomic).
class TracedBackend final : public SurrogateBackend {
 public:
  explicit TracedBackend(std::shared_ptr<SurrogateBackend> inner)
      : inner_(std::move(inner)) {}

  std::vector<Particle> predict(std::vector<Particle> region, const Vec3d& sn_pos,
                                double energy, double horizon) override {
    const double t0 = wtime();
    auto out = inner_->predict(std::move(region), sn_pos, energy, horizon);
    record(wtime() - t0);
    return out;
  }

  std::vector<std::vector<Particle>> predictBatch(
      std::vector<SurrogateRequest> requests) override {
    const double t0 = wtime();
    auto out = inner_->predictBatch(std::move(requests));
    record(wtime() - t0);
    return out;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void reset() { busy_ns_ = 0; }
  [[nodiscard]] double busySeconds() const { return 1e-9 * static_cast<double>(busy_ns_); }

 private:
  void record(double seconds) { busy_ns_ += static_cast<long>(seconds * 1e9); }

  std::shared_ptr<SurrogateBackend> inner_;
  std::atomic<long> busy_ns_{0};
};

std::shared_ptr<SurrogateBackend> makeUnet() {
  asura::ml::UNetConfig net;
  net.base_width = 4;
  asura::voxel::VoxelParams vp;
  vp.grid_n = 16;
  return std::make_shared<asura::core::UNetSurrogateBackend>(net, vp, 60.0, 2024);
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Program timer categories (Simulation::timers) folded into the reported
/// layers. The three sub-timers overlap the phase categories and are
/// reported separately; every other category is a disjoint step phase.
const std::map<std::string, std::string>& layerOf() {
  static const std::map<std::string, std::string> m = {
      {"Exchange_Particle", "particle_exchange_ms"},
      {"1st Exchange_LET", "let_exchange_ms"},
      {"2nd Exchange_LET", "let_exchange_ms"},
      {"1st Calc_Kernel_Size_and_Density", "density_ms"},
      {"2nd Calc_Kernel_Size", "density_ms"},
      {"1st Make_Local_Tree", "force_ms"},
      {"2nd Make_Tree", "force_ms"},
      {"1st Calc_Force", "force_ms"},
      {"2nd Calc_Force", "force_ms"},
      {"Integration", "integration_ms"},
      {"Final_kick", "integration_ms"},
      {"Identify_SNe", "sn_feedback_ms"},
      {"Send_SNe", "sn_feedback_ms"},
      {"Receive_SNe", "sn_feedback_ms"},
      {"Preprocess_of_Feedback", "sn_feedback_ms"},
      {"Star_Formation", "star_formation_ms"},
      {"Feedback_and_Cooling", "cooling_ms"},
  };
  return m;
}

const std::map<std::string, std::string>& subTimerOf() {
  static const std::map<std::string, std::string> m = {
      {"Tree_Build", "tree_build_ms"},
      {"Tree_Walk (cpu)", "tree_walk_cpu_ms"},
      {"Interaction_Kernel (cpu)", "interaction_kernel_cpu_ms"},
  };
  return m;
}

using Sample = std::map<std::string, double>;

/// One rank's record of one timed segment.
struct RankSegment {
  double wall = 0.0;         ///< segment wall seconds (after the end barrier)
  double restore = 0.0;      ///< checkpoint restore seconds before it
  Sample layer_seconds;      ///< per-layer seconds over the segment
  double phase_seconds = 0;  ///< sum of the disjoint phase categories
  std::uint64_t hash = 0;    ///< local end state
  bool ok = true;
  std::string why;
  StepStats totals;          ///< counters summed over the segment's steps
  double eval_imbalance = 0.0;
  double work_imbalance = 0.0;
};

/// Counters of one segment shared by all ranks (written by rank 0).
struct SegmentShared {
  std::uint64_t comm_bytes = 0;
  std::uint64_t comm_messages = 0;
  double surrogate_busy = 0.0;
};

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t stateHash(const std::vector<Particle>& parts, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p = parts[i];
    const double f[] = {p.mass, p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y,
                        p.vel.z, p.u,    p.h,     p.rho};
    h = fnv(h, &p.id, sizeof p.id);
    h = fnv(h, f, sizeof f);
  }
  return h;
}

void addCounters(StepStats& acc, const StepStats& s) {
  acc.sn_identified += s.sn_identified;
  acc.regions_sent += s.regions_sent;
  acc.surrogate_fallbacks += s.surrogate_fallbacks;
  acc.tree_builds += s.tree_builds;
  acc.substeps += s.substeps;
  acc.force_evaluations += s.force_evaluations;
  acc.let_export_walks += s.let_export_walks;
  acc.ghost_exchanges += s.ghost_exchanges;
  acc.migrated += s.migrated;
  acc.reach_giveups += s.reach_giveups;
  acc.gravity_stats.ep_interactions += s.gravity_stats.ep_interactions;
  acc.gravity_stats.sp_interactions += s.gravity_stats.sp_interactions;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Runs a workload: set-up trials, then the warmed, checkpointed segment loop.
class Runner {
 public:
  Runner(Workload w, Options opt) : w_(std::move(w)), opt_(std::move(opt)) {}

  void run() {
    w_.cfg.seed = opt_.seed;
    per_rank_.assign(static_cast<std::size_t>(w_.ranks), {});
    if (w_.ranks == 1) {
      body(nullptr);
    } else {
      cluster_ = std::make_unique<Cluster>(w_.ranks);
      cluster_->run([this](Comm& comm) { body(&comm); });
    }
  }

  void report() const;

 private:
  static constexpr int kSetupTrials = 3;
  static constexpr int kMinSegments = 3;
  static constexpr int kMaxSegments = 200;

  /// Rank 0's share of one set-up: the inputs and the surrogate backend.
  void makeInputs() {
    ic_ = w_.make_ic(opt_.seed);
    backend_ = w_.cfg.use_surrogate ? makeUnet() : nullptr;
    traced_.reset();
    if (backend_ && opt_.trace) {
      traced_ = std::make_shared<TracedBackend>(backend_);
      backend_ = traced_;
    }
  }

  void body(Comm* comm) {
    const int rank = comm ? comm->rank() : 0;
    const auto sync = [comm] {
      if (comm) comm->barrier();
    };
    auto& mine = per_rank_[static_cast<std::size_t>(rank)];

    // Set-up, timed kSetupTrials times from scratch: inputs, backend,
    // simulation (+ engine), warm-up steps and the in-memory checkpoint.
    // The last trial's simulation and checkpoint are the ones measured.
    std::unique_ptr<Simulation> owned;
    asura::io::ByteWriter ckpt;
    for (int trial = 0; trial < kSetupTrials; ++trial) {
      owned.reset();
      ckpt = asura::io::ByteWriter{};
      sync();
      const double t0 = wtime();
      if (rank == 0) makeInputs();
      sync();
      owned = std::make_unique<Simulation>(
          comm ? asura::core::blockPartition(ic_, rank, w_.ranks) : ic_, w_.cfg, backend_);
      if (comm) owned->attachDistributed(std::make_unique<DistributedEngine>(*comm, w_.dcfg));
      for (int s = 0; s < w_.warm_steps; ++s) (void)owned->step();
      owned->serializeState(ckpt);
      sync();
      if (rank == 0) setup_seconds_.push_back(wtime() - t0);
    }
    Simulation& sim = *owned;
    const auto& bytes = ckpt.bytes();
    const auto [count0, mass0] = globalCountMass(sim, comm);

    double measured = 0.0;
    for (int seg = 0;; ++seg) {
      RankSegment rs;
      // Drain surrogate jobs the previous segment left in flight, then
      // rewind to the warmed state.
      if (sim.pool()) (void)sim.pool()->snapshotResults();
      const double r0 = wtime();
      asura::io::ByteReader reader(bytes.data(), bytes.size());
      sim.restoreState(reader);
      rs.restore = wtime() - r0;

      sync();
      if (rank == 0) {
        if (cluster_) cluster_->resetTraffic();
        if (traced_) traced_->reset();
      }
      const auto before = sim.timers().entries();
      sync();
      const double t0 = wtime();
      for (int s = 0; s < w_.segment_steps; ++s) {
        const StepStats st = sim.step();
        addCounters(rs.totals, st);
        if (st.rank_evals_mean > 0.0) rs.eval_imbalance += st.rank_evals_max / st.rank_evals_mean;
        if (st.rank_work_mean > 0.0) rs.work_imbalance += st.rank_work_max / st.rank_work_mean;
      }
      sync();
      rs.wall = wtime() - t0;
      rs.eval_imbalance /= w_.segment_steps;
      rs.work_imbalance /= w_.segment_steps;
      if (rank == 0) {
        SegmentShared sh;
        if (cluster_) {
          sh.comm_bytes = cluster_->traffic().bytes;
          sh.comm_messages = cluster_->traffic().messages;
        }
        shared_.push_back(sh);
      }
      if (traced_) {
        // Charge the surrogate jobs this segment submitted to it, including
        // those still running on the pool threads of any rank.
        if (sim.pool()) (void)sim.pool()->snapshotResults();
        sync();
        if (rank == 0) shared_.back().surrogate_busy = traced_->busySeconds();
      }
      foldTimers(before, sim.timers().entries(), rs);
      check(sim, comm, count0, mass0, rs);
      mine.push_back(std::move(rs));

      // Rank 0 decides for everyone whether another segment fits.
      if (rank == 0) {
        measured += mine.back().wall;
        more_ = seg + 1 < kMaxSegments &&
                (seg + 1 < kMinSegments || measured < opt_.seconds);
      }
      sync();
      if (!more_) break;
    }
    if (sim.pool()) (void)sim.pool()->snapshotResults();
  }

  static std::pair<double, double> globalCountMass(Simulation& sim, Comm* comm) {
    double v[2] = {static_cast<double>(sim.nLocal()), 0.0};
    for (std::size_t i = 0; i < sim.nLocal(); ++i) v[1] += sim.particles()[i].mass;
    if (comm) {
      v[0] = comm->allreduce(v[0], asura::comm::Op::Sum);
      v[1] = comm->allreduce(v[1], asura::comm::Op::Sum);
    }
    return {v[0], v[1]};
  }

  static void foldTimers(const std::vector<std::pair<std::string, double>>& before,
                         const std::vector<std::pair<std::string, double>>& after,
                         RankSegment& rs) {
    std::map<std::string, double> base(before.begin(), before.end());
    for (const auto& [name, total] : after) {
      const double d = total - base[name];
      if (const auto it = layerOf().find(name); it != layerOf().end()) {
        rs.layer_seconds[it->second] += d;
        rs.phase_seconds += d;
      } else if (const auto jt = subTimerOf().find(name); jt != subTimerOf().end()) {
        rs.layer_seconds[jt->second] += d;
      }
      // A category this driver does not map counts as unattributed.
    }
  }

  /// Post-segment gates (collective on multi-rank workloads).
  static void check(Simulation& sim, Comm* comm, double count0, double mass0,
                    RankSegment& rs) {
    const auto [count, mass] = globalCountMass(sim, comm);
    const auto e = sim.globalEnergyReport();
    rs.hash = stateHash(sim.particles(), sim.nLocal());
    if (count != count0) {
      rs.ok = false;
      rs.why = "particle count changed";
    } else if (std::abs(mass - mass0) > 1e-9 * mass0) {
      rs.ok = false;
      rs.why = "total mass changed";
    } else if (!std::isfinite(e.total())) {
      rs.ok = false;
      rs.why = "non-finite energy";
    } else if (rs.totals.surrogate_fallbacks != 0) {
      rs.ok = false;
      rs.why = "surrogate fallback";
    } else if (rs.totals.reach_giveups != 0) {
      rs.ok = false;
      rs.why = "density reach give-up";
    }
  }

  Workload w_;
  Options opt_;
  std::vector<Particle> ic_;
  std::shared_ptr<SurrogateBackend> backend_;
  std::shared_ptr<TracedBackend> traced_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<double> setup_seconds_;
  std::vector<std::vector<RankSegment>> per_rank_;  ///< [rank][segment]
  std::vector<SegmentShared> shared_;               ///< [segment], rank 0
  std::atomic<bool> more_{true};
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Runner::report() const {
  const auto& seg0 = per_rank_.at(0);
  const std::size_t n_seg = seg0.size();
  const auto nranks = static_cast<double>(w_.ranks);
  const double steps = w_.segment_steps;

  // Correctness: every rank's segments end bitwise identical to segment 0,
  // and every timed window handles SNe — through the surrogate, one region
  // per event, when the workload uses it.
  bool correct = true;
  long failed = 0;
  for (std::size_t s = 0; s < n_seg; ++s) {
    bool ok = true;
    int regions = 0;
    for (const auto& rank_segs : per_rank_) {
      const auto& rs = rank_segs.at(s);
      regions += rs.totals.regions_sent;
      if (!rs.ok) {
        ok = false;
        std::printf("segment %zu: %s\n", s, rs.why.c_str());
      }
      if (rs.hash != rank_segs.at(0).hash) {
        ok = false;
        std::printf("segment %zu: end state differs from segment 0\n", s);
      }
    }
    const int events = seg0[s].totals.sn_identified;  // global: gathered on every rank
    if (events == 0 || (w_.cfg.use_surrogate && regions != events)) {
      ok = false;
      std::printf("segment %zu: %d SNe, %d surrogate regions\n", s, events, regions);
    }
    if (!ok) {
      correct = false;
      failed += w_.segment_steps;
    }
  }
  const long attempted = static_cast<long>(n_seg) * w_.segment_steps;

  // Per-segment values, medians over segments.
  std::map<std::string, std::vector<double>> series;
  for (std::size_t s = 0; s < n_seg; ++s) {
    const double wall = seg0[s].wall;
    const double per_step = 1e3 / steps;  // seconds -> ms per step
    series["wall_s_per_myr"].push_back(wall / (steps * w_.cfg.dt_global));
    series["step_wall_ms"].push_back(wall * per_step);

    // Layer times: mean over ranks, ms per step. Unattributed = wall minus
    // the disjoint phase categories (rank mean).
    Sample layer_mean;  // every layer reported, idle ones at 0
    for (const auto& [cat, layer] : layerOf()) layer_mean[layer] = 0.0;
    for (const auto& [cat, layer] : subTimerOf()) layer_mean[layer] = 0.0;
    double phase_mean = 0.0, restore_max = 0.0;
    StepStats tot;
    for (const auto& rank_segs : per_rank_) {
      const auto& rs = rank_segs.at(s);
      for (const auto& [k, v] : rs.layer_seconds) layer_mean[k] += v / nranks;
      phase_mean += rs.phase_seconds / nranks;
      restore_max = std::max(restore_max, rs.restore);
      addCounters(tot, rs.totals);
    }
    for (const auto& [k, v] : layer_mean) series[k].push_back(v * per_step);
    series["unattributed_ms"].push_back((wall - phase_mean) * per_step);
    series["restore_ms"].push_back(1e3 * restore_max);

    // Counters per global step: rank sums, or rank 0's copy of a counter
    // the program already reduced over ranks.
    const auto& r0 = seg0[s].totals;
    series["force_evals_per_step"].push_back(tot.force_evaluations / steps);
    series["gravity_interactions_per_step"].push_back(
        static_cast<double>(tot.gravity_stats.ep_interactions +
                            tot.gravity_stats.sp_interactions) / steps);
    series["tree_builds_per_step"].push_back(tot.tree_builds / steps);
    series["substeps_per_step"].push_back(r0.substeps / steps);
    series["let_export_walks_per_step"].push_back(tot.let_export_walks / steps);
    series["ghost_exchanges_per_step"].push_back(r0.ghost_exchanges / steps);
    series["migrated_per_step"].push_back(r0.migrated / steps);
    series["rank_eval_imbalance"].push_back(w_.ranks > 1 ? seg0[s].eval_imbalance : 1.0);
    series["rank_work_imbalance"].push_back(w_.ranks > 1 ? seg0[s].work_imbalance : 1.0);
    const auto& sh = shared_.at(s);
    series["comm_bytes_per_step"].push_back(static_cast<double>(sh.comm_bytes) / steps);
    series["comm_messages_per_step"].push_back(static_cast<double>(sh.comm_messages) / steps);
    series["surrogate_busy_pct"].push_back(100.0 * sh.surrogate_busy / wall);
  }
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 1;
#endif
  std::printf("workload %s: seed %llu, %d rank(s) x %d OpenMP thread(s), %zu segments "
              "of %d steps, setup trials %zu\n",
              w_.name.c_str(), static_cast<unsigned long long>(opt_.seed), w_.ranks,
              omp_threads, n_seg, w_.segment_steps, setup_seconds_.size());
  std::printf("segment seconds:");
  for (const auto& rs : seg0) std::printf(" %.4f", rs.wall);
  std::printf("\nsetup seconds:");
  for (const double s : setup_seconds_) std::printf(" %.4f", s);
  std::printf("\n");

  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> out;
  if (!opt_.trace) {
    out.push_back({"wall_s_per_myr", "s/Myr", median(series["wall_s_per_myr"])});
    out.push_back({"setup_s", "s", median(setup_seconds_)});
  } else {
    for (const auto& [k, v] : series) {
      if (k == "wall_s_per_myr") continue;
      std::string unit = "count";
      if (k.ends_with("_ms")) unit = "ms";
      if (k.ends_with("_pct")) unit = "%";
      if (k.ends_with("imbalance")) unit = "ratio";
      if (k.ends_with("bytes_per_step")) unit = "B";
      out.push_back({k, unit, median(v)});
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + num(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown option " + a);
    }
  }
  return o;
}

Workload workloadByName(const std::string& name) {
  if (name == "mw_mini_p1") return mwMini(1);
  if (name == "mw_mini_p8") return mwMini(8);
  if (name == "sn_storm_p8") return snStorm();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parseArgs(argc, argv);
    Runner runner(workloadByName(opt.workload), opt);
    runner.run();
    std::fflush(stdout);
    runner.report();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "asura_perfbench: %s\n", e.what());
    return 2;
  }
}
