// scenario_server — host a scripted multi-instance session on the scenario
// service and report what happened.
//
// The tool is the service's operational smoke: it creates a fleet of
// instances, runs them concurrently on the worker pool, exercises the
// control plane mid-flight (pause/resume one instance, clone another, issue
// an ROI query), optionally archives everything to restorable checkpoints,
// and — unless told not to — verifies each instance's final snapshot
// byte-for-byte against an unhosted rerun of the same initial conditions.
// Exit status is 0 when every instance parked where it should with a
// verified state, 1 on any divergence or failed instance, 2 on usage
// errors, so CI can gate on it directly:
//
//     scenario_server --smoke && echo "service healthy"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "io/serialize.hpp"
#include "service/scenario_service.hpp"
#include "util/rng.hpp"

namespace {

using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::fdps::Particle;
using asura::fdps::Species;
using asura::service::InstanceId;
using asura::service::InstanceInfo;
using asura::service::ScenarioService;
using asura::service::ServiceConfig;
using asura::service::Snapshot;

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: scenario_server [options]\n"
               "\n"
               "Host a scripted multi-instance session: create a fleet, run\n"
               "it concurrently, pause/resume + clone + ROI-query mid-flight,\n"
               "verify every final state bitwise against an unhosted rerun.\n"
               "\n"
               "  --instances N   fleet size (default 4)\n"
               "  --steps N       target step per instance (default 16)\n"
               "  --particles N   gas particles per instance (default 128)\n"
               "  --workers N     service worker threads (default 4)\n"
               "  --budget N      steps per lease, fairness quantum (default 3)\n"
               "  --archive DIR   archive each instance to DIR/inst<i>.ckpt\n"
               "  --no-verify     skip the bitwise solo-rerun check\n"
               "  --smoke         tiny fleet (2 instances, 6 steps, 64 parts)\n"
               "  -h, --help      this text\n");
}

std::vector<Particle> fleetIc(int n, int i) {
  asura::util::Pcg32 rng(0x5EEDull + static_cast<std::uint64_t>(i));
  std::vector<Particle> parts;
  parts.reserve(static_cast<std::size_t>(n));
  const double radius = 5.0 + 0.3 * i;
  for (int k = 0; k < n; ++k) {
    Particle p;
    p.id = static_cast<std::uint64_t>(k + 1);
    p.type = Species::Gas;
    // Rejection-sample a uniform ball; mild Hubble-like inflow so the
    // fleet's dynamics are not static.
    for (;;) {
      const double x = 2.0 * rng.uniform() - 1.0;
      const double y = 2.0 * rng.uniform() - 1.0;
      const double z = 2.0 * rng.uniform() - 1.0;
      if (x * x + y * y + z * z <= 1.0) {
        p.pos = {radius * x, radius * y, radius * z};
        break;
      }
    }
    p.vel = {-0.02 * p.pos.x, -0.02 * p.pos.y, -0.02 * p.pos.z};
    p.mass = 1.0;
    p.u = 120.0;
    p.h = 1.5;
    parts.push_back(p);
  }
  return parts;
}

SimulationConfig fleetConfig() {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 24;
  cfg.dt_global = 0.005;
  return cfg;
}

std::vector<char> soloBytes(int particles, int i, const SimulationConfig& cfg,
                            long steps) {
  Simulation sim(fleetIc(particles, i), cfg);
  for (long s = 0; s < steps; ++s) sim.step();
  asura::io::ByteWriter w;
  sim.serializeState(w);
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  int instances = 4;
  long steps = 16;
  int particles = 128;
  ServiceConfig scfg;
  scfg.n_workers = 4;
  scfg.step_budget = 3;
  scfg.snapshot_interval = 4;
  std::string archive_dir;
  bool verify = true;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "scenario_server: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "--instances") {
      instances = std::atoi(next());
    } else if (arg == "--steps") {
      steps = std::atol(next());
    } else if (arg == "--particles") {
      particles = std::atoi(next());
    } else if (arg == "--workers") {
      scfg.n_workers = std::atoi(next());
    } else if (arg == "--budget") {
      scfg.step_budget = std::atol(next());
    } else if (arg == "--archive") {
      archive_dir = next();
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--smoke") {
      instances = 2;
      steps = 6;
      particles = 64;
      scfg.n_workers = 2;
    } else {
      std::fprintf(stderr, "scenario_server: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (instances < 1 || steps < 2 || particles < 8) {
    std::fprintf(stderr, "scenario_server: need >=1 instance, >=2 steps, >=8 particles\n");
    return 2;
  }

  const SimulationConfig cfg = fleetConfig();
  bool ok = true;
  try {
    ScenarioService svc(scfg);

    std::printf("scenario_server: fleet of %d instances x %ld steps "
                "(%d particles each) on %d workers, budget %ld\n",
                instances, steps, particles, scfg.n_workers, scfg.step_budget);

    std::vector<InstanceId> ids;
    for (int i = 0; i < instances; ++i) {
      ids.push_back(svc.create({"fleet-" + std::to_string(i),
                                fleetIc(particles, i), cfg, nullptr}));
    }
    // Everyone runs halfway first...
    const long half = steps / 2;
    for (InstanceId id : ids) svc.start(id, half);
    svc.waitIdle();

    // ...then the control plane gets exercised mid-session, from this
    // thread while the workers step the rest of the fleet: instance 0 is
    // cloned (the clone rides along to the end), and instance 0 answers an
    // ROI query before resuming.
    for (std::size_t i = 1; i < ids.size(); ++i) svc.start(ids[i], steps);
    const InstanceId offshoot = svc.clone(ids[0], "offshoot");
    asura::voxel::RoiSpec spec;
    spec.box_size = 10.0;
    spec.grid_n = 8;
    const auto roi = svc.queryRoi(ids[0], spec);
    std::printf("  ROI query at step %ld: %d^3 cube, total mass %.6g\n",
                roi.step, roi.grid.n, roi.grid.totalMass());

    svc.start(ids[0], steps);
    svc.start(offshoot, steps);
    svc.waitIdle();

    std::printf("  %-12s %-10s %6s %6s %9s %9s %6s\n", "name", "state",
                "step", "time", "beats", "snaps", "retry");
    for (const InstanceInfo& info : svc.list()) {
      std::printf("  %-12s %-10s %6ld %6.2f %9" PRIu64 " %9ld %6d\n",
                  info.name.c_str(), asura::service::toString(info.state),
                  info.step, info.time, info.heartbeats, info.snapshots,
                  info.retries);
      if (info.state != asura::service::InstanceState::Paused ||
          info.step != steps) {
        std::fprintf(stderr, "scenario_server: %s did not park at step %ld: %s\n",
                     info.name.c_str(), steps, info.last_error.c_str());
        ok = false;
      }
    }

    if (verify) {
      for (int i = 0; i < instances; ++i) {
        const Snapshot snap = svc.latestSnapshot(ids[static_cast<std::size_t>(i)]);
        if (!snap.bytes || *snap.bytes != soloBytes(particles, i, cfg, steps)) {
          std::fprintf(stderr,
                       "scenario_server: instance %d diverged from its solo run\n", i);
          ok = false;
        }
      }
      // The clone forked from instance 0's halfway snapshot and shares its
      // rng stream: its end state must equal instance 0's exactly.
      const Snapshot s0 = svc.latestSnapshot(ids[0]);
      const Snapshot sc = svc.latestSnapshot(offshoot);
      if (!s0.bytes || !sc.bytes || *s0.bytes != *sc.bytes) {
        std::fprintf(stderr, "scenario_server: clone diverged from its source\n");
        ok = false;
      }
      if (ok) std::printf("  verify: every final state bitwise == solo rerun\n");
    }

    if (!archive_dir.empty()) {
      for (int i = 0; i < instances; ++i) {
        const std::string path =
            archive_dir + "/inst" + std::to_string(i) + ".ckpt";
        svc.archive(ids[static_cast<std::size_t>(i)], path);
        std::printf("  archived %s\n", path.c_str());
      }
      svc.archive(offshoot, archive_dir + "/offshoot.ckpt");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_server: %s\n", e.what());
    return 1;
  }

  std::printf("scenario_server: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
