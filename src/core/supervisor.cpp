#include "core/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "comm/watchdog.hpp"
#include "io/checkpoint.hpp"

namespace asura::core {

namespace {

/// Sleep before the first retry, doubling before each later one.
constexpr double kBackoffInitialMs = 5.0;
constexpr double kBackoffFactor = 2.0;

}  // namespace

Supervisor::Supervisor(comm::Cluster& cluster, SupervisorConfig cfg)
    : cluster_(cluster), cfg_(std::move(cfg)) {
  // Same descriptive-reject pattern as Simulation::validateConfig: nonsense
  // interval/deadline values fail loudly at construction, not as a wedged or
  // snapshot-less run later.
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("SupervisorConfig: " + what);
  };
  if (cfg_.snapshot_interval <= 0) bad("snapshot_interval must be positive");
  if (cfg_.max_retries < 0) bad("max_retries must be non-negative");
  if (cfg_.watchdog && !(cfg_.watchdog_deadline_s > 0.0)) {
    bad("watchdog_deadline_s must be positive");
  }
  if (cfg_.watchdog && !(cfg_.watchdog_poll_s > 0.0)) {
    bad("watchdog_poll_s must be positive");
  }
}

long Supervisor::commonRingStep() const {
  if (rings_.empty()) return -1;
  for (long s : rings_.front().validSteps()) {
    bool everywhere = true;
    for (const auto& ring : rings_) {
      if (!ring.find(s)) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) return s;
  }
  return -1;
}

void Supervisor::attemptBody(comm::Comm& comm, long target_step,
                             const AttemptPlan& plan, long resume_step,
                             const Factory& make, const Finisher& on_complete,
                             std::vector<long>& progress,
                             std::vector<StepStats>& health) {
  const int rank = comm.rank();
  const auto ri = static_cast<std::size_t>(rank);
  auto sim = make(comm, plan);
  if (!sim) throw std::runtime_error("supervisor: factory returned null");

  SnapshotRing& ring = rings_[ri];
  if (resume_step >= 0) {
    SnapshotEntry* entry = ring.find(resume_step);
    if (!entry) {
      throw std::runtime_error("supervisor: rank " + std::to_string(rank) +
                               " has no ring entry for step " +
                               std::to_string(resume_step));
    }
    // A corrupt entry is poisoned, so the next attempt falls back to an
    // older common step.
    SnapshotRing::restoreEntry(*entry, *sim, plan.level,
                               "supervisor rank " + std::to_string(rank));
  } else if (ring.lastStep() != sim->stepCount()) {
    // Fresh start: seed the ring with the pre-step state so even a failure
    // before the first interval snapshot rolls back instead of restarting
    // from a rebuilt IC.
    ring.push(*sim);
  }

  // Liveness: every step (and sub-step) publishes through the cluster's
  // heartbeat slots, so the watchdog can tell slow from stuck — serial and
  // distributed ranks alike.
  sim->setProgressReporter([this, rank](long step, int phase) {
    cluster_.noteStep(rank, step, phase);
  });

  progress[ri] = sim->stepCount();
  while (sim->stepCount() < target_step) {
    const StepStats st = sim->step();
    const long s = sim->stepCount();
    progress[ri] = s;
    health[ri].surrogate_fallbacks += st.surrogate_fallbacks;
    health[ri].reach_giveups += st.reach_giveups;
    health[ri].limiter_wakes += st.limiter_wakes;
    health[ri].migrated += st.migrated;
    if (s % cfg_.snapshot_interval == 0 && ring.lastStep() != s) {
      ring.push(*sim);
    }
  }

  // Done before the finisher: a slow state-extraction callback must not look
  // like a hang to the watchdog.
  cluster_.noteRankDone(rank);
  if (on_complete) on_complete(comm, *sim);
}

std::string Supervisor::writePostmortem(long step) const {
  if (cfg_.postmortem_path.empty() || step < 0) return {};
  std::vector<std::vector<char>> sections;
  sections.reserve(rings_.size());
  double time = 0.0;
  for (const auto& ring : rings_) {
    const SnapshotEntry* entry = ring.find(step);
    if (!entry) return {};  // commonRingStep guaranteed this; stay safe
    sections.push_back(entry->bytes);
    time = entry->time;
  }
  io::writeCheckpointRaw(cfg_.postmortem_path, step, time, sections);
  return cfg_.postmortem_path;
}

RunReport Supervisor::run(long target_step, const SimulationConfig& base,
                          const Factory& make, const Finisher& on_complete) {
  const int nranks = cluster_.size();
  rings_.clear();
  rings_.resize(static_cast<std::size_t>(nranks));

  RunReport rep;
  rep.target_step = target_step;

  // Every message carries a send-side CRC under supervision, so in-flight
  // corruption surfaces at recv (comm::MessageCorrupt) and is retried
  // instead of silently diverging the physics.
  const bool prev_guard = cluster_.messageGuard();
  cluster_.setMessageGuard(true);

  double backoff_ms = kBackoffInitialMs;
  std::vector<long> progress(static_cast<std::size_t>(nranks), -1);
  std::vector<StepStats> health(static_cast<std::size_t>(nranks));

  for (;;) {
    ++rep.attempts;
    const long resume_step = commonRingStep();
    // Retry r runs at ladder level min(r - 1, kMaxEscalation): the first
    // attempt and the first retry both run the plain config.
    const AttemptPlan plan = planAttempt(base, rep.retries - 1);

    std::optional<comm::Watchdog> dog;
    if (cfg_.watchdog) {
      dog.emplace(cluster_,
                  comm::Watchdog::Config{cfg_.watchdog_deadline_s,
                                         cfg_.watchdog_poll_s});
    }

    for (auto& p : progress) p = resume_step;
    std::string cause;
    bool failed = false;
    try {
      cluster_.run([&](comm::Comm& comm) {
        attemptBody(comm, target_step, plan, resume_step, make, on_complete,
                    progress, health);
      });
    } catch (const comm::RankKilled& e) {
      failed = true;
      cause = std::string("rank killed: ") + e.what();
    } catch (const comm::MessageCorrupt& e) {
      failed = true;
      cause = std::string("corrupt message: ") + e.what();
    } catch (const ValidationError& e) {
      failed = true;
      cause = std::string("validation: ") + e.what();
    } catch (const comm::ClusterAborted& e) {
      failed = true;
      cause = std::string("cluster aborted: ") + e.what();
    } catch (const std::exception& e) {
      failed = true;
      cause = std::string("error: ") + e.what();
    }

    int attempt_trips = 0;
    if (dog) {
      dog->stop();
      attempt_trips = dog->trips();
      rep.watchdog_trips += attempt_trips;
    }

    for (const auto& h : health) {
      rep.surrogate_fallbacks += h.surrogate_fallbacks;
      rep.reach_giveups += h.reach_giveups;
      rep.limiter_wakes += h.limiter_wakes;
      rep.migrated += h.migrated;
    }
    for (auto& h : health) h = StepStats{};

    if (!failed) {
      rep.completed = true;
      rep.final_step = target_step;
      rep.escalation_level = plan.level;
      break;
    }

    long failed_after = resume_step;
    for (long p : progress) failed_after = std::max(failed_after, p);
    if (attempt_trips > 0 && cause.rfind("cluster aborted", 0) == 0) {
      cause = "hang: watchdog deadline (" +
              std::to_string(cfg_.watchdog_deadline_s) + " s) exceeded";
    }
    rep.failures.push_back(FailureRecord{rep.attempts, plan.level, resume_step,
                                         failed_after, attempt_trips > 0,
                                         cause});

    const long next_resume = commonRingStep();
    rep.wasted_steps +=
        std::max(0L, std::max(failed_after, 0L) - std::max(next_resume, 0L));

    if (rep.retries >= cfg_.max_retries) {
      rep.final_step = next_resume;
      rep.escalation_level = plan.level;
      rep.postmortem_path = writePostmortem(next_resume);
      break;
    }
    ++rep.retries;
    if (next_resume >= 0) ++rep.rollbacks;

    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff_ms));
    backoff_ms *= kBackoffFactor;
  }

  cluster_.setMessageGuard(prev_guard);
  rep.snapshots = rings_.empty() ? 0 : static_cast<long>(rings_.front().pushes());
  return rep;
}

}  // namespace asura::core
