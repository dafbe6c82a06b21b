#pragma once
/// \file supervisor.hpp
/// \brief Self-healing run driver: watchdog + in-memory checkpoint ring +
/// rollback-and-retry escalation ladder.
///
/// The paper's production campaigns (Fugaku, ~150k cores) survive node
/// failures by operator-driven restart from periodic snapshots. The
/// Supervisor closes that loop in-process: it drives the per-rank
/// Simulation::step loop over the SPMD Cluster and turns any failure —
/// a thrown rank, a validator trip, a corrupted message, or a silent hang —
/// into an automatic rollback to the last good in-memory snapshot and a
/// retried attempt, escalating the configuration each retry until the run
/// completes or the retry budget is spent.
///
/// Three cooperating layers:
///
/// 1. **Heartbeat/watchdog** (comm/watchdog.hpp). Every rank publishes
///    monotonic progress via Simulation's progress reporter wired to
///    Cluster::noteStep; the watchdog thread aborts the cluster when a rank
///    stops publishing past the deadline, converting a hang into a
///    catchable ClusterAborted.
///
/// 2. **In-memory checkpoint ring.** Each rank keeps `ring_slots` (default
///    2: double-buffered) Simulation::serializeState snapshots, pushed
///    every `snapshot_interval` steps — no rank-0 gather, no disk. Each
///    entry carries a CRC-32 verified before rollback; the payload is the
///    exact byte stream the disk codec frames, so a ring entry can be
///    written out as a post-mortem checkpoint (io::writeCheckpointRaw) and
///    restored by the ordinary restore path.
///
/// 3. **Escalation ladder.** Rollback alone replays the same trajectory, so
///    a deterministic failure would repeat forever. Retry r runs at ladder
///    level min(r-1, 3):
///      level 0 — same config (transient faults recover bitwise here);
///      level 1 — + validate_steps (catch corruption at the step it lands);
///      level 2 — + surrogate forced to the Sedov-oracle backend;
///      level 3 — + gravity.isa and sph.isa pinned to Scalar (exclude
///                wide-ISA paths).
///    Exhausted retries write the last good ring state to a post-mortem
///    disk checkpoint and return a structured RunReport instead of looping.
///
/// Determinism contract: a supervised run that recovers at level 0 (the
/// transient-fault case) finishes with state bytes **bitwise identical** to
/// the uninterrupted run — snapshots are equivalence-preserving and the
/// restore path is the checkpoint codec's. Higher levels change physics
/// knobs deliberately and therefore trade bitwise equality for termination;
/// the report says which level the run finished at.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/recovery.hpp"
#include "core/simulation.hpp"

namespace asura::core {

struct SupervisorConfig {
  long snapshot_interval = 8;   ///< steps between ring snapshots
  int ring_slots = 2;           ///< snapshots retained per rank (>= 2)
  int max_retries = 4;          ///< attempts after the first (ladder depth)
  double backoff_initial_ms = 5.0;  ///< sleep before the first retry
  double backoff_factor = 2.0;      ///< exponential backoff multiplier
  bool watchdog = true;             ///< run the hang detector
  double watchdog_deadline_s = 5.0; ///< max heartbeat silence before abort
  double watchdog_poll_s = 0.02;    ///< heartbeat sampling interval
  /// Where the give-up path writes the last good ring state as an ordinary
  /// "ASURACKP" checkpoint (empty: no post-mortem file).
  std::string postmortem_path;
};

/// One failed attempt, as the report records it.
struct FailureRecord {
  int attempt = 0;          ///< 1-based attempt number
  int escalation = 0;       ///< ladder level the attempt ran at
  long resumed_from = -1;   ///< ring step the attempt started from (-1: IC)
  long failed_after = -1;   ///< last step any rank completed before dying
  bool watchdog_trip = false;  ///< the watchdog (not an exception) ended it
  std::string cause;        ///< classified cause + original message
};

/// Structured outcome of a supervised run.
struct RunReport {
  bool completed = false;
  long target_step = 0;
  long final_step = 0;      ///< target if completed, else last good ring step
  int attempts = 0;
  int retries = 0;
  int rollbacks = 0;        ///< retries that restored a ring snapshot
  long wasted_steps = 0;    ///< steps executed beyond a snapshot and redone
  int watchdog_trips = 0;
  long snapshots = 0;       ///< ring pushes (rank 0's count)
  int escalation_level = 0; ///< ladder level of the final attempt
  std::vector<FailureRecord> failures;
  std::string postmortem_path;  ///< non-empty iff a post-mortem was written
  // Health counters summed from every executed step's StepStats across all
  // ranks and attempts (redone steps count again — they were executed).
  long surrogate_fallbacks = 0;
  long reach_giveups = 0;
  long limiter_wakes = 0;
  long migrated = 0;
};

class Supervisor {
 public:
  /// Builds one rank's Simulation for one attempt from its AttemptPlan (see
  /// core/recovery.hpp — the plan and the escalation ladder are shared with
  /// the multi-instance scenario service): `cfg` already carries the
  /// level's config knobs; `force_oracle` asks for the construction-time
  /// choice the config cannot express — build the Simulation with
  /// SedovOracleBackend as the *primary* surrogate backend. Called inside
  /// Cluster::run on every rank, every attempt — construction must be cheap
  /// relative to the run (ring restore replaces the state right after).
  using Factory =
      std::function<std::unique_ptr<Simulation>(comm::Comm&, const AttemptPlan&)>;

  /// Runs on every rank after the target step is reached (extract final
  /// state, write products). Collective calls are allowed — all ranks reach
  /// it together.
  using Finisher = std::function<void(comm::Comm&, Simulation&)>;

  Supervisor(comm::Cluster& cluster, SupervisorConfig cfg);

  /// Drive every rank's Simulation to `target_step`, self-healing on
  /// failure. Blocks until the run completes or the retry budget is spent;
  /// never throws for run failures (the report carries them) — only for
  /// supervisor misuse (e.g. a null factory result). The cluster's message
  /// guard (Cluster::setMessageGuard) is on for the run and restored after.
  RunReport run(long target_step, const SimulationConfig& base,
                const Factory& make, const Finisher& on_complete = {});

 private:
  /// Latest step for which EVERY rank holds a valid ring entry (-1: none).
  [[nodiscard]] long commonRingStep() const;
  /// The SPMD body of one attempt (runs per rank inside Cluster::run).
  void attemptBody(comm::Comm& comm, long target_step, const AttemptPlan& plan,
                   long resume_step, const Factory& make,
                   const Finisher& on_complete, std::vector<long>& progress,
                   std::vector<StepStats>& health);
  /// Write the last good ring state as a disk checkpoint; returns the path
  /// actually written (empty on no ring state / no configured path).
  [[nodiscard]] std::string writePostmortem(long step) const;

  comm::Cluster& cluster_;
  SupervisorConfig cfg_;
  std::vector<SnapshotRing> rings_;  ///< indexed by world rank
};

}  // namespace asura::core
