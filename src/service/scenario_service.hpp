#pragma once
/// \file scenario_service.hpp
/// \brief Multi-tenant scenario service: host many concurrent Simulation
/// instances on a fixed worker pool, with batched cooperative stepping,
/// per-instance self-healing, snapshot streaming and region-of-interest
/// queries.
///
/// The surrogate pipeline exists to make star-by-star runs cheap enough to
/// launch *many* of them (parameter sweeps, interactive what-if scenarios).
/// This layer turns the single-run binary into that host: a registry of
/// independent `Simulation` instances, each owning its particles, rng
/// stream, pool scheduler and snapshot ring, stepped cooperatively by
/// `n_workers` threads.
///
/// # Lifecycle FSM
///
///     Created ──start──▶ Running ──pause / target reached──▶ Paused
///        │                  │  ▲                               │ ▲
///        │                  │  └────────────start──────────────┘ │
///        │               retries                                 │
///        │               exhausted                            rollback
///        │                  ▼                                    │
///        └──archive──▶  [Failed] ───────rollback────────────▶ Paused
///                           │
///     (any non-terminal) ──archive──▶ Archived   (terminal)
///
/// Transitions are validated by `transitionAllowed`; an illegal request
/// (e.g. starting an Archived instance) throws std::runtime_error and
/// changes nothing.
///
/// # Scheduling
///
/// Live instances sit in a FIFO run queue. A worker leases the instance at
/// the head, steps it for at most `step_budget` steps (the per-instance
/// step budget — the fairness quantum), then requeues it at the tail, so N
/// runnable instances interleave round-robin regardless of their relative
/// step costs. The workers only step: every control call (create / clone /
/// pause / rollback / archive / ROI query / ...) runs on its caller's
/// thread. A call that needs an instance's Simulation, ring or hooks takes
/// that instance's exclusive lease, so it waits only for the slice stepping
/// *that* instance, never for the pool; `info()` and `list()` take no lease
/// at all. A `pause` of a mid-slice instance raises its interrupt flag,
/// which ends the slice at the next step boundary.
///
/// # Bitwise isolation contract
///
/// Instances share nothing mutable: concurrent hosting of N instances
/// yields per-instance trajectories **bitwise identical** to running each
/// instance alone (the per-step physics is thread-count deterministic, and
/// a shared SurrogateBackend is race-free under ml::InferenceModeScope).
/// Recovery preserves the contract: a step that throws rolls the instance
/// back to its newest ring snapshot (the checkpoint codec's byte stream)
/// and replays — a transient fault recovers bitwise while the other
/// instances keep stepping undisturbed. Deterministic failures escalate
/// through the shared ladder (core/recovery.hpp) until the per-instance
/// retry budget is spent and the instance parks in Failed.
///
/// # Snapshots, clones, ROI
///
/// Every `snapshot_interval` steps (plus at creation and pause) the lease
/// holder pushes a serializeState blob into the instance's SnapshotRing and
/// streams it to subscribers — the blob restores through the ordinary
/// checkpoint path, so subscribe → restore reproduces the source bitwise.
/// `clone` builds a new instance from another's newest ring slot; with
/// `reseed` it diverges only via its own rng stream. `queryRoi` projects
/// density/temperature/velocity cubes from a read-only lease on the
/// particle state (voxel::projectRoi) without perturbing the trajectory.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/recovery.hpp"
#include "core/simulation.hpp"
#include "core/surrogate.hpp"
#include "voxel/voxel.hpp"

namespace asura::service {

using InstanceId = std::uint64_t;

/// Lifecycle state of one hosted instance.
enum class InstanceState { Created, Running, Paused, Failed, Archived };

[[nodiscard]] const char* toString(InstanceState s);

/// The FSM edge table (documented in the file header). `Running -> Running`
/// and the other self-loops are not edges: requesting a transition into the
/// current state is rejected like any other illegal edge.
[[nodiscard]] bool transitionAllowed(InstanceState from, InstanceState to);

/// Everything needed to create an instance.
struct InstanceSpec {
  std::string name;
  std::vector<fdps::Particle> particles;
  core::SimulationConfig cfg;
  /// Optional shared surrogate backend (nullptr: each instance gets its own
  /// SedovOracleBackend when cfg.use_surrogate). Sharing one trained net
  /// across instances is safe: pool workers run forwards under
  /// ml::InferenceModeScope, which skips all member-state writes.
  std::shared_ptr<core::SurrogateBackend> backend;
};

/// Control-plane view of one instance.
struct InstanceInfo {
  InstanceId id = 0;
  std::string name;
  InstanceState state = InstanceState::Created;
  long step = 0;          ///< stepCount at the last lease release
  long target_step = 0;   ///< where start() asked it to run to
  double time = 0.0;
  InstanceId cloned_from = 0;  ///< 0: created from an InstanceSpec
  // --- per-instance recovery state (like step/time, sampled at the most
  // --- recent lease release: info() on a Running instance is race-free
  // --- but one slice behind the physics; the heartbeat atomics are live) ---
  int retries = 0;            ///< recovery attempts consumed
  int escalation_level = 0;   ///< current ladder level (core/recovery.hpp)
  long rollbacks = 0;         ///< ring restores performed
  long wasted_steps = 0;      ///< steps redone after rollbacks
  std::string last_error;     ///< cause of the most recent failure
  // --- liveness (heartbeats namespaced by instance) ---
  long heartbeat_step = -1;   ///< last step any worker published for it
  int heartbeat_phase = -1;   ///< Simulation progress phase at that beat
  std::uint64_t heartbeats = 0;  ///< total beats since creation
  // --- snapshot stream ---
  long snapshots = 0;         ///< ring pushes so far
  long snapshot_step = -1;    ///< step of the newest ring entry
};

/// One streamed state snapshot: the exact serializeState byte blob the
/// checkpoint codec frames, CRC included. `bytes` is shared immutable so a
/// slow subscriber never blocks (or copies under) the stepping worker.
struct Snapshot {
  InstanceId instance = 0;
  long step = -1;
  double time = 0.0;
  std::uint32_t crc = 0;
  std::shared_ptr<const std::vector<char>> bytes;
};

/// Snapshot subscribers run on whichever thread holds the instance's lease
/// (a stepping worker, or the caller of subscribe / pause / archive): they
/// must be fast and must NOT call a lease-taking op on the *same* instance
/// (it waits for the lease the subscriber runs under: deadlock). Calls on
/// other instances, and `info()` / `list()`, are fine. A throwing
/// subscriber is swallowed — it neither perturbs the instance's trajectory
/// nor prevents delivery to the remaining subscribers.
using SnapshotSubscriber = std::function<void(const Snapshot&)>;

/// ROI query result: the projected cubes plus the instant they describe.
struct RoiResult {
  long step = 0;
  double time = 0.0;
  voxel::VoxelGrid grid;
};

struct ServiceConfig {
  int n_workers = 4;          ///< fixed worker pool size
  long step_budget = 4;       ///< max steps per lease (fairness quantum)
  long snapshot_interval = 8; ///< ring push cadence [steps]
  int ring_slots = 2;         ///< snapshots retained per instance (>= 2)
  int max_retries = 3;        ///< per-instance recovery budget
  /// >0: pin each worker's OpenMP width for the parallel regions inside
  /// step() (per-thread ICV, so workers never fight over one global knob).
  /// Results are bitwise thread-count-invariant, so this is throughput
  /// tuning only — 1 avoids oversubscription when many instances host many
  /// OpenMP teams on one node. 0: leave the ambient width alone.
  int omp_threads_per_instance = 0;
};

class ScenarioService {
 public:
  explicit ScenarioService(ServiceConfig cfg);
  /// Stops the workers at their next slice boundary and joins them. No call
  /// may still be in flight on another thread.
  ~ScenarioService();

  ScenarioService(const ScenarioService&) = delete;
  ScenarioService& operator=(const ScenarioService&) = delete;

  // --- control plane (each call runs on its caller's thread) ------------

  /// Register a new instance (state Created). Validates spec.cfg with the
  /// same step-entry validation a Simulation itself performs.
  InstanceId create(InstanceSpec spec);

  /// New instance restored from `src`'s newest ring snapshot — bitwise
  /// identical state, including the rng stream. `reseed` non-zero replaces
  /// the clone's rng stream (see Simulation::reseedRng): the clone then
  /// diverges from the source only via rng-consuming paths. The source may
  /// be in any state that has pushed at least one snapshot (Archived
  /// included — the final snapshot outlives the live Simulation).
  InstanceId clone(InstanceId src, std::string name, std::uint64_t reseed = 0);

  /// Created/Paused/Failed-after-rollback -> Running, until `target_step`.
  /// Reaching the target parks the instance in Paused.
  void start(InstanceId id, long target_step);

  /// Running -> Paused at the next step boundary (a fresh snapshot is
  /// pushed, so latestSnapshot reflects the paused state exactly). If that
  /// snapshot push itself fails the instance still parks in Paused (its
  /// simulation state is untouched) and the error propagates to the caller.
  /// Idempotent on Paused; any other state throws and changes nothing (a
  /// Failed instance leaves Failed through rollback only).
  void pause(InstanceId id);

  /// Restore the newest valid ring snapshot (Paused/Failed -> Paused).
  /// A Failed instance becomes restartable; its retry budget resets.
  void rollback(InstanceId id);

  /// Park the instance terminally (any non-terminal state -> Archived),
  /// releasing the live Simulation. `checkpoint_path` non-empty: the final
  /// snapshot is first written as an ordinary restorable "ASURACKP"
  /// checkpoint (inspectable by tools/ckpt_inspect). The final snapshot
  /// stays in the ring for cloning. It is the live state pushed now, except
  /// for a Failed instance: that one pushes nothing, and its final snapshot
  /// is the ring's newest, last good one.
  void archive(InstanceId id, const std::string& checkpoint_path = {});

  // --- data plane ------------------------------------------------------

  /// Stream every future ring push of `id` to `fn`. Returns a token for
  /// unsubscribe. The newest existing snapshot (if any) is delivered
  /// immediately so a late subscriber starts with a restorable state.
  std::uint64_t subscribe(InstanceId id, SnapshotSubscriber fn);
  void unsubscribe(std::uint64_t token);

  /// Newest ring snapshot (Snapshot::step == -1: none pushed yet).
  [[nodiscard]] Snapshot latestSnapshot(InstanceId id);

  /// Project density/temperature/velocity cubes for an ROI from the
  /// instance's current particle state under a read-only lease. Works in
  /// every live state (a Running instance is sampled at a step boundary).
  [[nodiscard]] RoiResult queryRoi(InstanceId id, const voxel::RoiSpec& spec,
                                   const voxel::VoxelParams& params = {});

  // --- observability ---------------------------------------------------

  [[nodiscard]] InstanceInfo info(InstanceId id);
  [[nodiscard]] std::vector<InstanceInfo> list();

  /// Per-step wall-clock latencies [ms] retained for `id` (a ring of the
  /// newest 16,384 steps).
  [[nodiscard]] std::vector<double> stepLatenciesMs(InstanceId id);

  /// Block until the run queue is empty and no lease is held (by a worker
  /// or a control call) or awaited: every instance has parked, failed or
  /// been paused.
  void waitIdle();

  /// Test/instrumentation hook: called with the leased Simulation before
  /// every step of instance `id`, on the stepping worker. A throwing hook is
  /// indistinguishable from a step failure — the injection point for fault
  /// drills. Like a subscriber, a hook may call any op on other instances
  /// but no lease-taking op (nor `pause`) on its own instance.
  void setStepHook(InstanceId id,
                   std::function<void(core::Simulation&, long next_step)> hook);

  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

 private:
  struct Instance;
  class Lease;

  void workerLoop();
  // One stepping slice of a leased instance (runs without the registry
  // lock). Returns with the instance's registry bookkeeping updated.
  void runSlice(Instance& inst);
  // Recovery path for a slice that threw: rollback + escalate or Fail.
  void recoverOrFail(Instance& inst, const std::string& cause);
  // Ring push + subscriber fan-out (instance leased by caller).
  void pushSnapshotLeased(Instance& inst);
  // Seed the ring of a fully built instance and register it.
  InstanceId admit(std::unique_ptr<Instance> inst);
  // Registry helpers (mu_ held).
  Instance& instanceRef(InstanceId id);
  void dequeue(Instance& inst);
  void requeue(Instance& inst);

  ServiceConfig cfg_;

  std::mutex mu_;  ///< registry + run queue + lease flags + published fields
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<Instance*> run_queue_;
  int leases_ = 0;  ///< leases held by workers, held or awaited by calls

  std::vector<std::unique_ptr<Instance>> instances_;
  InstanceId next_id_ = 1;
  std::uint64_t next_token_ = 1;

  std::vector<std::thread> workers_;
};

}  // namespace asura::service
