#include "service/scenario_service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

#include "io/checkpoint.hpp"
#include "sph/kernels.hpp"
#include "util/omp.hpp"

namespace asura::service {

namespace {

/// Per-step latencies retained per instance (a ring; the bench's p50/p99
/// source).
constexpr std::size_t kLatencySamples = std::size_t{1} << 14;

double nowMs() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(clock::now().time_since_epoch())
      .count();
}

Snapshot toSnapshot(InstanceId id, const core::SnapshotEntry& e) {
  return Snapshot{id, e.step, e.time, e.crc,
                  std::make_shared<const std::vector<char>>(e.bytes)};
}

void requireEdge(const char* op, InstanceState from, InstanceState to) {
  if (!transitionAllowed(from, to)) {
    throw std::runtime_error(std::string(op) + ": illegal transition " +
                             toString(from) + " -> " + toString(to));
  }
}

}  // namespace

const char* toString(InstanceState s) {
  switch (s) {
    case InstanceState::Created: return "created";
    case InstanceState::Running: return "running";
    case InstanceState::Paused: return "paused";
    case InstanceState::Failed: return "failed";
    case InstanceState::Archived: return "archived";
  }
  return "?";
}

bool transitionAllowed(InstanceState from, InstanceState to) {
  using S = InstanceState;
  switch (from) {
    case S::Created:
      return to == S::Running || to == S::Archived;
    case S::Running:
      return to == S::Paused || to == S::Failed || to == S::Archived;
    case S::Paused:
      return to == S::Running || to == S::Archived;
    case S::Failed:
      // rollback rehabilitates a Failed instance into Paused; start then
      // resumes it. Direct Failed -> Running would skip the restore.
      return to == S::Paused || to == S::Archived;
    case S::Archived:
      return false;  // terminal
  }
  return false;
}

/// Per-instance heartbeat slot: written from inside step() via the progress
/// reporter on whichever worker currently leases the instance, read lock-
/// free by info(). Namespaced by instance, not by rank — each hosted
/// Simulation publishes its own liveness stream.
struct Heartbeat {
  std::atomic<long> step{-1};
  std::atomic<int> phase{-1};
  std::atomic<std::uint64_t> beats{0};
};

struct ScenarioService::Instance {
  InstanceId id = 0;
  std::string name;
  InstanceState state = InstanceState::Created;
  long target_step = 0;
  InstanceId cloned_from = 0;

  /// The un-escalated creation config: escalation plans derive from it.
  core::SimulationConfig base_cfg;
  /// Backend the live Simulation was built with (shared across instances is
  /// fine — forwards run under ml::InferenceModeScope).
  std::shared_ptr<core::SurrogateBackend> backend;
  bool oracle_forced = false;  ///< ladder level >= 2 rebuilt sim with oracle

  std::unique_ptr<core::Simulation> sim;  ///< null once Archived
  core::SnapshotRing ring;
  Heartbeat hb;

  // Recovery bookkeeping (mutated under the lease only).
  int retries = 0;
  int escalation_level = 0;
  long rollbacks = 0;
  long wasted_steps = 0;
  std::string last_error;

  // Scheduling flags: `pending_fail` is set under the lease, the others
  // under mu_. `interrupt` is the one flag a control call raises while a
  // stepping worker reads it between steps, hence atomic.
  bool leased = false;
  bool queued = false;
  int lease_waiters = 0;  ///< control calls waiting for the lease
  bool pending_pause = false;
  bool pending_fail = false;
  std::atomic<bool> interrupt{false};

  // Published under mu_ at lease release so info() never reads a mid-step
  // Simulation — nor the recovery/ring bookkeeping the stepping worker
  // mutates under the lease only. info() must touch nothing but these
  // pub_ copies, the immutable fields, the state/flags guarded by mu_,
  // and the heartbeat atomics.
  long pub_step = 0;
  double pub_time = 0.0;
  int pub_retries = 0;
  int pub_escalation_level = 0;
  long pub_rollbacks = 0;
  long pub_wasted_steps = 0;
  std::string pub_last_error;
  long pub_snapshots = 0;
  long pub_snapshot_step = -1;

  // Written under the lease AND mu_, so unsubscribe can find a token's
  // owner under mu_ alone and the lease holder can read without mu_.
  std::vector<std::pair<std::uint64_t, SnapshotSubscriber>> subscribers;
  std::function<void(core::Simulation&, long)> hook;

  // Per-step wall-clock latency ring [ms].
  std::vector<double> latencies;
  std::uint64_t latency_count = 0;

  void wireHeartbeat() {
    Heartbeat* h = &hb;
    sim->setProgressReporter([h](long step, int phase) {
      h->step.store(step, std::memory_order_relaxed);
      h->phase.store(phase, std::memory_order_relaxed);
      h->beats.fetch_add(1, std::memory_order_relaxed);
    });
  }

  void publish() {
    if (sim) {
      pub_step = sim->stepCount();
      pub_time = sim->time();
    }
    pub_retries = retries;
    pub_escalation_level = escalation_level;
    pub_rollbacks = rollbacks;
    pub_wasted_steps = wasted_steps;
    pub_last_error = last_error;
    pub_snapshots = static_cast<long>(ring.pushes());
    pub_snapshot_step = ring.lastStep();
  }

  /// The published view (mu_ held).
  [[nodiscard]] InstanceInfo view() const {
    InstanceInfo out;
    out.id = id;
    out.name = name;
    out.state = state;
    out.step = pub_step;
    out.target_step = target_step;
    out.time = pub_time;
    out.cloned_from = cloned_from;
    out.retries = pub_retries;
    out.escalation_level = pub_escalation_level;
    out.rollbacks = pub_rollbacks;
    out.wasted_steps = pub_wasted_steps;
    out.last_error = pub_last_error;
    out.heartbeat_step = hb.step.load(std::memory_order_relaxed);
    out.heartbeat_phase = hb.phase.load(std::memory_order_relaxed);
    out.heartbeats = hb.beats.load(std::memory_order_relaxed);
    out.snapshots = pub_snapshots;
    out.snapshot_step = pub_snapshot_step;
    return out;
  }
};

/// An exclusive instance lease taken by a control call on its caller's
/// thread. Taking it waits only for this instance: for the slice a worker is
/// stepping (a waiting call goes before the instance's next slice), or for
/// another call's lease. The instance leaves the run queue while leased;
/// releasing requeues it if it is still Running. The holder owns everything
/// a worker mutates under its lease: the Simulation, the ring, the recovery
/// counters, the subscribers, the hook and the latencies.
class ScenarioService::Lease {
 public:
  Lease(ScenarioService& svc, InstanceId id) : svc_(svc) {
    std::unique_lock<std::mutex> lk(svc_.mu_);
    inst_ = &svc_.instanceRef(id);
    ++svc_.leases_;
    ++inst_->lease_waiters;
    svc_.cv_.wait(lk, [this] { return !inst_->leased; });
    --inst_->lease_waiters;
    inst_->leased = true;
    svc_.dequeue(*inst_);
  }
  ~Lease() {
    {
      std::lock_guard<std::mutex> lk(svc_.mu_);
      inst_->leased = false;
      --svc_.leases_;
      svc_.requeue(*inst_);
    }
    svc_.cv_.notify_all();
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  Instance* operator->() const { return inst_; }
  Instance& operator*() const { return *inst_; }

 private:
  ScenarioService& svc_;
  Instance* inst_;
};

ScenarioService::ScenarioService(ServiceConfig cfg) : cfg_(cfg) {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("ServiceConfig: " + what);
  };
  if (cfg_.n_workers < 1) bad("n_workers must be >= 1");
  if (cfg_.step_budget < 1) bad("step_budget must be >= 1");
  if (cfg_.snapshot_interval < 1) bad("snapshot_interval must be >= 1");
  if (cfg_.max_retries < 0) bad("max_retries must be non-negative");

  workers_.reserve(static_cast<std::size_t>(cfg_.n_workers));
  for (int w = 0; w < cfg_.n_workers; ++w) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ScenarioService::~ScenarioService() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

ScenarioService::Instance& ScenarioService::instanceRef(InstanceId id) {
  for (auto& inst : instances_) {
    if (inst->id == id) return *inst;
  }
  throw std::runtime_error("scenario service: no instance with id " +
                           std::to_string(id));
}

void ScenarioService::dequeue(Instance& inst) {
  if (inst.queued) {
    run_queue_.erase(std::remove(run_queue_.begin(), run_queue_.end(), &inst),
                     run_queue_.end());
    inst.queued = false;
  }
}

void ScenarioService::requeue(Instance& inst) {
  if (inst.state == InstanceState::Running && !inst.queued && !inst.leased &&
      inst.lease_waiters == 0) {
    run_queue_.push_back(&inst);
    inst.queued = true;
  }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

void ScenarioService::workerLoop() {
  // Per-thread ICV: each worker pins its own OpenMP width to 1 for the
  // parallel regions inside step(), so many instances never oversubscribe
  // the node with OpenMP teams. Bitwise-neutral (thread-count determinism
  // is a step() contract).
  util::ompSetThreads(1);

  for (;;) {
    Instance* inst;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !run_queue_.empty(); });
      if (stop_) return;
      inst = run_queue_.front();
      run_queue_.pop_front();
      inst->queued = false;
      inst->leased = true;
      ++leases_;
    }
    // The lease is exclusive: no lock needed around the physics.
    runSlice(*inst);
    {
      std::lock_guard<std::mutex> lk(mu_);
      inst->publish();
      inst->leased = false;
      --leases_;
      if (inst->pending_fail) {
        inst->state = InstanceState::Failed;
        inst->pending_fail = false;
        inst->pending_pause = false;
      } else if (inst->pending_pause || inst->pub_step >= inst->target_step) {
        inst->state = InstanceState::Paused;
        inst->pending_pause = false;
      } else {
        requeue(*inst);
      }
      inst->interrupt.store(false, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }
}

void ScenarioService::runSlice(Instance& inst) {
  long done = 0;
  bool interrupted = false;
  while (done < cfg_.step_budget) {
    if (inst.interrupt.load(std::memory_order_relaxed)) {
      interrupted = true;
      break;
    }
    const long at = inst.sim->stepCount();
    if (at >= inst.target_step) break;
    try {
      if (inst.hook) inst.hook(*inst.sim, at);
      const double t0 = nowMs();
      inst.sim->step();
      const double t1 = nowMs();
      if (inst.latencies.size() < kLatencySamples) {
        inst.latencies.push_back(t1 - t0);
      } else {
        inst.latencies[static_cast<std::size_t>(inst.latency_count %
                                                kLatencySamples)] = t1 - t0;
      }
      ++inst.latency_count;
    } catch (const std::exception& e) {
      recoverOrFail(inst, e.what());
      return;  // slice ends either way; a recovered instance requeues
    } catch (...) {
      recoverOrFail(inst, "step threw a non-standard exception");
      return;
    }
    ++done;
    // The snapshot push can throw too (serializeState allocation): route it
    // through the same recovery ladder — an escaping exception here would
    // std::terminate the worker and take the whole multi-tenant host down.
    if (inst.sim->stepCount() % cfg_.snapshot_interval == 0) {
      try {
        pushSnapshotLeased(inst);
      } catch (const std::exception& e) {
        recoverOrFail(inst, std::string("snapshot push failed: ") + e.what());
        return;
      } catch (...) {
        recoverOrFail(inst, "snapshot push failed: non-standard exception");
        return;
      }
    }
  }
  // A slice that parks the instance (interrupt raised by pause/archive, or
  // target reached) publishes a fresh snapshot so latestSnapshot and clone
  // see exactly the state the control plane observes.
  if (inst.sim && (interrupted || inst.sim->stepCount() >= inst.target_step) &&
      inst.ring.lastStep() != inst.sim->stepCount()) {
    try {
      pushSnapshotLeased(inst);
    } catch (const std::exception& e) {
      recoverOrFail(inst, std::string("snapshot push failed: ") + e.what());
    } catch (...) {
      recoverOrFail(inst, "snapshot push failed: non-standard exception");
    }
  }
}

void ScenarioService::recoverOrFail(Instance& inst, const std::string& cause) {
  const long failed_at = inst.sim ? inst.sim->stepCount() : -1;
  inst.last_error = cause;
  ++inst.retries;
  if (inst.retries > cfg_.max_retries) {
    inst.pending_fail = true;
    return;
  }

  inst.escalation_level = std::min(inst.retries - 1, core::kMaxEscalation);
  const auto plan = core::planAttempt(inst.base_cfg, inst.escalation_level);

  try {
    if (plan.force_oracle && !inst.oracle_forced) {
      // The backend is a construction-time choice: rebuild the Simulation
      // shell (same pool shape) and let the ring restore replace the state.
      inst.backend = std::make_shared<core::SedovOracleBackend>();
      inst.sim = std::make_unique<core::Simulation>(
          std::vector<fdps::Particle>{}, plan.cfg, inst.backend);
      inst.oracle_forced = true;
    }
    core::SnapshotEntry* entry = inst.ring.latest();
    if (!entry) {
      throw std::runtime_error("no valid ring snapshot to roll back to");
    }
    core::SnapshotRing::restoreEntry(*entry, *inst.sim, plan.level,
                                     "instance " + std::to_string(inst.id));
    inst.wireHeartbeat();
    ++inst.rollbacks;
    inst.wasted_steps += std::max(0L, failed_at - entry->step);
  } catch (const std::exception& e) {
    // Recovery itself failed (corrupt ring, restore mismatch): park.
    inst.last_error = inst.last_error + "; recovery failed: " + e.what();
    inst.pending_fail = true;
  }
}

void ScenarioService::pushSnapshotLeased(Instance& inst) {
  inst.ring.push(*inst.sim);
  if (inst.subscribers.empty()) return;
  const Snapshot snap = toSnapshot(inst.id, *inst.ring.latest());
  for (const auto& [token, fn] : inst.subscribers) {
    (void)token;
    // Subscribers are observers: a throwing callback must neither perturb
    // the instance's trajectory nor kill the hosting worker, and one bad
    // subscriber must not starve the others of the blob.
    try {
      fn(snap);
    } catch (...) {
    }
  }
}

InstanceId ScenarioService::admit(std::unique_ptr<Instance> inst) {
  inst->wireHeartbeat();
  // Seed the ring with the starting state: rollback, clone and streaming
  // work before the first interval snapshot, and a failure on the very
  // first step still has somewhere to go.
  inst->ring.push(*inst->sim);
  inst->publish();
  std::lock_guard<std::mutex> lk(mu_);
  inst->id = next_id_++;
  instances_.push_back(std::move(inst));
  return instances_.back()->id;
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

InstanceId ScenarioService::create(InstanceSpec spec) {
  auto inst = std::make_unique<Instance>();
  inst->name = std::move(spec.name);
  inst->base_cfg = spec.cfg;
  inst->backend = std::move(spec.backend);
  inst->sim = std::make_unique<core::Simulation>(std::move(spec.particles),
                                                 spec.cfg, inst->backend);
  // Admission check: reject a bad config here, with the exact step-entry
  // diagnostics, instead of steps later on a worker thread.
  inst->sim->validateConfig();
  return admit(std::move(inst));
}

InstanceId ScenarioService::clone(InstanceId src, std::string name,
                                  std::uint64_t reseed) {
  Lease source(*this, src);
  core::SnapshotEntry* entry = source->ring.latest();
  if (!entry) {
    throw std::runtime_error("clone: source instance " + std::to_string(src) +
                             " has no snapshot");
  }
  auto inst = std::make_unique<Instance>();
  inst->name = std::move(name);
  inst->cloned_from = src;
  inst->base_cfg = source->base_cfg;
  inst->backend = source->backend;
  inst->oracle_forced = source->oracle_forced;
  inst->escalation_level = source->escalation_level;
  // Shell with the source's (possibly escalated) shape; the restore then
  // replaces every byte of state with the snapshot's.
  inst->sim = std::make_unique<core::Simulation>(
      std::vector<fdps::Particle>{},
      core::escalateConfig(source->base_cfg, source->escalation_level),
      inst->backend);
  core::SnapshotRing::restoreEntry(*entry, *inst->sim, source->escalation_level,
                                   "clone of " + std::to_string(src));
  if (reseed != 0) inst->sim->reseedRng(reseed);
  return admit(std::move(inst));
}

void ScenarioService::start(InstanceId id, long target_step) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    Instance& inst = instanceRef(id);
    requireEdge("start", inst.state, InstanceState::Running);
    if (target_step <= inst.pub_step) {
      throw std::runtime_error(
          "start: target step " + std::to_string(target_step) +
          " does not exceed current step " + std::to_string(inst.pub_step));
    }
    inst.state = InstanceState::Running;
    inst.target_step = target_step;
    // Belt and braces against stale park requests (e.g. two pause() calls
    // racing on the same unleased instance): a leftover interrupt or
    // pending_pause would re-park this fresh run at its current step with
    // zero progress made toward the target.
    inst.pending_pause = false;
    inst.interrupt.store(false, std::memory_order_relaxed);
    requeue(inst);
  }
  cv_.notify_all();
}

void ScenarioService::pause(InstanceId id) {
  std::unique_lock<std::mutex> lk(mu_);
  Instance& inst = instanceRef(id);
  if (inst.state == InstanceState::Paused) return;  // idempotent
  // Only a running instance parks here. Failed -> Paused is rollback's
  // edge: a pause would publish the failed state as the newest snapshot.
  if (inst.state != InstanceState::Running) {
    throw std::runtime_error(std::string("pause: instance is ") + toString(inst.state) +
                             " (only a running instance pauses)");
  }
  if (inst.leased) {
    // Mid-slice (or under another call's lease): the stepping worker honors
    // the interrupt at the next step boundary and parks the instance. Wait
    // for it so pause() returning means "not running" (Paused, or Failed if
    // the final step threw).
    inst.pending_pause = true;
    inst.interrupt.store(true, std::memory_order_relaxed);
    cv_.wait(lk, [&] { return inst.state != InstanceState::Running; });
    return;
  }
  // Not mid-slice: take the lease here, publish the snapshot the parked
  // state promises, and transition directly.
  dequeue(inst);
  inst.leased = true;
  ++leases_;
  lk.unlock();
  // The park runs on every exit path: a snapshot push that throws
  // (subscriber allocation, serializeState bad_alloc) would otherwise leak
  // the lease. The sim state itself is untouched either way, so the
  // instance still parks in Paused; the error propagates to the caller as
  // "paused, but the promised snapshot was not pushed".
  const auto park = [&] {
    {
      std::lock_guard<std::mutex> g(mu_);
      inst.publish();
      inst.state = InstanceState::Paused;
      // A concurrent pause() racing this direct path may have raised the
      // mid-slice flags after we took the lease; clear them so the next
      // start() does not immediately re-park at the current step.
      inst.pending_pause = false;
      inst.interrupt.store(false, std::memory_order_relaxed);
      inst.leased = false;
      --leases_;
    }
    cv_.notify_all();
  };
  try {
    if (inst.sim && inst.ring.lastStep() != inst.sim->stepCount()) {
      pushSnapshotLeased(inst);
    }
  } catch (...) {
    park();
    throw;
  }
  park();
}

void ScenarioService::rollback(InstanceId id) {
  Lease inst(*this, id);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (inst->state != InstanceState::Paused &&
        inst->state != InstanceState::Failed) {
      throw std::runtime_error(std::string("rollback: instance is ") +
                               toString(inst->state) +
                               " (pause it first, or archive)");
    }
  }
  core::SnapshotEntry* entry = inst->ring.latest();
  if (!entry) throw std::runtime_error("rollback: no valid ring snapshot");
  core::SnapshotRing::restoreEntry(*entry, *inst->sim, inst->escalation_level,
                                   "rollback of " + std::to_string(id));
  inst->wireHeartbeat();
  ++inst->rollbacks;
  // Rehabilitation: a Failed instance becomes restartable with a fresh
  // retry budget (the operator chose to roll back; the ladder level is
  // kept — it encodes what the failures taught us).
  inst->retries = 0;
  std::lock_guard<std::mutex> lk(mu_);
  inst->publish();
  if (inst->state == InstanceState::Failed) inst->state = InstanceState::Paused;
}

void ScenarioService::archive(InstanceId id, const std::string& checkpoint_path) {
  {
    // End a running slice at its next step boundary instead of its budget.
    std::lock_guard<std::mutex> lk(mu_);
    instanceRef(id).interrupt.store(true, std::memory_order_relaxed);
  }
  Lease inst(*this, id);
  bool failed = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    requireEdge("archive", inst->state, InstanceState::Archived);
    failed = inst->state == InstanceState::Failed;
  }
  // A Failed instance's live state is the failure; its final snapshot stays
  // the ring's newest, last good one.
  if (!failed && inst->sim && inst->ring.lastStep() != inst->sim->stepCount()) {
    pushSnapshotLeased(*inst);
  }
  if (!checkpoint_path.empty()) {
    const core::SnapshotEntry* e = inst->ring.latest();
    if (!e) throw std::runtime_error("archive: no snapshot to write");
    io::writeCheckpointRaw(checkpoint_path, e->step, e->time, {e->bytes});
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    inst->publish();
    inst->state = InstanceState::Archived;
    inst->interrupt.store(false, std::memory_order_relaxed);
  }
  // Release the live Simulation (particles, pool threads); the final ring
  // snapshot stays behind for clones and late subscribers.
  inst->sim.reset();
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

std::uint64_t ScenarioService::subscribe(InstanceId id, SnapshotSubscriber fn) {
  Lease inst(*this, id);
  std::uint64_t token;
  {
    std::lock_guard<std::mutex> lk(mu_);
    token = next_token_++;
    inst->subscribers.emplace_back(token, fn);
  }
  // Catch-up delivery: a late subscriber starts from a restorable state.
  if (const core::SnapshotEntry* e = inst->ring.latest()) {
    fn(toSnapshot(id, *e));
  }
  return token;
}

void ScenarioService::unsubscribe(std::uint64_t token) {
  const auto owns = [token](const auto& sub) { return sub.first == token; };
  InstanceId owner = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& inst : instances_) {
      const auto& subs = inst->subscribers;
      if (std::any_of(subs.begin(), subs.end(), owns)) owner = inst->id;
    }
  }
  if (owner == 0) return;  // idempotent
  Lease inst(*this, owner);
  std::lock_guard<std::mutex> lk(mu_);
  auto& subs = inst->subscribers;
  subs.erase(std::remove_if(subs.begin(), subs.end(), owns), subs.end());
}

Snapshot ScenarioService::latestSnapshot(InstanceId id) {
  Lease inst(*this, id);
  const core::SnapshotEntry* e = inst->ring.latest();
  return e ? toSnapshot(id, *e) : Snapshot{};
}

RoiResult ScenarioService::queryRoi(InstanceId id, const voxel::RoiSpec& spec,
                                    const voxel::VoxelParams& params) {
  Lease inst(*this, id);
  if (!inst->sim) {
    throw std::runtime_error("queryRoi: instance " + std::to_string(id) +
                             " is archived (no live particle state)");
  }
  RoiResult result;
  result.step = inst->sim->stepCount();
  result.time = inst->sim->time();
  const sph::Kernel kernel{};
  result.grid = voxel::projectRoi(inst->sim->particles(), spec, params, kernel);
  return result;
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

InstanceInfo ScenarioService::info(InstanceId id) {
  std::lock_guard<std::mutex> lk(mu_);
  return instanceRef(id).view();
}

std::vector<InstanceInfo> ScenarioService::list() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<InstanceInfo> out;
  out.reserve(instances_.size());
  for (const auto& inst : instances_) out.push_back(inst->view());
  return out;
}

std::vector<double> ScenarioService::stepLatenciesMs(InstanceId id) {
  Lease inst(*this, id);
  return inst->latencies;
}

void ScenarioService::waitIdle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return run_queue_.empty() && leases_ == 0; });
}

void ScenarioService::setStepHook(
    InstanceId id, std::function<void(core::Simulation&, long)> hook) {
  Lease inst(*this, id);
  inst->hook = std::move(hook);
}

}  // namespace asura::service
