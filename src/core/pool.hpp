#pragma once
/// \file pool.hpp
/// \brief Pool-node scheduler (paper §3.1-§3.2, Fig. 3).
///
/// "We split the MPI communicator into two: one is for normal N-body/SPH
/// integration, and the other is for predicting the particle distribution
/// using deep learning. [...] The integration of the galaxy using the main
/// nodes and the prediction of the SN region with DL using the pool nodes
/// fully overlap."
///
/// Here the pool nodes are worker threads (`n_pool_nodes` of them) running
/// the surrogate backend asynchronously while the caller (the main-node
/// integration loop) keeps stepping. A job submitted at global step s is
/// delivered back at step s + return_interval (the paper's 50-step cadence:
/// dt_global = 2,000 yr x 50 steps = 0.1 Myr = the prediction horizon).
///
/// Concurrently-queued jobs are coalesced into one predictBatch call of at
/// most kMaxBatch jobs: a starburst that fires many SNe in one step runs
/// them as a single batched network forward instead of one forward per
/// region. The batched results are bitwise identical to per-region
/// prediction — batching is invisible in the output, it only changes
/// throughput.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/surrogate.hpp"
#include "io/serialize.hpp"

namespace asura::core {

class PoolNodeScheduler {
 public:
  /// Most jobs a worker dequeues into one predictBatch call.
  static constexpr int kMaxBatch = 8;

  PoolNodeScheduler(std::shared_ptr<SurrogateBackend> backend, int n_pool_nodes,
                    long return_interval);
  ~PoolNodeScheduler();

  PoolNodeScheduler(const PoolNodeScheduler&) = delete;
  PoolNodeScheduler& operator=(const PoolNodeScheduler&) = delete;

  /// Enqueue an SN region captured at `step`; the prediction becomes
  /// available to collectDue(step + return_interval).
  void submit(long step, std::vector<Particle> region, const Vec3d& sn_pos,
              double energy, double horizon);

  /// All predictions scheduled for delivery at or before `step`, in
  /// (release_step, job id) order. Blocks until those workers finish (the
  /// paper's synchronization point: results come back after exactly 50
  /// global steps).
  [[nodiscard]] std::vector<std::vector<Particle>> collectDue(long step);

  [[nodiscard]] int pendingJobs() const;
  [[nodiscard]] std::uint64_t jobsCompleted() const;
  [[nodiscard]] long returnInterval() const { return return_interval_; }
  [[nodiscard]] int poolNodes() const { return n_pool_; }

  /// predictBatch calls issued by workers (each covers >= 1 jobs).
  [[nodiscard]] std::uint64_t batchCalls() const;
  /// Jobs that shared a predictBatch call with at least one other job.
  [[nodiscard]] std::uint64_t jobsCoalesced() const;

  // --- graceful degradation -------------------------------------------------
  // Every completed job is checked against the prediction contract
  // (validatePrediction). A throwing or contract-violating primary backend is
  // retried up to the retry budget, then the job degrades to the fallback
  // backend (typically SedovOracleBackend); if the fallback also fails, the
  // job returns its input region unchanged (identity prediction: mass and
  // ids trivially conserved, the particles just unfreeze). A batched attempt
  // that fails for SOME jobs only degrades those jobs — the rest keep their
  // batched result. Configure before the first submit — the knobs are read
  // by worker threads without locks.

  /// Backend a contract-violating job degrades to (null: skip to identity).
  void setFallbackBackend(std::shared_ptr<SurrogateBackend> fallback) {
    fallback_ = std::move(fallback);
  }
  /// Primary-backend retries before degrading (default 1).
  void setRetryBudget(int retries) { retry_budget_ = retries < 0 ? 0 : retries; }
  /// Wall-clock budget per predict/predictBatch call [s]. Enforced
  /// cooperatively: each attempt runs under a util::JobDeadlineScope, and
  /// backends that poll util::checkJobDeadline() at their yield points
  /// (UNet3D::forward checks between layer stages) abort mid-prediction
  /// with DeadlineExceeded — the job then degrades through the ordinary
  /// retry/fallback/identity ladder. A batched call shares one budget
  /// across its jobs. <= 0 disables the budget.
  void setJobTimeout(double seconds) { job_timeout_s_ = seconds; }

  /// Jobs whose result came from the fallback backend (or the identity
  /// last resort). StepStats::surrogate_fallbacks reports the per-step delta.
  [[nodiscard]] std::uint64_t jobsFallback() const;
  /// Jobs where even the fallback failed and the identity result was used.
  [[nodiscard]] std::uint64_t jobsFailed() const;
  /// Primary predict calls re-run after an exception/contract violation.
  [[nodiscard]] std::uint64_t jobsRetried() const;

  // Timeout accounting. The three counters are disjoint by construction:
  //  * jobsTimedOut — PRIMARY attempts cancelled by the deadline
  //    (DeadlineExceeded; the attempt's result was discarded).
  //  * jobsFallbackTimedOut — FALLBACK attempts cancelled by the deadline.
  //    Kept separate: a fallback overrun means the degradation ladder
  //    itself is too slow, a very different signal from a slow primary.
  //  * jobsOverrun — attempts that ran to completion past the budget (a
  //    backend that never polls checkJobDeadline can't be preempted); the
  //    result still entered validation and may well have been used.
  // (The pre-fix code folded all three into jobsTimedOut, so a slow but
  // perfectly successful prediction was indistinguishable from a cancelled
  // one, and fallback cancellations inflated the primary's count.)
  [[nodiscard]] std::uint64_t jobsTimedOut() const;
  [[nodiscard]] std::uint64_t jobsFallbackTimedOut() const;
  [[nodiscard]] std::uint64_t jobsOverrun() const;

  // --- checkpoint support ---------------------------------------------------

  /// A prediction waiting for its release step. `job_id` is the scheduler's
  /// monotone submission id — it makes the (release_step, job_id) key unique
  /// so checkpoint ordering never falls back to a content-derived tie-break.
  struct PendingResult {
    long release_step = 0;
    std::uint64_t job_id = 0;
    std::vector<Particle> region;
  };

  /// Drain the pipeline (blocks until no job is queued or running) and
  /// return every undelivered prediction in (release_step, job_id) order —
  /// the scheduler's own storage order, unique per job, so the checkpoint
  /// bytes are identical however worker scheduling interleaved. (The pre-fix
  /// sort keyed equal-release ties on the first particle id with 0 for empty
  /// regions, so two empty-region predictions at one release step could swap
  /// between otherwise identical runs.) The results stay in the scheduler;
  /// this is a copy.
  [[nodiscard]] std::vector<PendingResult> snapshotResults();

  /// Replace the undelivered-prediction set (restore path). `next_job_id`
  /// restores the submission counter so a resumed run hands out the same
  /// ids the continuous run would have. Queued/running jobs are not
  /// representable in a snapshot: the caller checkpoints between steps
  /// *after* snapshotResults drained the pipeline.
  void restoreResults(std::vector<PendingResult> results, std::uint64_t next_job_id);

  /// The id the next submitted job will get (for checkpoint serialization).
  [[nodiscard]] std::uint64_t nextJobId() const;

 private:
  struct Job {
    std::uint64_t id;
    long release_step;
    std::vector<Particle> region;
    Vec3d sn_pos;
    double energy;
    double horizon;
  };

  void workerLoop();
  /// One batched primary attempt for the whole batch, then the per-job
  /// degradation ladder for any job the batch did not satisfy. Called
  /// without the lock held; returns one prediction per job.
  [[nodiscard]] std::vector<std::vector<Particle>> runBatch(
      const std::vector<Job>& jobs);
  /// Remaining primary retries -> fallback -> identity for one job whose
  /// batched attempt (attempt 0) failed. Called without the lock held.
  [[nodiscard]] std::vector<Particle> finishDegraded(const Job& job);

  std::shared_ptr<SurrogateBackend> backend_;
  std::shared_ptr<SurrogateBackend> fallback_;
  int n_pool_;
  long return_interval_;
  int retry_budget_ = 1;
  double job_timeout_s_ = 0.0;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< wakes workers
  std::condition_variable done_cv_;   ///< wakes collectDue
  std::deque<Job> queue_;
  /// (release step, job id) -> prediction. The unique key keeps delivery
  /// and snapshot order canonical without content-derived tie-breaks.
  std::multimap<std::pair<long, std::uint64_t>, std::vector<Particle>> results_;
  std::multiset<long> in_flight_releases_;  ///< release steps of running jobs
  int in_flight_ = 0;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t fallback_timed_out_ = 0;
  std::uint64_t overrun_ = 0;
  std::uint64_t batch_calls_ = 0;
  std::uint64_t coalesced_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Checkpoint field list of a pending prediction (io/serialize.hpp).
template <class Io, io::Record<PoolNodeScheduler::PendingResult> R>
void fields(Io& io, R& r) {
  io(r.release_step, r.job_id, r.region);
}

}  // namespace asura::core
