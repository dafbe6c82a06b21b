#include "core/pool.hpp"

#include <algorithm>
#include <chrono>

#include "util/deadline.hpp"

namespace asura::core {

PoolNodeScheduler::PoolNodeScheduler(std::shared_ptr<SurrogateBackend> backend,
                                     int n_pool_nodes, long return_interval)
    // Clamp to at least one worker: with n_pool_nodes == 0 a submitted job
    // would sit in queue_ forever and collectDue — which waits for every
    // due job to leave the queue — would deadlock on the first SN.
    : backend_(std::move(backend)),
      n_pool_(std::max(1, n_pool_nodes)),
      return_interval_(return_interval) {
  workers_.reserve(static_cast<std::size_t>(n_pool_));
  for (int i = 0; i < n_pool_; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

PoolNodeScheduler::~PoolNodeScheduler() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void PoolNodeScheduler::submit(long step, std::vector<Particle> region,
                               const Vec3d& sn_pos, double energy, double horizon) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    queue_.push_back(Job{next_job_id_++, step + return_interval_, std::move(region),
                         sn_pos, energy, horizon});
  }
  work_cv_.notify_one();
}

std::vector<std::vector<Particle>> PoolNodeScheduler::collectDue(long step) {
  std::unique_lock<std::mutex> lk(mutex_);
  // Wait until no job due at or before `step` is still queued or running.
  done_cv_.wait(lk, [&] {
    for (const auto& j : queue_) {
      if (j.release_step <= step) return false;
    }
    return in_flight_releases_.empty() || *in_flight_releases_.begin() > step;
  });

  std::vector<std::vector<Particle>> out;
  auto it = results_.begin();
  while (it != results_.end() && it->first.first <= step) {
    out.push_back(std::move(it->second));
    it = results_.erase(it);
  }
  return out;
}

int PoolNodeScheduler::pendingJobs() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return static_cast<int>(queue_.size()) + in_flight_;
}

std::uint64_t PoolNodeScheduler::jobsCompleted() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return completed_;
}

std::uint64_t PoolNodeScheduler::jobsFallback() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return fallbacks_;
}

std::uint64_t PoolNodeScheduler::jobsFailed() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return failed_;
}

std::uint64_t PoolNodeScheduler::jobsRetried() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return retried_;
}

std::uint64_t PoolNodeScheduler::jobsTimedOut() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return timed_out_;
}

std::uint64_t PoolNodeScheduler::jobsFallbackTimedOut() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return fallback_timed_out_;
}

std::uint64_t PoolNodeScheduler::jobsOverrun() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return overrun_;
}

std::uint64_t PoolNodeScheduler::batchCalls() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return batch_calls_;
}

std::uint64_t PoolNodeScheduler::jobsCoalesced() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return coalesced_;
}

std::uint64_t PoolNodeScheduler::nextJobId() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return next_job_id_;
}

std::vector<PoolNodeScheduler::PendingResult> PoolNodeScheduler::snapshotResults() {
  std::unique_lock<std::mutex> lk(mutex_);
  // Drain: a queued or running job cannot be serialized mid-flight, so the
  // snapshot waits for every submitted prediction to land in results_.
  // Predictions are pure functions of their job, so the drained results are
  // identical to what the continuous run would have collected later.
  done_cv_.wait(lk, [&] { return queue_.empty() && in_flight_ == 0; });
  std::vector<PendingResult> out;
  out.reserve(results_.size());
  // results_ is ordered by the unique (release_step, job_id) key — already
  // canonical, no content-derived sort.
  for (const auto& [key, region] : results_) {
    out.push_back({key.first, key.second, region});
  }
  return out;
}

void PoolNodeScheduler::restoreResults(std::vector<PendingResult> results,
                                       std::uint64_t next_job_id) {
  std::lock_guard<std::mutex> lk(mutex_);
  results_.clear();
  for (auto& r : results) {
    results_.emplace(std::make_pair(r.release_step, r.job_id), std::move(r.region));
  }
  next_job_id_ = next_job_id;
}

std::vector<std::vector<Particle>> PoolNodeScheduler::runBatch(
    const std::vector<Job>& jobs) {
  const std::size_t nb = jobs.size();
  std::vector<std::vector<Particle>> out(nb);
  std::vector<char> done(nb, 0);

  // Batched primary attempt — attempt 0 for every job in the batch, under
  // one shared deadline. A backend that polls util::checkJobDeadline()
  // (UNet3D::forward checks between layer stages) aborts the whole call
  // with DeadlineExceeded; the jobs then finish through the per-job ladder.
  try {
    std::vector<SurrogateRequest> reqs;
    reqs.reserve(nb);
    for (const auto& j : jobs) {
      reqs.push_back({j.region, j.sn_pos, j.energy, j.horizon});
    }
    util::JobDeadlineScope deadline(job_timeout_s_);
    const auto t0 = std::chrono::steady_clock::now();
    auto res = backend_->predictBatch(std::move(reqs));
    const std::chrono::duration<double> el = std::chrono::steady_clock::now() - t0;
    if (job_timeout_s_ > 0.0 && el.count() > job_timeout_s_) {
      std::lock_guard<std::mutex> lk(mutex_);
      ++overrun_;  // completed late (backend never polled); result still used
    }
    if (res.size() == nb) {
      for (std::size_t i = 0; i < nb; ++i) {
        if (validatePrediction(jobs[i].region, res[i]).empty()) {
          out[i] = std::move(res[i]);
          done[i] = 1;
        }
      }
    }
  } catch (const util::DeadlineExceeded&) {
    std::lock_guard<std::mutex> lk(mutex_);
    ++timed_out_;  // the cancelled batched attempt
  } catch (...) {
  }

  // Per-job completion for whatever the batch did not satisfy. The batched
  // call was attempt 0, so each unsatisfied job has retry_budget_ primary
  // retries left; entering the first of them is what jobsRetried counts.
  for (std::size_t i = 0; i < nb; ++i) {
    if (done[i]) continue;
    if (retry_budget_ > 0) {
      std::lock_guard<std::mutex> lk(mutex_);
      ++retried_;
    }
    out[i] = finishDegraded(jobs[i]);
  }
  return out;
}

std::vector<Particle> PoolNodeScheduler::finishDegraded(const Job& job) {
  const auto run = [&](SurrogateBackend& b) {
    util::JobDeadlineScope deadline(job_timeout_s_);
    const auto t0 = std::chrono::steady_clock::now();
    auto out = b.predict(job.region, job.sn_pos, job.energy, job.horizon);
    const std::chrono::duration<double> el = std::chrono::steady_clock::now() - t0;
    if (job_timeout_s_ > 0.0 && el.count() > job_timeout_s_) {
      std::lock_guard<std::mutex> lk(mutex_);
      ++overrun_;
    }
    return out;
  };

  // Remaining primary attempts (attempt 0 was the batched call). A backend
  // that *throws* is treated the same as one returning a contract
  // violation; a cancelled attempt additionally counts in jobsTimedOut.
  for (int attempt = 1; attempt <= retry_budget_; ++attempt) {
    try {
      auto out = run(*backend_);
      if (validatePrediction(job.region, out).empty()) return out;
    } catch (const util::DeadlineExceeded&) {
      std::lock_guard<std::mutex> lk(mutex_);
      ++timed_out_;
    } catch (...) {
    }
    if (attempt < retry_budget_) {
      std::lock_guard<std::mutex> lk(mutex_);
      ++retried_;
    }
  }

  // Degrade to the fallback backend (per-region, not globally: later jobs
  // still try the primary first). A cancelled fallback attempt lands in its
  // own counter — it is a statement about the ladder, not the primary.
  if (fallback_) {
    try {
      auto out = run(*fallback_);
      if (validatePrediction(job.region, out).empty()) {
        std::lock_guard<std::mutex> lk(mutex_);
        ++fallbacks_;
        return out;
      }
    } catch (const util::DeadlineExceeded&) {
      std::lock_guard<std::mutex> lk(mutex_);
      ++fallback_timed_out_;
    } catch (...) {
    }
  }

  // Last resort: identity prediction. Mass and ids are trivially conserved;
  // the frozen particles unfreeze with their capture-time state.
  {
    std::lock_guard<std::mutex> lk(mutex_);
    ++fallbacks_;
    ++failed_;
  }
  return job.region;
}

void PoolNodeScheduler::workerLoop() {
  for (;;) {
    std::vector<Job> batch;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      work_cv_.wait(lk, [&] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      // Coalesce: take an even share of the queue, capped by kMaxBatch —
      // a lone worker sweeps a starburst into one batched forward, while a
      // full worker pool still splits the queue instead of one worker
      // hoarding it.
      const auto qs = queue_.size();
      const auto share = (qs + static_cast<std::size_t>(n_pool_) - 1) /
                         static_cast<std::size_t>(n_pool_);
      const auto take =
          std::min({qs, std::max<std::size_t>(1, share),
                    static_cast<std::size_t>(kMaxBatch)});
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        in_flight_releases_.insert(batch.back().release_step);
      }
      in_flight_ += static_cast<int>(take);
      ++batch_calls_;
      if (take > 1) coalesced_ += take;
    }
    if (batch.size() > 1) work_cv_.notify_one();  // queue may still be non-empty
    auto predictions = runBatch(batch);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        results_.emplace(std::make_pair(batch[i].release_step, batch[i].id),
                         std::move(predictions[i]));
        in_flight_releases_.erase(in_flight_releases_.find(batch[i].release_step));
        ++completed_;
      }
      in_flight_ -= static_cast<int>(batch.size());
    }
    done_cv_.notify_all();
  }
}

}  // namespace asura::core
