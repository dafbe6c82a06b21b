#include "comm/comm.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "io/serialize.hpp"

namespace asura::comm {

Cluster::Cluster(int nranks) : nranks_(nranks) {
  if (nranks <= 0) throw std::invalid_argument("Cluster: nranks must be positive");
  boxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) boxes_.push_back(std::make_unique<Mailbox>());
  hb_ = std::make_unique<HeartbeatSlot[]>(static_cast<std::size_t>(nranks));
}

Cluster::~Cluster() = default;

void Cluster::run(const std::function<void(Comm&)>& body) {
  resetRunState();

  std::mutex err_mutex;
  std::exception_ptr first_error;
  bool first_is_abort = false;

  const auto rank_body = [&](int r) {
    Comm comm(this, r, nranks_);
    try {
      body(comm);
    } catch (const ClusterAborted&) {
      // Secondary casualty of somebody else's failure: recorded only if no
      // real exception ever surfaces, and never re-triggers the abort.
      std::lock_guard<std::mutex> lk(err_mutex);
      if (!first_error) {
        first_error = std::current_exception();
        first_is_abort = true;
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(err_mutex);
        if (!first_error || first_is_abort) {
          first_error = std::current_exception();
          first_is_abort = false;
        }
      }
      // Cooperative abort: peers blocked in recv/barrier/collectives wake
      // with ClusterAborted instead of deadlocking the join below.
      requestAbort();
    }
  };

  // Ranks 1..P-1 get threads of their own; rank 0 runs on the caller's
  // thread, so a one-rank run starts no thread and reuses the caller's
  // OpenMP team.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_ - 1));
  for (int r = 1; r < nranks_; ++r) threads.emplace_back(rank_body, r);
  rank_body(0);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

Comm Cluster::selfComm() {
  if (nranks_ != 1) {
    throw std::logic_error("Cluster::selfComm: the cluster has more than one rank");
  }
  return Comm(this, 0, 1);
}

void Cluster::resetRunState() {
  abort_flag_.store(false, std::memory_order_release);
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lk(box->m);
    box->q.clear();
  }
  for (int i = 0; i < nranks_; ++i) {
    auto& hb = hb_[static_cast<std::size_t>(i)];
    hb.step.store(-1, std::memory_order_release);
    hb.phase.store(0, std::memory_order_release);
    hb.ticks.store(0, std::memory_order_release);
    hb.done.store(false, std::memory_order_release);
  }
  // Ranks an aborted barrier woke left their arrivals counted; the next
  // run's barrier must wait for all of its own.
  std::lock_guard<std::mutex> lk(barrier_.m);
  barrier_.count = 0;
}

void Cluster::requestAbort() {
  abort_flag_.store(true, std::memory_order_release);
  // Lock/unlock each waiter's mutex before notifying: a waiter that checked
  // the predicate just before the flag was set cannot slip into wait() and
  // miss the notification.
  for (auto& box : boxes_) {
    { std::lock_guard<std::mutex> lk(box->m); }
    box->cv.notify_all();
  }
  { std::lock_guard<std::mutex> lk(barrier_.m); }
  barrier_.cv.notify_all();
}

void Cluster::setFaultPlan(const FaultPlan& plan) {
  fault_ = plan;
  fault_rank_step_.store(-1, std::memory_order_release);
  fault_ops_.store(0, std::memory_order_release);
}

void Cluster::noteStep(int rank, long step, int phase) {
  if (rank >= 0 && rank < nranks_) {
    auto& hb = hb_[static_cast<std::size_t>(rank)];
    hb.step.store(step, std::memory_order_release);
    hb.phase.store(phase, std::memory_order_release);
    hb.ticks.fetch_add(1, std::memory_order_acq_rel);
  }
  if (fault_.kind == FaultPlan::Kind::None || rank != fault_.rank) return;
  fault_rank_step_.store(step, std::memory_order_release);
  // Progress publication is itself a fault point for Kill/Hang plans: a
  // serial (comm-free) supervised rank has no send/recv/barrier to latch
  // onto, but it heartbeats every step.
  if (fault_.kind == FaultPlan::Kind::KillRank ||
      fault_.kind == FaultPlan::Kind::HangRank) {
    switch (nextFault(rank, /*is_send=*/false)) {
      case FaultPlan::Kind::KillRank:
        throw RankKilled("fault plan: rank " + std::to_string(rank) +
                         " killed at step " + std::to_string(step));
      case FaultPlan::Kind::HangRank:
        hangUntilAbort();
      default:
        break;
    }
  }
}

void Cluster::noteRankDone(int rank) {
  if (rank < 0 || rank >= nranks_) return;
  hb_[static_cast<std::size_t>(rank)].done.store(true, std::memory_order_release);
}

Cluster::Heartbeat Cluster::heartbeat(int rank) const {
  Heartbeat out;
  if (rank < 0 || rank >= nranks_) return out;
  const auto& hb = hb_[static_cast<std::size_t>(rank)];
  // ticks first (acquire): a reader that sees tick N also sees the step and
  // phase published before it.
  out.ticks = hb.ticks.load(std::memory_order_acquire);
  out.step = hb.step.load(std::memory_order_acquire);
  out.phase = hb.phase.load(std::memory_order_acquire);
  out.done = hb.done.load(std::memory_order_acquire);
  return out;
}

void Cluster::hangUntilAbort() {
  // Simulated hang: stop publishing progress but stay interruptible — a
  // real hang would need the watchdog (or a peer's failure) to resolve it
  // anyway, and a test must never be able to wedge the join permanently.
  while (!aborted()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw ClusterAborted{};
}

FaultPlan::Kind Cluster::nextFault(int rank, bool is_send) {
  if (fault_.kind == FaultPlan::Kind::None || rank != fault_.rank) {
    return FaultPlan::Kind::None;
  }
  if (fault_.at_step >= 0 &&
      fault_rank_step_.load(std::memory_order_acquire) < fault_.at_step) {
    return FaultPlan::Kind::None;
  }
  const bool eligible = fault_.kind == FaultPlan::Kind::KillRank ||
                        fault_.kind == FaultPlan::Kind::HangRank || is_send;
  if (!eligible) return FaultPlan::Kind::None;
  const auto op = fault_ops_.fetch_add(1, std::memory_order_acq_rel);
  if (op < fault_.after_ops) return FaultPlan::Kind::None;
  if (op >= fault_.after_ops + static_cast<std::uint64_t>(std::max(1, fault_.count))) {
    return FaultPlan::Kind::None;
  }
  return fault_.kind;
}

Cluster::Traffic Cluster::traffic() const {
  return {msg_count_.load(), byte_count_.load()};
}

void Cluster::resetTraffic() {
  msg_count_ = 0;
  byte_count_ = 0;
}

void Cluster::deposit(int dst, const MailKey& key, Msg msg) {
  msg_count_.fetch_add(1, std::memory_order_relaxed);
  byte_count_.fetch_add(msg.data.size(), std::memory_order_relaxed);
  Mailbox& mb = *boxes_.at(static_cast<std::size_t>(dst));
  {
    std::lock_guard<std::mutex> lk(mb.m);
    mb.q[key].push_back(std::move(msg));
  }
  mb.cv.notify_all();
}

Buffer Cluster::collect(int me, const MailKey& key) {
  Mailbox& mb = *boxes_.at(static_cast<std::size_t>(me));
  std::unique_lock<std::mutex> lk(mb.m);
  mb.cv.wait(lk, [&] {
    auto it = mb.q.find(key);
    return (it != mb.q.end() && !it->second.empty()) || aborted();
  });
  auto it = mb.q.find(key);
  if (it == mb.q.end() || it->second.empty()) {
    // Woken by the abort with no matching message: the sender died.
    throw ClusterAborted{};
  }
  Msg msg = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) mb.q.erase(it);
  lk.unlock();
  if (msg.guarded &&
      io::crc32(msg.data.data(), msg.data.size()) != msg.crc) {
    throw MessageCorrupt(
        "comm: payload CRC mismatch on recv (message from rank " +
        std::to_string(key.src) + ", tag " + std::to_string(key.tag) +
        " corrupted in flight)");
  }
  return std::move(msg.data);
}

void Comm::sendBytes(int dst, int tag, const void* data, std::size_t nbytes) {
  if (dst < 0 || dst >= size_) throw std::out_of_range("send: bad destination rank");
  // A compute-bound rank that only ever sends still collapses promptly after
  // a peer died instead of producing into dead mailboxes forever.
  cluster_->throwIfAborted();
  Buffer buf(nbytes);
  if (nbytes > 0) std::memcpy(buf.data(), data, nbytes);

  // Guard CRC is computed BEFORE the fault switch mutates the buffer: an
  // injected CorruptPayload then models wire corruption, and the guarded
  // receiver detects it instead of consuming silently wrong bytes.
  const bool guarded = cluster_->messageGuard();
  const std::uint32_t crc = guarded ? io::crc32(buf.data(), buf.size()) : 0;

  switch (cluster_->nextFault(rank_, /*is_send=*/true)) {
    case FaultPlan::Kind::CorruptPayload:
      if (!buf.empty()) buf[0] = static_cast<char>(~buf[0]);
      break;
    case FaultPlan::Kind::KillRank:
      throw RankKilled("fault plan: rank " + std::to_string(rank_) + " killed in send");
    case FaultPlan::Kind::HangRank:
      cluster_->hangUntilAbort();
    case FaultPlan::Kind::None:
      break;
  }
  cluster_->deposit(dst, {rank_, tag}, Cluster::Msg{std::move(buf), crc, guarded});
}

Buffer Comm::recvBytes(int src, int tag) {
  if (src < 0 || src >= size_) throw std::out_of_range("recv: bad source rank");
  switch (cluster_->nextFault(rank_, /*is_send=*/false)) {
    case FaultPlan::Kind::KillRank:
      throw RankKilled("fault plan: rank " + std::to_string(rank_) + " killed in recv");
    case FaultPlan::Kind::HangRank:
      cluster_->hangUntilAbort();
    default:
      break;
  }
  return cluster_->collect(rank_, {src, tag});
}

void Comm::barrier() {
  switch (cluster_->nextFault(rank_, /*is_send=*/false)) {
    case FaultPlan::Kind::KillRank:
      throw RankKilled("fault plan: rank " + std::to_string(rank_) + " killed in barrier");
    case FaultPlan::Kind::HangRank:
      cluster_->hangUntilAbort();
    default:
      break;
  }
  auto& st = cluster_->barrier_;
  std::unique_lock<std::mutex> lk(st.m);
  const std::uint64_t gen = st.generation;
  if (++st.count == size_) {
    st.count = 0;
    ++st.generation;
    st.cv.notify_all();
  } else {
    st.cv.wait(lk, [&] { return st.generation != gen || cluster_->aborted(); });
    if (st.generation == gen) throw ClusterAborted{};  // abort, not completion
  }
}

}  // namespace asura::comm
