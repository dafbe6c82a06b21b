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

  auto world_ranks = std::make_shared<std::vector<int>>();
  world_ranks->resize(static_cast<std::size_t>(nranks_));
  for (int i = 0; i < nranks_; ++i) (*world_ranks)[static_cast<std::size_t>(i)] = i;

  const int comm_id = next_comm_id_.fetch_add(1);

  std::mutex err_mutex;
  std::exception_ptr first_error;
  bool first_is_abort = false;

  const auto rank_body = [&](int r) {
    Comm comm(this, comm_id, r, nranks_, world_ranks);
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
  return Comm(this, next_comm_id_.fetch_add(1), 0, 1,
              std::make_shared<const std::vector<int>>(1, 0));
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
  std::lock_guard<std::mutex> lk(barrier_mutex_);
  barriers_.clear();
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
  std::lock_guard<std::mutex> lk(barrier_mutex_);
  for (auto& [id, st] : barriers_) {
    { std::lock_guard<std::mutex> slk(st->m); }
    st->cv.notify_all();
  }
}

void Cluster::setFaultPlan(const FaultPlan& plan) {
  fault_ = plan;
  fault_rank_step_.store(-1, std::memory_order_release);
  fault_ops_.store(0, std::memory_order_release);
}

void Cluster::noteStep(int world_rank, long step, int phase) {
  if (world_rank >= 0 && world_rank < nranks_) {
    auto& hb = hb_[static_cast<std::size_t>(world_rank)];
    hb.step.store(step, std::memory_order_release);
    hb.phase.store(phase, std::memory_order_release);
    hb.ticks.fetch_add(1, std::memory_order_acq_rel);
  }
  if (fault_.kind == FaultPlan::Kind::None || world_rank != fault_.rank) return;
  fault_rank_step_.store(step, std::memory_order_release);
  // Progress publication is itself a fault point for Kill/Hang plans: a
  // serial (comm-free) supervised rank has no send/recv/barrier to latch
  // onto, but it heartbeats every step.
  if (fault_.kind == FaultPlan::Kind::KillRank ||
      fault_.kind == FaultPlan::Kind::HangRank) {
    switch (nextFault(world_rank, /*is_send=*/false)) {
      case FaultPlan::Kind::KillRank:
        throw RankKilled("fault plan: rank " + std::to_string(world_rank) +
                         " killed at step " + std::to_string(step));
      case FaultPlan::Kind::HangRank:
        hangUntilAbort();
      default:
        break;
    }
  }
}

void Cluster::noteRankDone(int world_rank) {
  if (world_rank < 0 || world_rank >= nranks_) return;
  hb_[static_cast<std::size_t>(world_rank)].done.store(true,
                                                       std::memory_order_release);
}

Cluster::Heartbeat Cluster::heartbeat(int world_rank) const {
  Heartbeat out;
  if (world_rank < 0 || world_rank >= nranks_) return out;
  const auto& hb = hb_[static_cast<std::size_t>(world_rank)];
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

FaultPlan::Kind Cluster::nextFault(int world_rank, bool is_send) {
  if (fault_.kind == FaultPlan::Kind::None || world_rank != fault_.rank) {
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

Cluster::BarrierState& Cluster::barrierState(int comm_id) {
  std::lock_guard<std::mutex> lk(barrier_mutex_);
  auto& slot = barriers_[comm_id];
  if (!slot) slot = std::make_unique<BarrierState>();
  return *slot;
}

void Cluster::deposit(int world_dst, const MailKey& key, Msg msg) {
  msg_count_.fetch_add(1, std::memory_order_relaxed);
  byte_count_.fetch_add(msg.data.size(), std::memory_order_relaxed);
  Mailbox& mb = *boxes_.at(static_cast<std::size_t>(world_dst));
  {
    std::lock_guard<std::mutex> lk(mb.m);
    mb.q[key].push_back(std::move(msg));
  }
  mb.cv.notify_all();
}

Buffer Cluster::collect(int world_me, const MailKey& key) {
  Mailbox& mb = *boxes_.at(static_cast<std::size_t>(world_me));
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

  switch (cluster_->nextFault(worldRank(rank_), /*is_send=*/true)) {
    case FaultPlan::Kind::DropMessage:
      return;  // silently discarded; the payload never reaches the mailbox
    case FaultPlan::Kind::DelayMessage:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cluster_->fault_.delay_ms));
      break;
    case FaultPlan::Kind::CorruptPayload:
      if (!buf.empty()) buf[0] = static_cast<char>(~buf[0]);
      break;
    case FaultPlan::Kind::KillRank:
      throw RankKilled("fault plan: rank " + std::to_string(worldRank(rank_)) +
                       " killed in send");
    case FaultPlan::Kind::HangRank:
      cluster_->hangUntilAbort();
    case FaultPlan::Kind::None:
      break;
  }
  cluster_->deposit(worldRank(dst), {comm_id_, rank_, tag},
                    Cluster::Msg{std::move(buf), crc, guarded});
}

Buffer Comm::recvBytes(int src, int tag) {
  if (src < 0 || src >= size_) throw std::out_of_range("recv: bad source rank");
  switch (cluster_->nextFault(worldRank(rank_), /*is_send=*/false)) {
    case FaultPlan::Kind::KillRank:
      throw RankKilled("fault plan: rank " + std::to_string(worldRank(rank_)) +
                       " killed in recv");
    case FaultPlan::Kind::HangRank:
      cluster_->hangUntilAbort();
    default:
      break;
  }
  return cluster_->collect(worldRank(rank_), {comm_id_, src, tag});
}

void Comm::barrier() {
  switch (cluster_->nextFault(worldRank(rank_), /*is_send=*/false)) {
    case FaultPlan::Kind::KillRank:
      throw RankKilled("fault plan: rank " + std::to_string(worldRank(rank_)) +
                       " killed in barrier");
    case FaultPlan::Kind::HangRank:
      cluster_->hangUntilAbort();
    default:
      break;
  }
  auto& st = cluster_->barrierState(comm_id_);
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

Comm Comm::split(int color, int key) {
  // Gather (color, key) pairs on rank 0, compute groups, scatter results.
  const int tag = nextCollectiveTag();
  struct Entry {
    int color, key, old_rank;
  };

  std::vector<Entry> all;
  if (rank_ == 0) {
    all.resize(static_cast<std::size_t>(size_));
    all[0] = {color, key, 0};
    for (int r = 1; r < size_; ++r) all[static_cast<std::size_t>(r)] = recv<Entry>(r, tag).at(0);
  } else {
    send(0, tag, std::vector<Entry>{{color, key, rank_}});
  }

  // Rank 0 assigns: for each distinct color a fresh comm id and a rank order
  // sorted by (key, old_rank); then sends each rank its (id, rank, size) and
  // the comm-rank -> world-rank table.
  struct Assignment {
    int comm_id, new_rank, new_size;
  };

  Assignment mine{};
  std::vector<int> my_world_ranks;

  if (rank_ == 0) {
    std::vector<int> colors;
    for (const auto& e : all) colors.push_back(e.color);
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

    for (int c : colors) {
      std::vector<Entry> group;
      for (const auto& e : all) {
        if (e.color == c) group.push_back(e);
      }
      std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
        return std::pair(a.key, a.old_rank) < std::pair(b.key, b.old_rank);
      });
      const int new_id = cluster_->next_comm_id_.fetch_add(1);
      std::vector<int> wr;
      wr.reserve(group.size());
      for (const auto& g : group) wr.push_back(worldRank(g.old_rank));
      for (std::size_t i = 0; i < group.size(); ++i) {
        const Assignment a{new_id, static_cast<int>(i), static_cast<int>(group.size())};
        if (group[i].old_rank == 0) {
          mine = a;
          my_world_ranks = wr;
        } else {
          send(group[i].old_rank, tag + 1, std::vector<Assignment>{a});
          send(group[i].old_rank, tag + 1, wr);
        }
      }
    }
  } else {
    mine = recv<Assignment>(0, tag + 1).at(0);
    my_world_ranks = recv<int>(0, tag + 1);
  }

  return Comm(cluster_, mine.comm_id, mine.new_rank, mine.new_size,
              std::make_shared<const std::vector<int>>(std::move(my_world_ranks)));
}

}  // namespace asura::comm
