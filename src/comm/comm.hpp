#pragma once
/// \file comm.hpp
/// \brief Thread-backed SPMD message-passing substrate (the MPI stand-in).
///
/// The paper runs one MPI process per node (Fugaku) or 48 per node (Rusty).
/// This container has no MPI, so `Cluster` launches P ranks as threads, each
/// executing the same SPMD body with a `Comm` handle that provides the MPI
/// subset FDPS needs: point-to-point send/recv, barrier, bcast, allreduce,
/// allgather(v) and alltoallv.
///
/// Design rules (mirroring MPI semantics):
///  * user code communicates ONLY through Comm — no shared-memory shortcuts;
///  * sends are buffered (never deadlock on matching order);
///  * a cluster hosts one communicator: its run's, or selfComm's on a
///    one-rank cluster. A Comm rank is therefore a cluster rank, and message
///    matching is by (source, tag);
///  * collectives are called in the same order by every rank (an internal
///    per-handle sequence number keyed into the tag space keeps consecutive
///    collectives from cross-talking).
///
/// All traffic is metered (message/byte counters) so the analytic network
/// model in asura::perf can be calibrated against real exchanges.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace asura::comm {

using Buffer = std::vector<char>;

enum class Op { Sum, Min, Max };

/// Thrown by blocked recv/barrier/collective calls when another rank of the
/// cluster died: the cooperative abort path wakes every waiter instead of
/// letting Cluster::run deadlock in the join. Cluster::run suppresses these
/// in favour of the originating rank's real exception.
class ClusterAborted : public std::runtime_error {
 public:
  ClusterAborted() : std::runtime_error("comm: cluster aborted by a peer rank") {}
};

/// Thrown from a comm operation when a FaultPlan kills the rank (fault
/// injection for recovery tests; never raised in production runs).
class RankKilled : public std::runtime_error {
 public:
  explicit RankKilled(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown by recv when the message guard (Cluster::setMessageGuard) detects
/// a payload whose bytes changed between send and delivery. The CRC is
/// computed on the send side *before* fault injection mutates the buffer, so
/// an injected CorruptPayload models wire corruption and a guarded receiver
/// catches it instead of consuming silently wrong bytes.
class MessageCorrupt : public std::runtime_error {
 public:
  explicit MessageCorrupt(const std::string& what) : std::runtime_error(what) {}
};

/// Injected failure for the SPMD substrate: the faults the recovery drills
/// inject. One plan at a time, installed with Cluster::setFaultPlan *before*
/// Cluster::run; the plan applies to one rank and triggers once that rank is
/// armed (noteStep reached `at_step`, or immediately when at_step < 0) and
/// has issued `after_ops` further eligible operations. CorruptPayload acts on
/// the send side and affects up to `count` sends; KillRank throws RankKilled
/// from the first eligible operation (send, recv, barrier, or the noteStep
/// call itself — the latter is what makes serial, comm-free supervised runs
/// injectable); HangRank stalls the rank in an abort-interruptible sleep
/// loop at the same points (a simulated hang: progress publication stops,
/// but the thread stays joinable once a watchdog or peer failure raises the
/// cooperative abort).
struct FaultPlan {
  enum class Kind {
    None,            ///< no fault installed
    CorruptPayload,  ///< first byte of the payload is bit-flipped
    KillRank,        ///< the rank throws RankKilled
    HangRank,        ///< the rank stalls until the cluster aborts
  };
  Kind kind = Kind::None;
  int rank = -1;                 ///< rank the fault applies to
  long at_step = -1;             ///< arm at this step (see Cluster::noteStep); <0 = armed
  std::uint64_t after_ops = 0;   ///< eligible ops to let through once armed
  int count = 1;                 ///< eligible ops affected (KillRank fires once)
};

class Comm;

/// Owns the mailboxes and synchronization state for a set of SPMD ranks.
class Cluster {
 public:
  explicit Cluster(int nranks);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] int size() const { return nranks_; }

  /// Run `body(comm)` on every rank: rank 0 on the calling thread, ranks
  /// 1..P-1 on threads of their own. Rethrows the first exception raised by
  /// any rank after every rank has returned. A throwing rank
  /// triggers the cooperative abort: peers blocked in recv/barrier/
  /// collectives wake with ClusterAborted instead of deadlocking the join,
  /// and run() rethrows the *originating* exception, not the secondary
  /// aborts. The mailboxes and the barrier count are reset at entry, so an
  /// aborted run leaves no residue for the next one.
  void run(const std::function<void(Comm&)>& body);

  /// Rank 0's communicator on a one-rank cluster, for code that runs outside
  /// run(): the in-process MPI_COMM_SELF. Every collective on it completes
  /// locally, because each send loop skips the own rank, so it deposits no
  /// message, and its barrier completes on arrival. Each call returns a
  /// fresh handle. Throws std::logic_error unless size() == 1.
  [[nodiscard]] Comm selfComm();

  struct Traffic {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] Traffic traffic() const;
  void resetTraffic();

  // --- heartbeats / liveness ------------------------------------------------

  /// Most recent progress a rank published through noteStep. `ticks` is the
  /// monotonic publication counter a watchdog compares across polls: a rank
  /// whose ticks stop changing while not `done` has stalled. step < 0 means
  /// the rank never published in this run.
  struct Heartbeat {
    long step = -1;
    int phase = 0;
    std::uint64_t ticks = 0;
    bool done = false;
  };

  /// Snapshot of `rank`'s heartbeat slot (lock-free; any thread).
  [[nodiscard]] Heartbeat heartbeat(int rank) const;

  /// Mark a rank's supervised body as finished so a watchdog stops expecting
  /// progress from it (other ranks may legitimately run much longer).
  void noteRankDone(int rank);

  /// Raise the cooperative abort from outside the ranks (watchdog,
  /// external supervisor). Peers blocked in recv/barrier/collectives wake
  /// with ClusterAborted exactly as if a rank had thrown.
  void triggerAbort() { requestAbort(); }

  // --- message guard --------------------------------------------------------

  /// When on, every send records a CRC-32 of the payload *before* fault
  /// injection can mutate it and every recv verifies it, throwing
  /// MessageCorrupt on mismatch. Off by default: corruption tests that
  /// assert silent delivery (and zero-overhead production paths) keep the
  /// unguarded behaviour. Set before run().
  void setMessageGuard(bool on) {
    message_guard_.store(on, std::memory_order_release);
  }
  [[nodiscard]] bool messageGuard() const {
    return message_guard_.load(std::memory_order_acquire);
  }

  // --- fault injection ------------------------------------------------------

  /// Install a fault plan (call before run(); not thread-safe against a
  /// running cluster). Resets the plan's trigger counters.
  void setFaultPlan(const FaultPlan& plan);
  void clearFaultPlan() { setFaultPlan(FaultPlan{}); }

  /// Progress + step-trigger hook: records `rank`'s heartbeat (step,
  /// sub-step phase) for the watchdog, then arms/applies any fault plan
  /// targeting that rank (DistributedEngine::exchangeParticles reports every
  /// step; Simulation's progress reporter adds sub-step phases). Kill/Hang
  /// plans fire here too, so even a serial rank that never touches a comm op
  /// is injectable.
  void noteStep(int rank, long step, int phase = 0);

  [[nodiscard]] bool aborted() const {
    return abort_flag_.load(std::memory_order_acquire);
  }

 private:
  friend class Comm;

  /// Wake every rank blocked in a mailbox or barrier wait; they throw
  /// ClusterAborted from the wait instead of sleeping through the join.
  void requestAbort();
  /// Body of a HangRank fault: stall (interruptibly) until the cooperative
  /// abort lands, then unwind with ClusterAborted.
  [[noreturn]] void hangUntilAbort();
  void throwIfAborted() const {
    if (aborted()) throw ClusterAborted{};
  }
  /// Reset the abort flag and purge mailbox/barrier residue of a previous
  /// (possibly aborted) run.
  void resetRunState();

  /// Fault decision for one eligible operation of `rank`. CorruptPayload is
  /// eligible on sends only; KillRank/HangRank on any comm op (and on
  /// noteStep itself).
  [[nodiscard]] FaultPlan::Kind nextFault(int rank, bool is_send);

  struct MailKey {
    int src;
    int tag;
    auto operator<=>(const MailKey&) const = default;
  };

  /// A buffered message plus its optional send-side integrity record.
  struct Msg {
    Buffer data;
    std::uint32_t crc = 0;  ///< CRC-32 of the pre-fault payload (guarded only)
    bool guarded = false;
  };

  struct Mailbox {
    std::mutex m;
    std::condition_variable cv;
    std::map<MailKey, std::deque<Msg>> q;
  };

  struct BarrierState {
    std::mutex m;
    std::condition_variable cv;
    int count = 0;
    std::uint64_t generation = 0;
  };

  void deposit(int dst, const MailKey& key, Msg msg);
  Buffer collect(int me, const MailKey& key);

  /// One cache line per rank: the watchdog polls every slot at a few tens of
  /// Hz while ranks publish from their own threads.
  struct alignas(64) HeartbeatSlot {
    std::atomic<long> step{-1};
    std::atomic<int> phase{0};
    std::atomic<std::uint64_t> ticks{0};
    std::atomic<bool> done{false};
  };

  int nranks_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::unique_ptr<HeartbeatSlot[]> hb_;
  BarrierState barrier_;
  std::atomic<std::uint64_t> msg_count_{0};
  std::atomic<std::uint64_t> byte_count_{0};
  std::atomic<bool> message_guard_{false};

  // --- cooperative abort ---
  std::atomic<bool> abort_flag_{false};

  // --- fault injection (single plan; counters touched only by the planned
  // rank's thread, atomics are belt-and-braces) ---
  FaultPlan fault_;
  std::atomic<long> fault_rank_step_{-1};
  std::atomic<std::uint64_t> fault_ops_{0};
};

/// Per-rank communicator handle. Move-only: every rank owns exactly one
/// handle, so collective sequence numbers stay in lock-step.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }

  Comm(Comm&&) = default;
  Comm& operator=(Comm&&) = default;
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  // --- point to point -----------------------------------------------------
  void sendBytes(int dst, int tag, const void* data, std::size_t nbytes);
  [[nodiscard]] Buffer recvBytes(int src, int tag);

  template <class T>
  void send(int dst, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    sendBytes(dst, tag, v.data(), v.size() * sizeof(T));
  }

  template <class T>
  [[nodiscard]] std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Buffer b = recvBytes(src, tag);
    if (b.size() % sizeof(T) != 0) throw std::runtime_error("recv: size mismatch");
    std::vector<T> v(b.size() / sizeof(T));
    // An empty message has null data pointers, which memcpy may not receive.
    if (!b.empty()) std::memcpy(v.data(), b.data(), b.size());
    return v;
  }

  // --- collectives ---------------------------------------------------------
  void barrier();

  template <class T>
  std::vector<T> bcast(std::vector<T> v, int root) {
    const int tag = nextCollectiveTag();
    if (rank_ == root) {
      for (int r = 0; r < size_; ++r) {
        if (r != root) send(r, tag, v);
      }
      return v;
    }
    return recv<T>(root, tag);
  }

  template <class T>
  T allreduce(T value, Op op) {
    static_assert(std::is_arithmetic_v<T>);
    const int tag = nextCollectiveTag();
    if (rank_ == 0) {
      T acc = value;
      for (int r = 1; r < size_; ++r) acc = combine(acc, recv<T>(r, tag).at(0), op);
      const std::vector<T> res{acc};
      for (int r = 1; r < size_; ++r) send(r, tag + 1, res);
      return acc;
    }
    send(0, tag, std::vector<T>{value});
    return recv<T>(0, tag + 1).at(0);
  }

  /// Gather one element from each rank; every rank receives the full array.
  template <class T>
  std::vector<T> allgather(const T& v) {
    auto parts = allgatherv(std::vector<T>{v});
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(size_));
    for (auto& p : parts) out.push_back(p.at(0));
    return out;
  }

  /// Variable-size allgather: returns per-source vectors.
  template <class T>
  std::vector<std::vector<T>> allgatherv(const std::vector<T>& v) {
    const int tag = nextCollectiveTag();
    for (int r = 0; r < size_; ++r) {
      if (r != rank_) send(r, tag, v);
    }
    std::vector<std::vector<T>> out(static_cast<std::size_t>(size_));
    out[static_cast<std::size_t>(rank_)] = v;
    for (int r = 0; r < size_; ++r) {
      if (r != rank_) out[static_cast<std::size_t>(r)] = recv<T>(r, tag);
    }
    return out;
  }

  /// Flat all-to-all with variable message sizes: send[d] goes to rank d,
  /// result[s] is what rank s sent to us. The paper's 3-D algorithm (§3.4)
  /// routes it along torus lines to cut fan-out on Fugaku's network; on this
  /// in-process cluster that sent more bytes and ran slower, so every
  /// exchange is flat (docs/distributed.md).
  template <class T>
  std::vector<std::vector<T>> alltoallv(const std::vector<std::vector<T>>& sendbufs) {
    if (sendbufs.size() != static_cast<std::size_t>(size_)) {
      throw std::invalid_argument("alltoallv: need one buffer per rank");
    }
    const int tag = nextCollectiveTag();
    for (int r = 0; r < size_; ++r) {
      if (r != rank_) send(r, tag, sendbufs[static_cast<std::size_t>(r)]);
    }
    std::vector<std::vector<T>> out(static_cast<std::size_t>(size_));
    out[static_cast<std::size_t>(rank_)] = sendbufs[static_cast<std::size_t>(rank_)];
    for (int r = 0; r < size_; ++r) {
      if (r != rank_) out[static_cast<std::size_t>(r)] = recv<T>(r, tag);
    }
    return out;
  }

  [[nodiscard]] Cluster& cluster() const { return *cluster_; }

 private:
  friend class Cluster;

  Comm(Cluster* cluster, int rank, int size)
      : cluster_(cluster), rank_(rank), size_(size) {}

  /// Each collective consumes one sequence slot; the slot maps to a pair of
  /// tags (allreduce uses tag and tag+1) well above the user tag space.
  int nextCollectiveTag() {
    const auto s = collective_seq_++;
    return kCollectiveTagBase + 2 * static_cast<int>(s % kCollectiveTagSlots);
  }

  template <class T>
  static T combine(T a, T b, Op op) {
    switch (op) {
      case Op::Sum: return static_cast<T>(a + b);
      case Op::Min: return b < a ? b : a;
      case Op::Max: return a < b ? b : a;
    }
    return a;
  }

  static constexpr int kCollectiveTagBase = 1 << 20;
  static constexpr std::uint64_t kCollectiveTagSlots = 1 << 16;

  Cluster* cluster_;
  int rank_;
  int size_;
  std::uint64_t collective_seq_ = 0;
};

/// Factor p into (px, py, pz) as close to cubic as possible (px>=py>=pz):
/// the rank grid of the domain decomposer.
inline void factor3(int p, int& px, int& py, int& pz) {
  px = py = pz = 1;
  // Greedy: repeatedly give the smallest axis the largest remaining factor.
  int rest = p;
  auto smallest = [&]() -> int& {
    if (px <= py && px <= pz) return px;
    if (py <= pz) return py;
    return pz;
  };
  for (int f = 2; f * f <= rest; ++f) {
    while (rest % f == 0) {
      // collect factors from small to large; assign later
      rest /= f;
      smallest() *= f;
    }
  }
  if (rest > 1) smallest() *= rest;
  // Sort descending for a deterministic orientation.
  if (px < py) std::swap(px, py);
  if (py < pz) std::swap(py, pz);
  if (px < py) std::swap(px, py);
}

}  // namespace asura::comm
