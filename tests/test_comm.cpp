// Tests for the SPMD message-passing substrate: point-to-point semantics,
// collectives against sequential references, the cooperative abort, fault
// injection, heartbeats and the message guard.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/comm.hpp"
#include "comm/watchdog.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::comm::Op;

TEST(Comm, SendRecvRoundTrip) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 7, {1, 2, 3});
      const auto back = comm.recv<double>(1, 8);
      ASSERT_EQ(back.size(), 2u);
      EXPECT_DOUBLE_EQ(back[0], 2.5);
    } else {
      const auto v = comm.recv<int>(0, 7);
      EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
      comm.send<double>(0, 8, {2.5, -1.0});
    }
  });
}

TEST(Comm, MessagesMatchedByTagInFifoOrder) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 5, {50});
      comm.send<int>(1, 4, {40});
      comm.send<int>(1, 5, {51});
    } else {
      // Tag 4 first although it was sent second; then tag-5 FIFO order.
      EXPECT_EQ(comm.recv<int>(0, 4).at(0), 40);
      EXPECT_EQ(comm.recv<int>(0, 5).at(0), 50);
      EXPECT_EQ(comm.recv<int>(0, 5).at(0), 51);
    }
  });
}

TEST(Comm, EmptyMessage) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, {});
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 1).empty());
    }
  });
}

TEST(Comm, BarrierSynchronizes) {
  Cluster cluster(8);
  std::atomic<int> phase_counter{0};
  cluster.run([&](Comm& comm) {
    phase_counter.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all increments.
    EXPECT_EQ(phase_counter.load(), 8);
    comm.barrier();
  });
}

TEST(Comm, RepeatedBarriers) {
  Cluster cluster(4);
  cluster.run([](Comm& comm) {
    for (int i = 0; i < 100; ++i) comm.barrier();
  });
}

TEST(Comm, Bcast) {
  Cluster cluster(5);
  cluster.run([](Comm& comm) {
    std::vector<int> v;
    if (comm.rank() == 2) v = {10, 20, 30};
    const auto out = comm.bcast(v, 2);
    EXPECT_EQ(out, (std::vector<int>{10, 20, 30}));
  });
}

TEST(Comm, AllreduceSumMinMax) {
  Cluster cluster(6);
  cluster.run([](Comm& comm) {
    const int r = comm.rank();
    EXPECT_EQ(comm.allreduce(r, Op::Sum), 15);
    EXPECT_EQ(comm.allreduce(r, Op::Min), 0);
    EXPECT_EQ(comm.allreduce(r, Op::Max), 5);
    EXPECT_DOUBLE_EQ(comm.allreduce(0.5 * r, Op::Sum), 7.5);
  });
}

TEST(Comm, Allgather) {
  Cluster cluster(4);
  cluster.run([](Comm& comm) {
    const auto all = comm.allgather(comm.rank() * comm.rank());
    EXPECT_EQ(all, (std::vector<int>{0, 1, 4, 9}));
  });
}

TEST(Comm, AllgathervVariableSizes) {
  Cluster cluster(4);
  cluster.run([](Comm& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()), comm.rank());
    const auto parts = comm.allgatherv(mine);
    ASSERT_EQ(parts.size(), 4u);
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(parts[s].size(), static_cast<std::size_t>(s));
      for (int x : parts[s]) EXPECT_EQ(x, s);
    }
  });
}

TEST(Comm, AlltoallvMatrixTranspose) {
  // alltoallv semantics: out[s] == what s put in send[me].
  const int P = 6;
  Cluster cluster(P);
  cluster.run([P](Comm& comm) {
    std::vector<std::vector<int>> send(P);
    for (int d = 0; d < P; ++d) send[d] = {100 * comm.rank() + d};
    const auto out = comm.alltoallv(send);
    for (int s = 0; s < P; ++s) {
      ASSERT_EQ(out[s].size(), 1u);
      EXPECT_EQ(out[s][0], 100 * s + comm.rank());
    }
  });
}

TEST(Comm, ExceptionInRankPropagates) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("rank 1 died");
  }),
               std::runtime_error);
}

TEST(Comm, TrafficCountersGrow) {
  Cluster cluster(3);
  cluster.resetTraffic();
  cluster.run([](Comm& comm) {
    (void)comm.allgather(comm.rank());
  });
  const auto t = cluster.traffic();
  EXPECT_GT(t.messages, 0u);
  EXPECT_GT(t.bytes, 0u);
}

TEST(Comm, SelfCommCompletesCollectivesLocally) {
  // The in-process MPI_COMM_SELF, used outside run(): every collective
  // returns the caller's own contribution and sends nothing.
  Cluster cluster(1);
  Comm self = cluster.selfComm();
  EXPECT_EQ(self.rank(), 0);
  EXPECT_EQ(self.size(), 1);
  EXPECT_EQ(self.allreduce(2.5, Op::Sum), 2.5);
  EXPECT_EQ(self.allreduce(-3, Op::Min), -3);
  EXPECT_EQ(self.allreduce(7L, Op::Max), 7L);
  EXPECT_EQ(self.allgather(42), std::vector<int>{42});
  const std::vector<int> v{1, 2, 3};
  EXPECT_EQ(self.allgatherv(v), std::vector<std::vector<int>>{v});
  EXPECT_EQ(self.alltoallv(std::vector<std::vector<int>>{v}), std::vector<std::vector<int>>{v});
  EXPECT_EQ(self.bcast(v, 0), v);
  self.barrier();
  EXPECT_EQ(cluster.traffic().messages, 0u);
  EXPECT_EQ(cluster.traffic().bytes, 0u);

  Cluster two(2);
  EXPECT_THROW((void)two.selfComm(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Cooperative abort: a throwing rank must never strand its peers
// ---------------------------------------------------------------------------

TEST(Comm, ExceptionWhilePeerBlockedInRecvDoesNotDeadlock) {
  // Regression: rank 1 waits for a message rank 0 will never send because
  // rank 0 threw first. Before the cooperative abort, run() joined rank 1
  // forever; now the abort poisons the mailbox, rank 1 unwinds with
  // ClusterAborted, and the join rethrows rank 0's real exception.
  Cluster cluster(2);
  try {
    cluster.run([](Comm& comm) {
      if (comm.rank() == 0) throw std::runtime_error("rank 0 died");
      (void)comm.recv<int>(0, 99);  // never sent
    });
    FAIL() << "run() returned despite a rank throwing";
  } catch (const std::runtime_error& e) {
    // The originating error wins over the secondary ClusterAborted unwinds.
    EXPECT_STREQ(e.what(), "rank 0 died");
  }
}

TEST(Comm, ExceptionWhilePeersBlockedInBarrierDoesNotDeadlock) {
  Cluster cluster(4);
  try {
    cluster.run([](Comm& comm) {
      if (comm.rank() == 2) throw std::logic_error("rank 2 died");
      comm.barrier();  // rank 2 never arrives
    });
    FAIL() << "run() returned despite a rank throwing";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 died");
  }
}

TEST(Comm, ClusterReusableAfterAbort) {
  // resetRunState must purge the poisoned mailboxes/barrier generation: an
  // aborted run may not leave residue that corrupts the next one.
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](Comm& comm) {
    if (comm.rank() == 0) throw std::runtime_error("boom");
    comm.send<int>(0, 5, {1, 2, 3});  // stranded in rank 0's mailbox
    comm.barrier();
  }),
               std::runtime_error);
  EXPECT_TRUE(cluster.aborted());
  cluster.run([](Comm& comm) {
    comm.barrier();
    if (comm.rank() == 0) {
      comm.send<int>(1, 5, {7});
    } else {
      // A fresh tag-5 exchange: the pre-abort {1,2,3} must be gone.
      EXPECT_EQ(comm.recv<int>(0, 5), (std::vector<int>{7}));
    }
  });
  EXPECT_FALSE(cluster.aborted());
}

TEST(Comm, AbortedBarrierDoesNotReleaseTheNextRunEarly) {
  // Ranks 0 and 1 arrive at run 1's barrier and are woken by the abort with
  // their arrivals still counted. run() must zero the count: otherwise run
  // 2's barrier completes before rank 2 has arrived.
  Cluster cluster(3);
  EXPECT_THROW(cluster.run([](Comm& comm) {
    if (comm.rank() == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw std::runtime_error("rank 2 died");
    }
    comm.barrier();
  }),
               std::runtime_error);
  std::atomic<bool> rank2_arrived{false};
  // An early release throws, and the abort unwinds the waiting peers, so a
  // wrong count fails here instead of hanging the run.
  EXPECT_NO_THROW(cluster.run([&](Comm& comm) {
    if (comm.rank() == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      rank2_arrived.store(true);
    }
    comm.barrier();
    if (!rank2_arrived.load()) {
      throw std::runtime_error("barrier released before rank 2 arrived");
    }
  }));
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(Comm, CorruptPayloadFaultFlipsFirstByte) {
  Cluster cluster(2);
  asura::comm::FaultPlan plan;
  plan.kind = asura::comm::FaultPlan::Kind::CorruptPayload;
  plan.rank = 0;
  plan.count = 1;
  cluster.setFaultPlan(plan);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<std::uint32_t>(1, 9, {0u});
    } else {
      // Little-endian u32 0 with its first byte bit-flipped reads 0xFF.
      EXPECT_EQ(comm.recv<std::uint32_t>(0, 9).at(0), 0xFFu);
    }
  });
  cluster.clearFaultPlan();
}

TEST(Comm, KillRankFaultAbortsTheWholeCluster) {
  Cluster cluster(3);
  asura::comm::FaultPlan plan;
  plan.kind = asura::comm::FaultPlan::Kind::KillRank;
  plan.rank = 1;
  cluster.setFaultPlan(plan);
  // Rank 1 dies at its first comm operation; ranks 0 and 2 are parked in
  // the same barrier and must be woken by the abort, not joined forever.
  EXPECT_THROW(cluster.run([](Comm& comm) { comm.barrier(); }),
               asura::comm::RankKilled);
  cluster.clearFaultPlan();
  cluster.run([](Comm& comm) { comm.barrier(); });  // healthy again
}

TEST(Comm, StepArmedFaultWaitsForNoteStep) {
  Cluster cluster(2);
  asura::comm::FaultPlan plan;
  plan.kind = asura::comm::FaultPlan::Kind::KillRank;
  plan.rank = 0;
  plan.at_step = 5;
  cluster.setFaultPlan(plan);
  cluster.run([&cluster](Comm& comm) {
    comm.barrier();  // not armed: harmless
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, {1});
    } else {
      (void)comm.recv<int>(0, 1);
    }
    cluster.noteStep(comm.rank(), 3);  // still below at_step
    comm.barrier();
  });
  EXPECT_THROW(cluster.run([&cluster](Comm& comm) {
    cluster.noteStep(comm.rank(), 5);  // arms rank 0's kill
    comm.barrier();
  }),
               asura::comm::RankKilled);
  cluster.clearFaultPlan();
}

// ---------------------------------------------------------------------------
// Heartbeats, hang detection, message guard
// ---------------------------------------------------------------------------

TEST(Comm, HeartbeatPublishesProgress) {
  Cluster cluster(2);
  cluster.run([&cluster](Comm& comm) {
    cluster.noteStep(comm.rank(), 7, 3);
    if (comm.rank() == 1) cluster.noteRankDone(1);
  });
  const auto hb0 = cluster.heartbeat(0);
  EXPECT_EQ(hb0.step, 7);
  EXPECT_EQ(hb0.phase, 3);
  EXPECT_GT(hb0.ticks, 0u);
  EXPECT_FALSE(hb0.done);
  EXPECT_TRUE(cluster.heartbeat(1).done);

  // A new run starts from a clean slate: heartbeats are per-run state.
  cluster.run([](Comm&) {});
  EXPECT_EQ(cluster.heartbeat(0).step, -1);
  EXPECT_FALSE(cluster.heartbeat(1).done);
}

TEST(Comm, MessageGuardDetectsCorruptPayload) {
  Cluster cluster(2);
  cluster.setMessageGuard(true);
  asura::comm::FaultPlan plan;
  plan.kind = asura::comm::FaultPlan::Kind::CorruptPayload;
  plan.rank = 0;
  plan.count = 1;
  cluster.setFaultPlan(plan);
  // The CRC is computed send-side *before* the fault flips the byte, so the
  // receiver detects the in-flight corruption instead of consuming it.
  EXPECT_THROW(cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<std::uint32_t>(1, 9, {0u});
    } else {
      (void)comm.recv<std::uint32_t>(0, 9);
    }
  }),
               asura::comm::MessageCorrupt);
  cluster.clearFaultPlan();
  cluster.setMessageGuard(false);
  cluster.run([](Comm& comm) { comm.barrier(); });  // healthy again
}

TEST(Comm, HangRankFaultTrippedByWatchdog) {
  Cluster cluster(2);
  asura::comm::FaultPlan plan;
  plan.kind = asura::comm::FaultPlan::Kind::HangRank;
  plan.rank = 0;
  plan.at_step = 1;
  cluster.setFaultPlan(plan);
  asura::comm::Watchdog dog(cluster,
                            asura::comm::Watchdog::Config{0.2, 0.01});
  // Rank 0 publishes step 1 and then stalls inside noteStep; rank 1 parks
  // in the barrier. Without the watchdog this would deadlock forever — the
  // abort turns it into ClusterAborted on every rank.
  EXPECT_THROW(cluster.run([&cluster](Comm& comm) {
    cluster.noteStep(comm.rank(), 1);
    comm.barrier();
  }),
               asura::comm::ClusterAborted);
  dog.stop();
  EXPECT_GE(dog.trips(), 1);
  cluster.clearFaultPlan();
  cluster.run([](Comm& comm) { comm.barrier(); });  // healthy again
}

TEST(Comm, WatchdogIgnoresDoneAndLiveRanks) {
  Cluster cluster(2);
  asura::comm::Watchdog dog(cluster,
                            asura::comm::Watchdog::Config{0.15, 0.01});
  cluster.run([&cluster](Comm& comm) {
    const int r = comm.rank();
    cluster.noteStep(r, 1);
    if (r == 0) {
      // Finishes early; owes no further heartbeats for the rest of the run.
      cluster.noteRankDone(0);
      return;
    }
    // Keeps publishing well past rank 0's deadline: alive, just slow.
    for (int i = 0; i < 40; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      cluster.noteStep(1, 1, i);
    }
  });
  dog.stop();
  EXPECT_EQ(dog.trips(), 0);
}

// ---------------------------------------------------------------------------
// Rank grid
// ---------------------------------------------------------------------------

TEST(Comm, Factor3ProducesNearCubes) {
  int px = 0, py = 0, pz = 0;
  asura::comm::factor3(8, px, py, pz);
  EXPECT_EQ(px * py * pz, 8);
  EXPECT_EQ(px, 2);
  EXPECT_EQ(pz, 2);
  asura::comm::factor3(64, px, py, pz);
  EXPECT_EQ(px * py * pz, 64);
  EXPECT_EQ(px, 4);
  asura::comm::factor3(12, px, py, pz);
  EXPECT_EQ(px * py * pz, 12);
  EXPECT_LE(pz, py);
  EXPECT_LE(py, px);
  asura::comm::factor3(7, px, py, pz);
  EXPECT_EQ(px * py * pz, 7);
}

}  // namespace
