// Tests for deterministic checkpoint/restart: restart-vs-continuous bitwise
// parity (serial and 8 ranks, global and hierarchical integrators, restart
// mid-SN-campaign with undelivered pool predictions), fault-injected rank
// kill + resume, CRC corruption detection, the framing walker, the
// version gate, restore-time validation of the engine block, and the wire
// layout pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/distributed.hpp"
#include "core/simulation.hpp"
#include "core/surrogate.hpp"
#include "ic_fixtures.hpp"
#include "io/checkpoint.hpp"
#include "io/particle_codec.hpp"
#include "io/serialize.hpp"
#include "util/units.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::comm::FaultPlan;
using asura::comm::RankKilled;
using asura::core::blockPartition;
using asura::core::DistributedConfig;
using asura::core::DistributedEngine;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::fdps::Particle;
using asura::testing::blastwaveIc;
using asura::testing::gasBall;

SimulationConfig quietConfig() {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 24;
  cfg.dt_global = 0.005;
  return cfg;
}

DistributedConfig engineConfig() {
  DistributedConfig dcfg;
  dcfg.skin = 1.0;
  return dcfg;
}

/// The full serialized state — the strongest possible equality: two
/// simulations whose bytes match are bitwise-identical in every particle
/// field, rng stream, counter and cache the restart contract covers.
std::vector<char> stateBytes(Simulation& sim) {
  asura::io::ByteWriter w;
  sim.serializeState(w);
  return w.take();
}

std::string tmpPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Serial round trips
// ---------------------------------------------------------------------------

TEST(Checkpoint, SerialRestartMatchesContinuousBitwiseGlobal) {
  const auto ic = gasBall(400, 10.0, 1.0, 42, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const std::string path = tmpPath("ckpt_serial_global.bin");

  // Reference: 4 straight steps, never checkpointed.
  Simulation ref(ic, cfg);
  for (int s = 0; s < 4; ++s) ref.step();
  const auto ref_bytes = stateBytes(ref);

  // Checkpointing run: the mid-run write must not perturb the trajectory.
  Simulation writer(ic, cfg);
  writer.step();
  writer.step();
  asura::io::writeCheckpoint(path, writer);
  writer.step();
  writer.step();
  EXPECT_EQ(stateBytes(writer), ref_bytes)
      << "writing a checkpoint changed the continuous trajectory";

  // Restarted run: fresh object, state from disk, same remaining steps.
  Simulation resumed(ic, cfg);
  asura::io::restoreCheckpoint(path, resumed);
  EXPECT_EQ(resumed.stepCount(), 2);
  resumed.step();
  resumed.step();
  EXPECT_EQ(stateBytes(resumed), ref_bytes)
      << "restart diverged from the continuous run";
  std::remove(path.c_str());
}

TEST(Checkpoint, SerialRestartMidSnCampaignHierarchical) {
  // The checkpoint lands *between* an SN capture and its prediction
  // delivery: the undelivered pool result must ride along in the file and
  // land on the restarted run at the same step with the same bytes.
  const auto ic = blastwaveIc(300, 19);
  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  cfg.return_interval = 3;
  cfg.n_pool_nodes = 2;
  cfg.sn_box_size = 10.0;
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 4;
  const std::string path = tmpPath("ckpt_serial_campaign.bin");

  Simulation ref(ic, cfg);
  int replaced_ref = 0;
  for (int s = 0; s < 5; ++s) replaced_ref += ref.step().particles_replaced;
  ASSERT_GT(replaced_ref, 0) << "fixture never delivered a prediction";
  const auto ref_bytes = stateBytes(ref);

  Simulation writer(ic, cfg);
  writer.step();  // SN fires, region captured, job in flight
  writer.step();
  asura::io::writeCheckpoint(path, writer);  // delivery still 1 step away

  Simulation resumed(ic, cfg);
  asura::io::restoreCheckpoint(path, resumed);
  int replaced_resumed = 0;
  for (int s = 0; s < 3; ++s) replaced_resumed += resumed.step().particles_replaced;
  EXPECT_GT(replaced_resumed, 0) << "restored run lost the pending prediction";
  EXPECT_EQ(stateBytes(resumed), ref_bytes);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Distributed round trips
// ---------------------------------------------------------------------------

/// Run P ranks: `pre` steps, checkpoint to `path`, `post` more steps, and
/// return each rank's final state bytes.
std::vector<std::vector<char>> runAndCheckpoint(const std::vector<Particle>& ic,
                                                int P, const SimulationConfig& cfg,
                                                const std::string& path, int pre,
                                                int post) {
  Cluster cluster(P);
  std::vector<std::vector<char>> bytes(static_cast<std::size_t>(P));
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    sim.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
    for (int s = 0; s < pre; ++s) sim.step();
    asura::io::writeCheckpoint(path, sim);
    for (int s = 0; s < post; ++s) sim.step();
    bytes[static_cast<std::size_t>(comm.rank())] = stateBytes(sim);
  });
  return bytes;
}

/// Fresh P-rank cluster: restore from `path`, run `post` steps, return each
/// rank's final state bytes.
std::vector<std::vector<char>> restoreAndRun(const std::vector<Particle>& ic, int P,
                                             const SimulationConfig& cfg,
                                             const std::string& path, int post) {
  Cluster cluster(P);
  std::vector<std::vector<char>> bytes(static_cast<std::size_t>(P));
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
    sim.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
    asura::io::restoreCheckpoint(path, sim);
    for (int s = 0; s < post; ++s) sim.step();
    bytes[static_cast<std::size_t>(comm.rank())] = stateBytes(sim);
  });
  return bytes;
}

TEST(Checkpoint, EightRankRestartMatchesContinuousGlobal) {
  const auto ic = gasBall(600, 10.0, 1.0, 31, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const std::string path = tmpPath("ckpt_dist_global.bin");
  const auto continuous = runAndCheckpoint(ic, 8, cfg, path, 2, 2);
  const auto resumed = restoreAndRun(ic, 8, cfg, path, 2);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(resumed[static_cast<std::size_t>(r)],
              continuous[static_cast<std::size_t>(r)])
        << "rank " << r << " diverged after restart";
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, EightRankRestartMatchesContinuousHierarchicalSurrogate) {
  // Hierarchical integrator + live SN campaign at 8 ranks: rung bookkeeping,
  // the exchange cache, the domain cuts and the pending pool results all
  // have to survive the round trip for the bytes to match.
  const auto ic = blastwaveIc(400, 57);
  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  cfg.return_interval = 3;
  cfg.n_pool_nodes = 1;
  cfg.sn_box_size = 10.0;
  cfg.hierarchical_timestep = true;
  cfg.max_rung = 4;
  const std::string path = tmpPath("ckpt_dist_hier.bin");
  const auto continuous = runAndCheckpoint(ic, 8, cfg, path, 2, 3);
  const auto resumed = restoreAndRun(ic, 8, cfg, path, 3);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(resumed[static_cast<std::size_t>(r)],
              continuous[static_cast<std::size_t>(r)])
        << "rank " << r << " diverged after restart";
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault-injected kill + resume
// ---------------------------------------------------------------------------

TEST(Checkpoint, KilledRankResumesFromCheckpointBitwise) {
  const auto ic = gasBall(400, 10.0, 1.0, 7, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const std::string path = tmpPath("ckpt_killed.bin");
  constexpr int P = 4;

  // Reference: 4 steps, no checkpoint, no faults.
  std::vector<std::vector<char>> continuous(P);
  {
    Cluster cluster(P);
    cluster.run([&](Comm& comm) {
      Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
      sim.attachDistributed(
          std::make_unique<DistributedEngine>(comm, engineConfig()));
      for (int s = 0; s < 4; ++s) sim.step();
      continuous[static_cast<std::size_t>(comm.rank())] = stateBytes(sim);
    });
  }

  // Faulted campaign: checkpoint lands after step 2, then rank 1 is killed
  // by the fault plan when it reports step 2 to the cluster. Every other
  // rank unwinds via cooperative abort; the join rethrows the kill.
  {
    Cluster cluster(P);
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::KillRank;
    plan.rank = 1;
    plan.at_step = 2;
    cluster.setFaultPlan(plan);
    EXPECT_THROW(cluster.run([&](Comm& comm) {
      Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
      sim.attachDistributed(
          std::make_unique<DistributedEngine>(comm, engineConfig()));
      sim.step();
      sim.step();
      asura::io::writeCheckpoint(path, sim);
      sim.step();  // rank 1 dies in this step's exchange
      sim.step();
    }),
                 RankKilled);
  }

  // Recovery: fresh cluster, restore the survivor checkpoint, finish the
  // campaign. The resumed trajectory must be bitwise the continuous one.
  {
    Cluster cluster(P);
    cluster.run([&](Comm& comm) {
      Simulation sim(blockPartition(ic, comm.rank(), P), cfg);
      sim.attachDistributed(
          std::make_unique<DistributedEngine>(comm, engineConfig()));
      asura::io::restoreCheckpoint(path, sim);
      EXPECT_EQ(sim.stepCount(), 2);
      sim.step();
      sim.step();
      EXPECT_EQ(stateBytes(sim), continuous[static_cast<std::size_t>(comm.rank())])
          << "rank " << comm.rank() << " diverged after crash recovery";
    });
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption / mismatch detection
// ---------------------------------------------------------------------------

TEST(Checkpoint, CorruptPayloadByteFailsCrc) {
  const auto ic = gasBall(100, 5.0, 1.0, 3, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const std::string path = tmpPath("ckpt_corrupt.bin");
  Simulation sim(ic, cfg);
  sim.step();
  asura::io::writeCheckpoint(path, sim);

  // Flip one byte in the middle of the rank payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto mid = static_cast<std::streamoff>(f.tellg()) / 2;
    f.seekg(mid);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(~c);
    f.seekp(mid);
    f.write(&c, 1);
  }

  Simulation fresh(ic, cfg);
  try {
    asura::io::restoreCheckpoint(path, fresh);
    FAIL() << "corrupt checkpoint restored without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedAndNonCheckpointFilesRejected) {
  const std::string path = tmpPath("ckpt_garbage.bin");
  {
    std::ofstream f(path, std::ios::binary);
    f << "definitely not a checkpoint";
  }
  const auto ic = gasBall(50, 5.0, 1.0, 3, 3000.0);
  Simulation sim(ic, quietConfig());
  EXPECT_THROW(asura::io::restoreCheckpoint(path, sim), std::runtime_error);
  EXPECT_THROW((void)asura::io::inspectCheckpoint(path), std::runtime_error);
  EXPECT_THROW(asura::io::restoreCheckpoint(tmpPath("ckpt_missing.bin"), sim),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, RankCountMismatchRejected) {
  const auto ic = gasBall(100, 5.0, 1.0, 9, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const std::string path = tmpPath("ckpt_serial_1rank.bin");
  Simulation sim(ic, cfg);
  sim.step();
  asura::io::writeCheckpoint(path, sim);  // 1-rank file

  Cluster cluster(2);
  EXPECT_THROW(cluster.run([&](Comm& comm) {
    Simulation s(blockPartition(ic, comm.rank(), 2), cfg);
    s.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
    asura::io::restoreCheckpoint(path, s);
  }),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, ConstructionShapeMismatchRejected) {
  const auto ic = gasBall(100, 5.0, 1.0, 11, 3000.0);
  SimulationConfig with_pool = quietConfig();
  with_pool.use_surrogate = true;
  with_pool.n_pool_nodes = 1;
  const std::string path = tmpPath("ckpt_shape.bin");
  Simulation writer(ic, with_pool);
  writer.step();
  asura::io::writeCheckpoint(path, writer);

  // The pool is a construction-time object: a Simulation built without one
  // cannot absorb a checkpoint that carries pending predictions.
  Simulation no_pool(ic, quietConfig());
  EXPECT_THROW(asura::io::restoreCheckpoint(path, no_pool), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, InspectReportsHeader) {
  const auto ic = gasBall(120, 5.0, 1.0, 13, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const std::string path = tmpPath("ckpt_info.bin");
  Simulation sim(ic, cfg);
  for (int s = 0; s < 3; ++s) sim.step();
  asura::io::writeCheckpoint(path, sim);

  const auto insp = asura::io::inspectCheckpoint(path);
  EXPECT_TRUE(insp.ok()) << insp.defect;
  const auto& info = insp.info;
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.nranks, 1);
  EXPECT_EQ(info.step, 3);
  EXPECT_EQ(info.time, sim.time());  // bitwise: stored as the IEEE pattern
  EXPECT_GT(info.payload_bytes, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v2 header CRC + inspector
// ---------------------------------------------------------------------------

// v2 layout offsets: magic 8 | version u32 @8 | nranks i32 @12 | step i64 @16
// | time u64 @24 | header CRC u32 @32 | sections @36.
constexpr std::streamoff kVersionOff = 8;
constexpr std::streamoff kNranksOff = 12;
constexpr std::streamoff kHeaderCrcOff = 32;

std::vector<char> fileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

void writeBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrite the little-endian u32 at `off` and recompute the header CRC, so
/// the header lies consistently.
void rewriteHeaderU32(std::vector<char>& bytes, std::streamoff off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<std::size_t>(off + i)] = static_cast<char>(v >> (8 * i));
  }
  const auto crc = asura::io::crc32(bytes.data() + kVersionOff, kHeaderCrcOff - kVersionOff);
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<std::size_t>(kHeaderCrcOff + i)] = static_cast<char>(crc >> (8 * i));
  }
}

TEST(Checkpoint, CorruptHeaderFieldFailsHeaderCrc) {
  const auto ic = gasBall(100, 5.0, 1.0, 5, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const std::string path = tmpPath("ckpt_hdr_corrupt.bin");
  Simulation sim(ic, cfg);
  sim.step();
  asura::io::writeCheckpoint(path, sim);

  // Flip a byte inside the nranks field. Pre-v2 this surfaced as a rank
  // count mismatch or framing confusion; now the header CRC names it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(kNranksOff);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(kNranksOff);
    f.write(&c, 1);
  }

  const auto insp = asura::io::inspectCheckpoint(path);
  EXPECT_FALSE(insp.ok());
  EXPECT_FALSE(insp.header_crc_ok);
  EXPECT_NE(insp.defect.find("header CRC mismatch"), std::string::npos) << insp.defect;
  Simulation fresh(ic, cfg);
  try {
    asura::io::restoreCheckpoint(path, fresh);
    FAIL() << "corrupt header accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), insp.defect);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, UnsupportedFileVersionRejected) {
  // Only file version 2 is read. A header claiming any other version — with
  // a consistent header CRC, so nothing but the version is wrong — fails.
  const auto ic = gasBall(60, 5.0, 1.0, 7, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const std::string path = tmpPath("ckpt_version.bin");
  Simulation sim(ic, cfg);
  sim.step();
  asura::io::writeCheckpoint(path, sim);
  const auto good = fileBytes(path);

  for (const std::uint32_t version : {1u, 3u}) {
    auto bytes = good;
    rewriteHeaderU32(bytes, kVersionOff, version);
    writeBytes(path, bytes);
    EXPECT_FALSE(asura::io::inspectCheckpoint(path).ok());
    Simulation fresh(ic, cfg);
    try {
      asura::io::restoreCheckpoint(path, fresh);
      FAIL() << "file version " << version << " restored";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported file version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, UnsupportedStateVersionRejected) {
  // Only state payload version 7 is read; the version word leads the payload.
  const auto ic = gasBall(60, 5.0, 1.0, 8, 3000.0);
  const SimulationConfig cfg = quietConfig();
  Simulation sim(ic, cfg);
  const auto good = stateBytes(sim);
  for (const std::uint32_t version : {1u, 2u, 3u, 4u, 5u, 6u}) {
    auto bytes = good;
    bytes[0] = static_cast<char>(version);
    Simulation fresh(ic, cfg);
    asura::io::ByteReader r(bytes.data(), bytes.size());
    try {
      fresh.restoreState(r);
      FAIL() << "state version " << version << " restored";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported state version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, InspectReportsDamageWithoutThrowing) {
  const auto ic = gasBall(100, 5.0, 1.0, 9, 3000.0);
  const SimulationConfig cfg = quietConfig();
  const std::string path = tmpPath("ckpt_inspect.bin");
  Simulation sim(ic, cfg);
  sim.step();
  asura::io::writeCheckpoint(path, sim);

  // Intact file: everything verifies.
  auto insp = asura::io::inspectCheckpoint(path);
  EXPECT_TRUE(insp.ok()) << insp.defect;
  EXPECT_EQ(insp.info.version, 2u);
  EXPECT_TRUE(insp.header_crc_ok);
  ASSERT_EQ(insp.sections.size(), 1u);
  EXPECT_TRUE(insp.sections[0].ok);
  EXPECT_EQ(insp.sections[0].offset, static_cast<std::uint64_t>(kHeaderCrcOff + 4 + 8));
  EXPECT_GT(insp.sections[0].bytes, 0u);
  EXPECT_FALSE(insp.truncated);

  // Payload corruption: reported on the section, not thrown.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(kHeaderCrcOff + 4 + 8 + 32);  // 32 bytes into rank 0's payload
    const char x = 'X';
    f.write(&x, 1);
  }
  insp = asura::io::inspectCheckpoint(path);
  EXPECT_TRUE(insp.header_crc_ok);
  ASSERT_EQ(insp.sections.size(), 1u);
  EXPECT_FALSE(insp.sections[0].ok);
  EXPECT_NE(insp.sections[0].crc_stored, insp.sections[0].crc_computed);
  EXPECT_NE(insp.defect.find("CRC mismatch in rank 0 section"), std::string::npos)
      << insp.defect;

  // Truncation: reported, not thrown.
  {
    const auto bytes = fileBytes(path);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  insp = asura::io::inspectCheckpoint(path);
  EXPECT_TRUE(insp.truncated);
  EXPECT_FALSE(insp.ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Wire layout pin
//
// CRC-32 of serializeState for fixed, unstepped states built from literal
// values, recorded for state v7. A codec change that adds, drops, reorders
// or re-types a field moves these; such a change must also bump
// kStateVersion, and re-record the constants with it.
// ---------------------------------------------------------------------------

/// Particles whose every serialized field is a simple function of the index.
std::vector<Particle> literalParticles(int n, std::uint64_t first_id) {
  std::vector<Particle> out;
  for (int i = 0; i < n; ++i) {
    Particle p;
    p.id = first_id + static_cast<std::uint64_t>(i);
    p.type = i % 3 == 2 ? asura::fdps::Species::Star : asura::fdps::Species::Gas;
    p.mass = 1.0 + 0.125 * i;
    p.pos = {0.5 * i - 2.0, 0.25 * i + 0.5, 1.0 - 0.75 * i};
    p.vel = {1.0, -0.5 * i, 0.0625 * i};
    p.acc = {-0.25 * i, 0.125, 2.0};
    p.pot = -3.0 - i;
    p.eps = 0.5;
    p.u = 10.0 + i;
    p.u_pred = 10.5 + i;
    p.du_dt = -0.5;
    p.h = 1.5 + 0.0625 * i;
    p.rho = 0.25 * (i + 1);
    p.pres = 0.375 * (i + 1);
    p.cs = 4.0;
    p.divv = -0.125 * i;
    p.curlv = 0.0625 * i;
    p.vsig = 8.0;
    p.nngb = 24 + i;
    p.t_form = 0.25 * i;
    p.t_sn = i % 3 == 2 ? 3.0 : -1.0;
    p.star_mass = i % 3 == 2 ? 8.0 : 0.0;
    p.metal = 0.02;
    p.frozen = static_cast<std::uint8_t>(i % 2);
    p.rung = static_cast<std::uint8_t>(i % 4);
    p.rung_ngb = static_cast<std::uint8_t>((i + 1) % 4);
    p.work = 0.5 * i;
    out.push_back(p);
  }
  return out;
}

std::uint32_t stateCrc(Simulation& sim) {
  const auto bytes = stateBytes(sim);
  return asura::io::crc32(bytes.data(), bytes.size());
}

TEST(Checkpoint, WireLayoutPinnedByCrc) {
  // Serial, with a pool holding one pending prediction (the identity
  // backend makes its region the submitted literal particles).
  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  cfg.n_pool_nodes = 1;
  cfg.return_interval = 3;
  Simulation serial(literalParticles(6, 100), cfg,
                    std::make_shared<asura::core::NullBackend>());
  serial.pool()->submit(0, literalParticles(2, 900), {0.0, 0.0, 0.0},
                        asura::units::E_SN, 0.1);
  EXPECT_EQ(stateCrc(serial), 0x34f908e4u);

  // Two ranks with an engine attached, before any step.
  std::vector<std::uint32_t> crcs(2);
  Cluster cluster(2);
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(literalParticles(8, 200), comm.rank(), 2), quietConfig());
    sim.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
    crcs[static_cast<std::size_t>(comm.rank())] = stateCrc(sim);
  });
  EXPECT_EQ(crcs[0], 0x513e8b98u);
  EXPECT_EQ(crcs[1], 0x2f54227eu);
}

// ---------------------------------------------------------------------------
// Restore-time validation of the engine block
// ---------------------------------------------------------------------------

std::size_t findBytes(const std::vector<char>& hay, const std::vector<char>& needle,
                      std::size_t from = 0) {
  const auto it = std::search(hay.begin() + static_cast<std::ptrdiff_t>(from), hay.end(),
                              needle.begin(), needle.end());
  return it == hay.end() ? std::string::npos : static_cast<std::size_t>(it - hay.begin());
}

TEST(Checkpoint, RestoreRejectsGhostCacheNotSizedToRanks) {
  // An unstepped 2-rank payload holds an empty ghost-export cache and a
  // stale flag. Claiming the cache clean would let the next step refresh
  // payloads along export lists it indexes by rank. The flag sits 65 bytes
  // before the end of the payload: after it come the three cut vectors and
  // the ghost layout's two per-rank vectors (all empty, 8 bytes each), reach
  // and drift (8 each), and the LET drift (8).
  constexpr std::size_t kStaleFromEnd = 65;
  Cluster cluster(2);
  try {
    cluster.run([&](Comm& comm) {
      const auto ic = blockPartition(gasBall(40, 5.0, 1.0, 29, 3000.0), comm.rank(), 2);
      Simulation a(ic, quietConfig());
      a.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
      auto bytes = stateBytes(a);
      auto& stale = bytes[bytes.size() - kStaleFromEnd];
      ASSERT_EQ(stale, 1);
      stale = 0;

      Simulation b(ic, quietConfig());
      b.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
      asura::io::ByteReader r(bytes.data(), bytes.size());
      b.restoreState(r);
    });
    FAIL() << "a clean ghost cache without per-rank export lists restored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("export_idx"), std::string::npos) << e.what();
  }
}

/// Serialized form of `v`, the needle a payload rewrite searches for.
template <class T>
std::vector<char> encoded(const T& v) {
  asura::io::ByteWriter w;
  w(v);
  return w.bytes();
}

TEST(Checkpoint, RestoreRejectsOutOfRangeParticleIndices) {
  // A real 2-rank payload after one step, with one ghost-export entry
  // rewritten to the local count. restoreState must name the field instead
  // of leaving the next step's ghost payload refresh to index past the
  // locals mid-collective.
  const auto ic = gasBall(300, 8.0, 1.0, 23, 3000.0);
  Cluster cluster(2);
  try {
    cluster.run([&](Comm& comm) {
      Simulation a(blockPartition(ic, comm.rank(), 2), quietConfig());
      a.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
      a.step();
      auto bytes = stateBytes(a);
      auto lists = a.distributed()->ghostExports().export_idx;
      const auto list = std::find_if(lists.begin(), lists.end(),
                                     [](const auto& l) { return !l.empty(); });
      ASSERT_NE(list, lists.end());
      const auto good = encoded(lists);
      list->front() = static_cast<std::uint32_t>(a.nLocal());
      const auto bad = encoded(lists);
      const auto at = findBytes(bytes, good);
      ASSERT_NE(at, std::string::npos);
      ASSERT_EQ(findBytes(bytes, good, at + 1), std::string::npos);
      std::copy(bad.begin(), bad.end(), bytes.begin() + static_cast<std::ptrdiff_t>(at));

      Simulation b(blockPartition(ic, comm.rank(), 2), quietConfig());
      b.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
      asura::io::ByteReader r(bytes.data(), bytes.size());
      b.restoreState(r);
    });
    ADD_FAILURE() << "an out-of-range export_idx entry restored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("export_idx"), std::string::npos) << e.what();
  }
}

/// The last particle of `sim`'s list followed by a u64 local count `n`: the
/// needle a local-count rewrite searches for (the count follows the list).
std::vector<char> lastParticleAndCount(const Simulation& sim, std::uint64_t n) {
  auto bytes = encoded(sim.particles().back());
  const auto count = encoded(n);
  bytes.insert(bytes.end(), count.begin(), count.end());
  return bytes;
}

TEST(Checkpoint, RestoreRejectsGhostCountNotMatchingImports) {
  // A real 2-rank payload after one step. The next full pass refreshes the
  // ghost suffix in place, so a clean cache whose import_counts do not sum
  // to the stored ghost count must fail at restore, not mid-collective. The
  // second case claims one local more than the particle list holds.
  const auto ic = gasBall(300, 8.0, 1.0, 23, 3000.0);
  for (const std::string field : {"import_counts", "local count"}) {
    Cluster cluster(2);
    try {
      cluster.run([&](Comm& comm) {
        Simulation a(blockPartition(ic, comm.rank(), 2), quietConfig());
        a.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
        a.step();
        auto bytes = stateBytes(a);
        std::vector<char> good, bad;
        if (field == "import_counts") {
          auto counts = a.distributed()->ghostExports().import_counts;
          const auto c = std::find_if(counts.begin(), counts.end(),
                                      [](std::size_t n) { return n > 0; });
          ASSERT_NE(c, counts.end());
          good = encoded(counts);
          *c += 1;
          bad = encoded(counts);
        } else {
          good = lastParticleAndCount(a, a.nLocal());
          bad = lastParticleAndCount(a, a.particles().size() + 1);
        }
        const auto at = findBytes(bytes, good);
        ASSERT_NE(at, std::string::npos);
        ASSERT_EQ(findBytes(bytes, good, at + 1), std::string::npos);
        std::copy(bad.begin(), bad.end(), bytes.begin() + static_cast<std::ptrdiff_t>(at));

        Simulation b(blockPartition(ic, comm.rank(), 2), quietConfig());
        b.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
        asura::io::ByteReader r(bytes.data(), bytes.size());
        b.restoreState(r);
      });
      ADD_FAILURE() << "a payload with a wrong " << field << " restored";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }

  // One rank: a serial payload after one step that claims one local fewer,
  // leaving a one-particle ghost tail. A one-rank cache never exchanges, so
  // it is stale, and the next phase 0 would drop that particle.
  const auto serial_ic = gasBall(200, 8.0, 1.0, 23, 3000.0);
  Simulation a(serial_ic, quietConfig());
  a.step();
  auto bytes = stateBytes(a);
  const auto good = lastParticleAndCount(a, a.nLocal());
  const auto bad = lastParticleAndCount(a, a.particles().size() - 1);
  const auto at = findBytes(bytes, good);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(findBytes(bytes, good, at + 1), std::string::npos);
  std::copy(bad.begin(), bad.end(), bytes.begin() + static_cast<std::ptrdiff_t>(at));
  Simulation b(serial_ic, quietConfig());
  asura::io::ByteReader r(bytes.data(), bytes.size());
  try {
    b.restoreState(r);
    ADD_FAILURE() << "a serial payload with a ghost tail restored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("local count"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, DistributedPayloadStoresEachGhostOnce) {
  // After one 2-rank step the ghost suffix is attached. Each ghost's encoded
  // (id, type, mass) prefix must occur exactly once in its rank's payload:
  // the working array is the ghosts' only home.
  const auto ic = gasBall(300, 8.0, 1.0, 23, 3000.0);
  Cluster cluster(2);
  cluster.run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), 2), quietConfig());
    sim.attachDistributed(std::make_unique<DistributedEngine>(comm, engineConfig()));
    sim.step();
    const auto& parts = sim.particles();
    ASSERT_GT(parts.size(), sim.nLocal()) << "rank " << comm.rank() << " holds no ghosts";
    std::vector<std::vector<char>> prefixes;
    for (std::size_t i = sim.nLocal(); i < parts.size(); ++i) {
      asura::io::ByteWriter w;
      w(parts[i].id, parts[i].type, parts[i].mass);
      prefixes.push_back(w.take());
    }
    const auto bytes = stateBytes(sim);
    for (const auto& prefix : prefixes) {
      const auto at = findBytes(bytes, prefix);
      ASSERT_NE(at, std::string::npos) << "a ghost is not stored";
      EXPECT_EQ(findBytes(bytes, prefix, at + 1), std::string::npos)
          << "a ghost is stored more than once";
    }
  });
}

// ---------------------------------------------------------------------------
// Concurrent writers (the scenario service hosts many instances on one
// process: checkpointing must be instance-local state only)
// ---------------------------------------------------------------------------

TEST(Checkpoint, ConcurrentCheckpointsToDistinctPathsStayBitwise) {
  const SimulationConfig cfg = quietConfig();
  const auto ic = [](int i) {
    return gasBall(160, 8.0, 1.0, 77 + static_cast<std::uint64_t>(i), 2000.0);
  };

  // References: each trajectory run alone, serially, never checkpointed.
  std::vector<std::vector<char>> ref(2);
  for (int i = 0; i < 2; ++i) {
    Simulation sim(ic(i), cfg);
    for (int s = 0; s < 6; ++s) sim.step();
    ref[static_cast<std::size_t>(i)] = stateBytes(sim);
  }

  // Two simulations stepping AND checkpointing concurrently, one write per
  // step to maximize overlap between the codec paths. Any hidden shared
  // mutable state in serializeState/writeCheckpoint shows up as a TSan race
  // or as a byte divergence below.
  const std::string paths[2] = {tmpPath("ckpt_concurrent_0.bin"),
                                tmpPath("ckpt_concurrent_1.bin")};
  std::thread writers[2];
  for (int i = 0; i < 2; ++i) {
    writers[i] = std::thread([&, i] {
      Simulation sim(ic(i), cfg);
      for (int s = 0; s < 6; ++s) {
        sim.step();
        asura::io::writeCheckpoint(paths[i], sim);
      }
    });
  }
  for (auto& t : writers) t.join();

  for (int i = 0; i < 2; ++i) {
    Simulation restored(std::vector<Particle>{}, cfg);
    asura::io::restoreCheckpoint(paths[i], restored);
    EXPECT_EQ(restored.stepCount(), 6);
    EXPECT_EQ(stateBytes(restored), ref[static_cast<std::size_t>(i)])
        << "concurrent writer " << i << " diverged";
    std::remove(paths[i].c_str());
  }
}

}  // namespace
