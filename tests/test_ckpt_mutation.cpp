// Seeded mutation sweep over real checkpoint files: single-bit flips,
// truncations, header lies (with a consistent header CRC) and payload byte
// overwrites (with a consistent section CRC), each fed to the framing walker
// and to a restore into a fresh simulation or cluster. Every input must end
// in a descriptive std::runtime_error or — when every CRC matches — in a
// restore that returns; never in a crash, a sanitizer report or another
// exception type. The sources are
//   * a 1-rank run holding undelivered surrogate predictions, and
//   * a 2-rank run with the work-weighted domain decomposition, whose
//     engine block carries the domain cuts.
// Run under ASan/UBSan this is the robustness gate for every byte parser a
// checkpoint reaches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/distributed.hpp"
#include "core/simulation.hpp"
#include "ic_fixtures.hpp"
#include "io/checkpoint.hpp"
#include "io/serialize.hpp"
#include "tmp_path.hpp"
#include "util/rng.hpp"

namespace {

using asura::comm::Cluster;
using asura::comm::Comm;
using asura::core::blockPartition;
using asura::core::DistributedConfig;
using asura::core::DistributedEngine;
using asura::core::Simulation;
using asura::core::SimulationConfig;
using asura::testing::blastwaveIc;
using asura::testing::gasBall;
using asura::testing::tmpPath;

// v2 framing: magic 8 | version u32 @8 | nranks i32 @12 | step i64 @16 |
// time u64 @24 | header CRC u32 @32 | first section length u64 @36.
constexpr std::size_t kVersionOff = 8;
constexpr std::size_t kNranksOff = 12;
constexpr std::size_t kHeaderCrcOff = 32;
constexpr std::size_t kSectionsOff = 36;

SimulationConfig quietConfig() {
  SimulationConfig cfg;
  cfg.enable_star_formation = false;
  cfg.enable_cooling = false;
  cfg.use_surrogate = false;
  cfg.sph.n_ngb = 24;
  cfg.dt_global = 0.005;
  return cfg;
}

SimulationConfig poolConfig() {
  SimulationConfig cfg = quietConfig();
  cfg.use_surrogate = true;
  cfg.return_interval = 3;
  cfg.n_pool_nodes = 1;
  cfg.sn_box_size = 10.0;
  return cfg;
}

DistributedConfig weightedConfig() {
  DistributedConfig dcfg;
  dcfg.skin = 1.0;
  dcfg.weighted_decomposition = true;
  dcfg.decompose_interval = 0;
  return dcfg;
}

std::vector<char> readFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void writeFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void putU32(std::vector<char>& bytes, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[off + i] = static_cast<char>(v >> (8 * i));
}

/// A checkpoint file plus a restore into a fresh simulation of its shape.
struct Source {
  std::string name;
  std::vector<char> file;
  std::function<void(const std::string&)> restore;
};

Source pendingPredictionsSource() {
  // The checkpoint lands between SN capture and delivery: the pool section
  // holds undelivered predictions.
  const auto ic = blastwaveIc(160, 19);
  const std::string path = tmpPath("mutation_src_serial.ckpt");
  Simulation sim(ic, poolConfig());
  sim.step();
  sim.step();
  EXPECT_FALSE(sim.pool()->snapshotResults().empty()) << "fixture holds no pending prediction";
  asura::io::writeCheckpoint(path, sim);
  Source src{"1-rank with pending predictions", readFile(path),
             [ic](const std::string& p) {
               Simulation fresh(ic, poolConfig());
               asura::io::restoreCheckpoint(p, fresh);
             }};
  std::remove(path.c_str());
  return src;
}

Source weightedTwoRankSource() {
  const auto ic = gasBall(240, 8.0, 1.0, 23, 3000.0);
  const std::string path = tmpPath("mutation_src_2rank.ckpt");
  Cluster(2).run([&](Comm& comm) {
    Simulation sim(blockPartition(ic, comm.rank(), 2), quietConfig());
    sim.attachDistributed(std::make_unique<DistributedEngine>(comm, weightedConfig()));
    sim.step();
    asura::io::writeCheckpoint(path, sim);
  });
  Source src{"2-rank weighted decomposition", readFile(path),
             [ic](const std::string& p) {
               Cluster(2).run([&](Comm& comm) {
                 Simulation fresh(blockPartition(ic, comm.rank(), 2), quietConfig());
                 fresh.attachDistributed(
                     std::make_unique<DistributedEngine>(comm, weightedConfig()));
                 asura::io::restoreCheckpoint(p, fresh);
               });
             }};
  std::remove(path.c_str());
  return src;
}

/// Feeds mutated copies of one source through the walker and a restore.
class Sweep {
 public:
  explicit Sweep(Source src)
      : src_(std::move(src)),
        path_(tmpPath("mutation_case.ckpt")),
        sections_(asura::io::inspectCheckpoint(src_.file, src_.name).sections) {}
  ~Sweep() { std::remove(path_.c_str()); }

  [[nodiscard]] const std::vector<char>& original() const { return src_.file; }
  [[nodiscard]] const std::vector<asura::io::CheckpointSectionInfo>& sections() const {
    return sections_;
  }
  [[nodiscard]] int restored() const { return restored_; }

  /// Walk and restore `file`; `must_reject` for inputs that are damaged by
  /// construction. Returns whether the restore went through.
  bool check(const std::vector<char>& file, const std::string& what, bool must_reject) {
    const std::string label = src_.name + ", " + what;
    bool walker_ok = false;
    try {
      walker_ok = asura::io::inspectCheckpoint(file, label).ok();
    } catch (const std::runtime_error& e) {
      // Only a broken magic may stop the walker.
      const bool magic_intact =
          file.size() >= 8 && std::equal(file.begin(), file.begin() + 8, src_.file.begin());
      EXPECT_FALSE(magic_intact) << label << ": walker threw past the magic: " << e.what();
    }
    writeFile(path_, file);
    bool ok = true;
    try {
      src_.restore(path_);
    } catch (const std::runtime_error&) {
      ok = false;
    }
    if (ok) ++restored_;
    if (ok) EXPECT_TRUE(walker_ok) << label << ": restored although a CRC or the framing fails";
    if (must_reject) EXPECT_FALSE(ok) << label << ": damaged file restored";
    return ok;
  }

 private:
  Source src_;
  std::string path_;
  std::vector<asura::io::CheckpointSectionInfo> sections_;
  int restored_ = 0;
};

void runSweep(Source src, std::uint64_t seed) {
  Sweep sweep(std::move(src));
  const auto& original = sweep.original();
  ASSERT_TRUE(sweep.check(original, "unmutated", false));
  asura::util::Pcg32 rng(seed, 7);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.below(static_cast<std::uint32_t>(n)));
  };

  // Single-bit flips anywhere in the file: CRC-32 catches every one.
  for (int i = 0; i < 400; ++i) {
    auto bytes = original;
    const std::size_t at = below(bytes.size());
    const int bit = static_cast<int>(rng.below(8));
    bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
    sweep.check(bytes, "bit " + std::to_string(bit) + " of byte " + std::to_string(at), true);
  }

  // Truncations: every framing boundary plus seeded lengths.
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 9, kNranksOff, kHeaderCrcOff,
                                      kSectionsOff, kSectionsOff + 8, original.size() - 1};
  while (lengths.size() < 40) lengths.push_back(below(original.size()));
  for (const auto n : lengths) {
    const std::vector<char> bytes(original.begin(),
                                  original.begin() + static_cast<std::ptrdiff_t>(n));
    sweep.check(bytes, "truncated to " + std::to_string(n) + " bytes", true);
  }

  // Header lies: a consistent header CRC, so only the lie itself is wrong.
  const auto lie = [&](std::size_t off, std::uint32_t v, const std::string& what) {
    auto bytes = original;
    putU32(bytes, off, v);
    putU32(bytes, kHeaderCrcOff,
           asura::io::crc32(bytes.data() + kVersionOff, kHeaderCrcOff - kVersionOff));
    sweep.check(bytes, what, true);
  };
  lie(kVersionOff, 1, "file version 1");
  lie(kVersionOff, 3, "file version 3");
  lie(kNranksOff, 0, "nranks 0");
  lie(kNranksOff, 3, "nranks 3");
  lie(kNranksOff, 0x7fffffffu, "nranks 2^31-1");

  // Payload byte overwrites with the section CRC recomputed: the framing
  // verifies, so the payload parser and the restore validation are all that
  // stand between the bytes and the simulation.
  const int restored_before = sweep.restored();
  for (int i = 0; i < 800; ++i) {
    auto bytes = original;
    const auto& sec = sweep.sections()[below(sweep.sections().size())];
    const std::size_t at = sec.offset + below(sec.bytes);
    const int kind = static_cast<int>(rng.below(3));
    bytes[at] = kind == 0 ? char(0x00) : kind == 1 ? char(0xff) : static_cast<char>(bytes[at] + 1);
    putU32(bytes, sec.offset + sec.bytes, asura::io::crc32(bytes.data() + sec.offset, sec.bytes));
    sweep.check(bytes, "payload byte " + std::to_string(at) + " overwritten (kind " +
                           std::to_string(kind) + ")",
                false);
  }

  // The framing verifies for these, so some must get through to a restore.
  EXPECT_GT(sweep.restored(), restored_before);
}

TEST(CheckpointMutation, OneRankWithPendingPredictions) {
  runSweep(pendingPredictionsSource(), 11);
}

TEST(CheckpointMutation, TwoRankWeightedDecomposition) {
  runSweep(weightedTwoRankSource(), 12);
}

}  // namespace
