#pragma once
/// \file checkpoint.hpp
/// \brief Deterministic, CRC-guarded checkpoint/restart for a Simulation.
///
/// File layout (all integers little-endian):
///
///     magic   8 bytes  "ASURACKP"
///     u32     file format version (2; the only version read or written)
///     i32     number of ranks whose state follows
///     i64     step counter at checkpoint time
///     u64     simulation time as IEEE-754 bit pattern
///     u32     CRC-32 over the four header fields above
///     per rank, in rank order:
///       u64   payload length in bytes
///       ...   payload (Simulation::serializeState output for that rank)
///       u32   CRC-32 of the payload
///
/// One walker, inspectCheckpoint, reads this framing. It is lenient: it
/// records every section's offset and CRC and names the first defect in file
/// order instead of throwing, so ckpt_inspect can triage a damaged file.
/// restoreCheckpoint runs the same walker over the broadcast bytes and throws
/// that first defect.
///
/// Both entry points that take a Simulation are **collective** on
/// Simulation::comm(): every rank of the simulation's communicator must call
/// them, in the same step, or peers deadlock in the underlying collectives.
/// A serial run's communicator is its one-rank self communicator, on which
/// the same collectives complete locally. Writing gathers all rank payloads
/// to rank 0 which performs the single file write; restoring reads the file
/// on rank 0, broadcasts the bytes, and every rank walks the framing and
/// parses its own section — a corrupt byte anywhere is reported as a
/// descriptive exception, never as silently wrong physics.
///
/// Restart determinism contract: restoring a checkpoint into a Simulation
/// constructed with the same config and rank count, then stepping, produces
/// a trajectory **bitwise identical** to the run that wrote the checkpoint
/// and kept going (see tests/test_checkpoint.cpp).

#include <cstdint>
#include <string>
#include <vector>

namespace asura::core {
class Simulation;
}

namespace asura::io {

/// Header facts of a checkpoint file.
struct CheckpointInfo {
  std::uint32_t version = 0;
  int nranks = 0;
  long step = 0;
  double time = 0.0;
  std::uint64_t payload_bytes = 0;  ///< total across the rank sections present
};

/// Write the full simulation state to `path`. Collective; rank 0 does the
/// file I/O. Throws std::runtime_error if the file cannot be written.
void writeCheckpoint(const std::string& path, core::Simulation& sim);

/// Restore `sim` from `path`. Collective; rank 0 reads, every rank walks the
/// framing and parses its own section. Throws std::runtime_error on the
/// first defect inspectCheckpoint finds (bad magic, unsupported version,
/// header CRC, truncation, section CRC), on a rank-count mismatch, or on a
/// payload Simulation::restoreState rejects.
void restoreCheckpoint(const std::string& path, core::Simulation& sim);

/// Write already-serialized per-rank state sections as an ordinary
/// checkpoint file (current format version, header CRC included). This is
/// the codec's framing layer without a live Simulation: the Supervisor's
/// post-mortem path feeds its in-memory ring snapshots — which hold the
/// exact serializeState byte streams — straight through it, and the result
/// restores via restoreCheckpoint like any other checkpoint. Serial; only
/// the calling process writes. Throws std::runtime_error on I/O failure.
void writeCheckpointRaw(const std::string& path, long step, double time,
                        const std::vector<std::vector<char>>& sections);

/// One rank section as the walker sees it.
struct CheckpointSectionInfo {
  std::uint64_t offset = 0;         ///< file offset of the payload's first byte
  std::uint64_t bytes = 0;          ///< payload length from the framing
  std::uint32_t crc_stored = 0;     ///< CRC recorded in the file
  std::uint32_t crc_computed = 0;   ///< CRC of the bytes actually present
  bool ok = false;                  ///< stored == computed and not truncated
};

/// Everything the walker can tell about a checkpoint. CRC mismatches and
/// truncation are *reported*, not thrown.
struct CheckpointInspection {
  CheckpointInfo info;
  bool header_crc_ok = false;
  std::uint32_t header_crc_stored = 0;
  std::uint32_t header_crc_computed = 0;
  std::vector<CheckpointSectionInfo> sections;
  bool truncated = false;  ///< file ended before the framing said it would
  /// The first defect in file order, as restoreCheckpoint throws it; empty
  /// when the file verifies.
  std::string defect;

  /// Supported version, intact header, and all info.nranks sections present
  /// with matching CRCs.
  [[nodiscard]] bool ok() const { return defect.empty(); }
};

/// Walk the framing of in-memory checkpoint bytes; `path` only labels the
/// messages. Throws only when the bytes do not start with the checkpoint
/// magic; every other defect is reported in the returned structure.
[[nodiscard]] CheckpointInspection inspectCheckpoint(const std::vector<char>& file,
                                                     const std::string& path);

/// Read `path` and walk it as above; also throws when the file cannot be
/// read.
[[nodiscard]] CheckpointInspection inspectCheckpoint(const std::string& path);

}  // namespace asura::io
