#include "io/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "comm/comm.hpp"
#include "core/simulation.hpp"
#include "io/serialize.hpp"

namespace asura::io {

namespace {

constexpr char kMagic[8] = {'A', 'S', 'U', 'R', 'A', 'C', 'K', 'P'};
constexpr std::uint32_t kFileVersion = 2;
/// Magic, then version, nranks, step and time bits; the header CRC covers the
/// four fields exactly as they appear on disk (the magic is its own check).
constexpr std::size_t kCrcFieldsBegin = sizeof(kMagic);
constexpr std::size_t kCrcFieldsBytes = 4 + 4 + 8 + 8;

std::vector<char> readWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto n = static_cast<std::size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  std::vector<char> bytes(n);
  if (n > 0) in.read(bytes.data(), static_cast<std::streamsize>(n));
  if (!in) throw std::runtime_error("checkpoint: short read on " + path);
  return bytes;
}

}  // namespace

void writeCheckpoint(const std::string& path, core::Simulation& sim) {
  ByteWriter w;
  sim.serializeState(w);
  comm::Comm& comm = sim.comm();

  // Gather every rank's payload; all ranks hold the full set afterwards
  // (allgatherv keeps the collective machinery simple and lets any rank act
  // as the writer if rank 0's I/O ever needs to move).
  const auto sections = comm.allgatherv(w.take());
  if (comm.rank() == 0) {
    writeCheckpointRaw(path, sim.stepCount(), sim.time(), sections);
  }

  // Peers wait for the file to exist before returning: a caller that
  // checkpoints and immediately restarts must never race the writer.
  comm.barrier();
}

void writeCheckpointRaw(const std::string& path, long step, double time,
                        const std::vector<std::vector<char>>& sections) {
  ByteWriter out;
  out.putBytes(kMagic, sizeof(kMagic));
  out(kFileVersion, static_cast<int>(sections.size()), step,
      std::bit_cast<std::uint64_t>(time));
  out(crc32(out.bytes().data() + kCrcFieldsBegin, kCrcFieldsBytes));
  for (const auto& sec : sections) {
    out(static_cast<std::uint64_t>(sec.size()));
    out.putBytes(sec.data(), sec.size());
    out(crc32(sec.data(), sec.size()));
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("checkpoint: cannot write " + path);
  const auto& bytes = out.bytes();
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.flush();
  if (!f) throw std::runtime_error("checkpoint: write failed on " + path);
}

void restoreCheckpoint(const std::string& path, core::Simulation& sim) {
  comm::Comm& comm = sim.comm();
  const int rank = comm.rank();

  // Rank 0 reads, everyone receives the full file bytes. Broadcasting the
  // whole file (rather than scattering sections) keeps the hot path one
  // collective and lets each rank run the checks itself.
  std::vector<char> file;
  std::string read_err;
  if (rank == 0) {
    try {
      file = readWholeFile(path);
    } catch (const std::exception& e) {
      read_err = e.what();
    }
  }
  // A read failure must not strand peers in bcast: the decision is
  // collective, so every rank raises the error.
  if (comm.allreduce(read_err.empty() ? 0 : 1, comm::Op::Max) != 0) {
    throw std::runtime_error(read_err.empty() ? "checkpoint: read failed on rank 0"
                                              : read_err);
  }
  file = comm.bcast(std::move(file), 0);

  // Every rank sees the same bytes, so every rank throws the same defect.
  const auto insp = inspectCheckpoint(file, path);
  if (!insp.ok()) throw std::runtime_error(insp.defect);
  if (insp.info.nranks != comm.size()) {
    throw std::runtime_error("checkpoint: " + path + " was written by " +
                             std::to_string(insp.info.nranks) + " ranks, this run has " +
                             std::to_string(comm.size()));
  }

  const auto& sec = insp.sections[static_cast<std::size_t>(rank)];
  ByteReader r(file.data() + sec.offset, sec.bytes);
  sim.restoreState(r);
  if (r.remaining() != 0) {
    throw std::runtime_error("checkpoint: trailing bytes in rank " +
                             std::to_string(rank) + " section of " + path);
  }
  comm.barrier();
}

CheckpointInspection inspectCheckpoint(const std::vector<char>& file,
                                       const std::string& path) {
  if (file.size() < sizeof(kMagic) ||
      !std::equal(std::begin(kMagic), std::end(kMagic), file.begin())) {
    throw std::runtime_error("checkpoint: bad magic in " + path +
                             " (not a checkpoint file?)");
  }

  CheckpointInspection out;
  const auto defect = [&out](std::string msg) {
    if (out.defect.empty()) out.defect = std::move(msg);
  };
  const auto truncated = [&](const char* what) {
    out.truncated = true;
    defect(std::string("checkpoint: truncated ") + what + " in " + path);
  };

  ByteReader r(file.data() + kCrcFieldsBegin, file.size() - kCrcFieldsBegin);
  if (r.remaining() < kCrcFieldsBytes + 4) {
    truncated("header");
    return out;
  }
  std::uint64_t time_bits = 0;
  r(out.info.version, out.info.nranks, out.info.step, time_bits, out.header_crc_stored);
  out.info.time = std::bit_cast<double>(time_bits);
  out.header_crc_computed = crc32(file.data() + kCrcFieldsBegin, kCrcFieldsBytes);
  out.header_crc_ok = out.header_crc_stored == out.header_crc_computed;
  if (out.info.version != kFileVersion) {
    defect("checkpoint: unsupported file version " + std::to_string(out.info.version) +
           " in " + path);
  }
  if (!out.header_crc_ok) {
    defect("checkpoint: header CRC mismatch in " + path +
           " (header fields corrupted; rank count / step / time untrustworthy)");
  }
  if (out.info.nranks <= 0) defect("checkpoint: invalid rank count in " + path);

  // Walk the sections by the framing, trusting nothing: a corrupt header
  // can claim any rank count, and a corrupt length can point past EOF.
  for (int rank = 0; rank < out.info.nranks; ++rank) {
    if (r.remaining() < 8) {
      truncated("rank section");
      break;
    }
    CheckpointSectionInfo sec;
    r(sec.bytes);
    sec.offset = file.size() - r.remaining();
    if (sec.bytes > r.remaining()) {
      out.sections.push_back(sec);
      truncated("rank section");
      break;
    }
    sec.crc_computed = crc32(file.data() + sec.offset, sec.bytes);
    out.info.payload_bytes += sec.bytes;
    r.skip(sec.bytes);
    if (r.remaining() < 4) {
      out.sections.push_back(sec);
      truncated("rank section");
      break;
    }
    r(sec.crc_stored);
    sec.ok = sec.crc_stored == sec.crc_computed;
    if (!sec.ok) {
      defect("checkpoint: CRC mismatch in rank " + std::to_string(rank) + " section of " +
             path);
    }
    out.sections.push_back(sec);
  }
  return out;
}

CheckpointInspection inspectCheckpoint(const std::string& path) {
  return inspectCheckpoint(readWholeFile(path), path);
}

}  // namespace asura::io
