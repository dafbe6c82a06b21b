#pragma once
/// \file torus.hpp
/// \brief The paper's 3-D MPI_Alltoallv algorithm (§3.4).
///
/// "We used the 3D MPI_Alltoallv algorithm, in which three MPI communicators
/// are defined and they match the 3D torus node configuration and domain
/// decomposition. When MPI_Alltoallv is called, the 3D MPI_Alltoallv
/// algorithm calls MPI_Alltoallv three times for each MPI communicator."
///
/// Messages are routed dimension by dimension (x, then y, then z), so each
/// of the three internal alltoallv calls only involves the O(p^{1/3}) ranks
/// of a torus line instead of all p ranks — this is the O(p^{1/3}) time
/// complexity claimed in the paper (after Iwasawa et al. 2019).

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "comm/comm.hpp"

namespace asura::comm {

/// Router for a px x py x pz rank grid. Rank r maps to coordinates
/// (ix, iy, iz) with r = ix + px*(iy + py*iz), matching the multisection
/// domain decomposition used by asura::fdps.
class TorusTopology {
 public:
  TorusTopology(Comm& world, int px, int py, int pz)
      : world_(world),
        px_(px),
        py_(py),
        pz_(pz),
        ix_(world.rank() % px),
        iy_((world.rank() / px) % py),
        iz_(world.rank() / (px * py)),
        // Line communicators: vary one coordinate, fix the other two.
        comm_x_(world.split(iy_ + py * iz_, ix_)),
        comm_y_(world.split(ix_ + px * iz_, iy_)),
        comm_z_(world.split(ix_ + px * iy_, iz_)) {
    if (px * py * pz != world.size()) {
      throw std::invalid_argument("TorusTopology: px*py*pz != comm size");
    }
  }

  [[nodiscard]] int px() const { return px_; }
  [[nodiscard]] int py() const { return py_; }
  [[nodiscard]] int pz() const { return pz_; }
  [[nodiscard]] int coordX() const { return ix_; }
  [[nodiscard]] int coordY() const { return iy_; }
  [[nodiscard]] int coordZ() const { return iz_; }

  [[nodiscard]] static int rankOf(int ix, int iy, int iz, int px, int py) {
    return ix + px * (iy + py * iz);
  }

  /// Three-phase alltoallv. Semantics identical to Comm::alltoallv:
  /// sendbufs[d] is delivered to global rank d; result[s] holds rank s's
  /// contribution. Internally routes along x, then y, then z lines.
  template <class T>
  std::vector<std::vector<T>> alltoallv3d(const std::vector<std::vector<T>>& sendbufs) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = world_.size();
    if (sendbufs.size() != static_cast<std::size_t>(p)) {
      throw std::invalid_argument("alltoallv3d: need one buffer per rank");
    }

    // In-flight items carry (final destination, original source) headers.
    std::vector<Item<T>> items;
    items.reserve(static_cast<std::size_t>(p));
    // Zero-length payloads are routed too: receivers must learn that the
    // source sent nothing (same contract as MPI_Alltoallv counts).
    for (int d = 0; d < p; ++d) {
      items.push_back({d, world_.rank(), sendbufs[static_cast<std::size_t>(d)]});
    }

    // Phase X: deliver every item to the rank in our line whose x-coordinate
    // matches the destination's x-coordinate.
    items = routePhase(comm_x_, items, [&](int dest) { return dest % px_; });
    // Phase Y.
    items = routePhase(comm_y_, items, [&](int dest) { return (dest / px_) % py_; });
    // Phase Z.
    items = routePhase(comm_z_, items, [&](int dest) { return dest / (px_ * py_); });

    std::vector<std::vector<T>> out(static_cast<std::size_t>(p));
    for (auto& it : items) {
      if (it.dest != world_.rank()) throw std::logic_error("alltoallv3d: misrouted item");
      out[static_cast<std::size_t>(it.src)] = std::move(it.payload);
    }
    return out;
  }

 private:
  template <class T>
  struct Item {
    int dest;
    int src;
    std::vector<T> payload;
  };

  /// Serialize items into per-line-rank buffers, alltoallv them on the line
  /// communicator, deserialize.
  template <class T, class CoordOf>
  std::vector<Item<T>> routePhase(Comm& line, const std::vector<Item<T>>& items,
                                  CoordOf&& coord_of) {
    const auto n = static_cast<std::size_t>(line.size());
    std::vector<std::vector<char>> send(n);
    for (const auto& it : items) {
      auto& buf = send[static_cast<std::size_t>(coord_of(it.dest))];
      appendItem(buf, it);
    }
    auto recv = line.alltoallv(send);
    std::vector<Item<T>> out;
    for (auto& buf : recv) {
      std::size_t off = 0;
      while (off < buf.size()) out.push_back(extractItem<T>(buf, off));
    }
    return out;
  }

  template <class T>
  static void appendItem(std::vector<char>& buf, const Item<T>& it) {
    const std::uint64_t count = it.payload.size();
    const std::size_t head = buf.size();
    buf.resize(head + 2 * sizeof(std::int64_t) + sizeof(std::uint64_t) +
               count * sizeof(T));
    char* p = buf.data() + head;
    const std::int64_t dest = it.dest, src = it.src;
    std::memcpy(p, &dest, sizeof(dest));
    p += sizeof(dest);
    std::memcpy(p, &src, sizeof(src));
    p += sizeof(src);
    std::memcpy(p, &count, sizeof(count));
    p += sizeof(count);
    if (count > 0) std::memcpy(p, it.payload.data(), count * sizeof(T));
  }

  template <class T>
  static Item<T> extractItem(const std::vector<char>& buf, std::size_t& off) {
    std::int64_t dest = 0, src = 0;
    std::uint64_t count = 0;
    std::memcpy(&dest, buf.data() + off, sizeof(dest));
    off += sizeof(dest);
    std::memcpy(&src, buf.data() + off, sizeof(src));
    off += sizeof(src);
    std::memcpy(&count, buf.data() + off, sizeof(count));
    off += sizeof(count);
    Item<T> it{static_cast<int>(dest), static_cast<int>(src), {}};
    it.payload.resize(count);
    if (count > 0) {
      std::memcpy(it.payload.data(), buf.data() + off, count * sizeof(T));
      off += count * sizeof(T);
    }
    return it;
  }

  Comm& world_;
  int px_, py_, pz_;
  int ix_, iy_, iz_;
  Comm comm_x_, comm_y_, comm_z_;
};

}  // namespace asura::comm
