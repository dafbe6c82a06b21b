#pragma once
/// \file morton.hpp
/// \brief 63-bit Morton (Z-order) keys: 21 bits per dimension.
///
/// Used to sort particles into octree order; the linear tree is then built
/// by bit-partitioning the sorted key array level by level.

#include <cstdint>

#include "fdps/box.hpp"

namespace asura::fdps {

/// Spread the low 21 bits of v so that each bit lands at every 3rd position.
constexpr std::uint64_t spreadBits21(std::uint64_t v) {
  v &= 0x1fffffULL;
  v = (v | (v << 32)) & 0x1f00000000ffffULL;
  v = (v | (v << 16)) & 0x1f0000ff0000ffULL;
  v = (v | (v << 8)) & 0x100f00f00f00f00fULL;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ULL;
  v = (v | (v << 2)) & 0x1249249249249249ULL;
  return v;
}

/// Morton key of a point inside a cubic root cell.
inline std::uint64_t mortonKey(const Vec3d& p, const Box& cube) {
  constexpr double kScale = 1 << 21;
  const Vec3d e = cube.extent();
  auto clamp01 = [](double t) { return t < 0.0 ? 0.0 : (t >= 1.0 ? 0x1.fffffffffffffp-1 : t); };
  const auto ix = static_cast<std::uint64_t>(clamp01((p.x - cube.lo.x) / e.x) * kScale);
  const auto iy = static_cast<std::uint64_t>(clamp01((p.y - cube.lo.y) / e.y) * kScale);
  const auto iz = static_cast<std::uint64_t>(clamp01((p.z - cube.lo.z) / e.z) * kScale);
  return (spreadBits21(ix) << 2) | (spreadBits21(iy) << 1) | spreadBits21(iz);
}

/// Octant (0-7) of a key at a tree level; level 0 is the root split,
/// i.e. the top-most 3 bits of the 63-bit key.
constexpr unsigned octantAtLevel(std::uint64_t key, int level) {
  return static_cast<unsigned>((key >> (3 * (20 - level))) & 0x7ULL);
}

constexpr int kMortonMaxLevel = 20;

}  // namespace asura::fdps
