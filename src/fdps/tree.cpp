#include "fdps/tree.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "fdps/morton.hpp"
#include "util/omp.hpp"

namespace asura::fdps {

using util::ompMaxThreads;
using util::ompTeamSize;
using util::ompThreadId;

namespace {

Box tightBox(std::span<const SourceEntry> entries) {
  Box b;
  if (entries.empty()) return b;
  // Scalar min/max per component with simd reduction — the Box::extend call
  // chain serializes on a single dependency chain otherwise.
  double lx = entries[0].pos.x, ly = entries[0].pos.y, lz = entries[0].pos.z;
  double hx = lx, hy = ly, hz = lz;
#pragma omp simd reduction(min : lx, ly, lz) reduction(max : hx, hy, hz)
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Vec3d p = entries[i].pos;
    lx = std::min(lx, p.x);
    ly = std::min(ly, p.y);
    lz = std::min(lz, p.z);
    hx = std::max(hx, p.x);
    hy = std::max(hy, p.y);
    hz = std::max(hz, p.z);
  }
  b.lo = {lx, ly, lz};
  b.hi = {hx, hy, hz};
  return b;
}

/// Accumulate moments of a leaf node directly from its entry range.
void leafMoments(SourceTree::Node& n, std::span<const SourceEntry> entries) {
  double m = 0.0, weps = 0.0, maxh = 0.0;
  Vec3d com{};
  Box bbox;
  for (std::uint32_t i = n.first; i < n.first + n.count; ++i) {
    const SourceEntry& e = entries[i];
    bbox.extend(e.pos);
    m += e.mass;
    com += e.mass * e.pos;
    weps += e.mass * e.eps;
    maxh = std::max(maxh, e.h);
  }
  n.bbox = bbox;
  n.mass = m;
  n.com = m > 0.0 ? com / m : bbox.center();
  n.eps_mean = m > 0.0 ? weps / m : 1.0;
  n.max_h = maxh;
}

}  // namespace

namespace {

/// Reusable double-buffer storage for the radix sort; callers that sort
/// every step hand in persistent buffers so the working set stays warm
/// (fresh allocations cost more in page faults than the sort does in
/// arithmetic).
struct RadixBuffers {
  std::vector<std::uint64_t>& kb;
  std::vector<std::uint32_t>& ia;
  std::vector<std::uint32_t>& ib;
  std::vector<std::uint32_t>& counts;  ///< flat [thread][bucket] histogram
};

/// Core of the stable LSD radix sort: 13-bit digits (5 passes cover 64
/// bits; passes over constant digits are skipped). `keys_io` is consumed
/// and holds the sorted keys on return. `emit(dst, src)` is called exactly
/// once per element with its final rank and original index — callers fuse
/// their permutation-apply into the last scatter pass instead of gathering
/// through a materialized order array.
template <class Emit>
void radixSortCore(std::vector<std::uint64_t>& keys_io, RadixBuffers buf, Emit&& emit) {
  constexpr int kDigitBits = 13;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr int kPasses = (64 + kDigitBits - 1) / kDigitBits;

  const std::size_t n = keys_io.size();

  // Only digits whose bits actually vary across the key set need a pass.
  std::uint64_t varying = 0;
  for (const auto k : keys_io) varying |= k ^ keys_io[0];

  int last_pass = -1;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::uint64_t mask = (kBuckets - 1) << (kDigitBits * pass);
    if ((varying & mask) != 0) last_pass = pass;
  }
  if (last_pass < 0) {
    // All keys equal: identity permutation, keys already "sorted".
    for (std::size_t i = 0; i < n; ++i) emit(i, static_cast<std::uint32_t>(i));
    return;
  }

  buf.kb.resize(n);
  buf.ia.resize(n);
  buf.ib.resize(n);
  // `ia` starts as the implicit identity — the first executed pass reads the
  // loop index instead of a materialized iota.
  std::vector<std::uint64_t>* ka = &keys_io;
  std::vector<std::uint64_t>* kb = &buf.kb;
  std::vector<std::uint32_t>* ia = &buf.ia;
  std::vector<std::uint32_t>* ib = &buf.ib;
  bool identity = true;

  const int nt = std::max(1, std::min<int>(ompMaxThreads(), static_cast<int>((n + 4095) / 4096)));
  buf.counts.resize(static_cast<std::size_t>(nt) * kBuckets);

  for (int pass = 0; pass <= last_pass; ++pass) {
    const int shift = kDigitBits * pass;
    const std::uint64_t mask = kBuckets - 1;
    if (((varying >> shift) & mask) == 0) continue;  // constant digit
    const bool final_pass = pass == last_pass;
    const auto& src_keys = *ka;
    const auto& src_idx = *ia;
    auto& dst_keys = *kb;
    auto& dst_idx = *ib;

#pragma omp parallel num_threads(nt)
    {
      // The runtime may deliver fewer than nt threads (dynamic adjustment,
      // thread limits); partition by the team size actually granted.
      const int team = ompTeamSize();
      const int tid = ompThreadId();
      const std::size_t lo = n * static_cast<std::size_t>(tid) / static_cast<std::size_t>(team);
      const std::size_t hi =
          n * (static_cast<std::size_t>(tid) + 1) / static_cast<std::size_t>(team);
      std::uint32_t* cnt = buf.counts.data() + static_cast<std::size_t>(tid) * kBuckets;
      std::fill(cnt, cnt + kBuckets, 0u);
      for (std::size_t i = lo; i < hi; ++i) ++cnt[(src_keys[i] >> shift) & mask];

#pragma omp barrier
#pragma omp single
      {
        // Exclusive scan, digit-major / thread-minor: thread t's run of digit
        // d lands after every lower digit and after threads < t's runs of d,
        // which is exactly the stable ordering.
        std::uint32_t sum = 0;
        for (std::size_t d = 0; d < kBuckets; ++d) {
          for (int t = 0; t < team; ++t) {
            std::uint32_t& c = buf.counts[static_cast<std::size_t>(t) * kBuckets + d];
            const std::uint32_t v = c;
            c = sum;
            sum += v;
          }
        }
      }

      if (final_pass) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint32_t dst = cnt[(src_keys[i] >> shift) & mask]++;
          dst_keys[dst] = src_keys[i];
          emit(dst, identity ? static_cast<std::uint32_t>(i) : src_idx[i]);
        }
      } else if (identity) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint32_t dst = cnt[(src_keys[i] >> shift) & mask]++;
          dst_keys[dst] = src_keys[i];
          dst_idx[dst] = static_cast<std::uint32_t>(i);
        }
      } else {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint32_t dst = cnt[(src_keys[i] >> shift) & mask]++;
          dst_keys[dst] = src_keys[i];
          dst_idx[dst] = src_idx[i];
        }
      }
    }
    std::swap(ka, kb);
    std::swap(ia, ib);
    identity = false;
  }
  if (ka != &keys_io) keys_io.swap(*ka);
}

}  // namespace

void radixSortByKey(std::span<const std::uint64_t> keys,
                    std::vector<std::uint32_t>& order) {
  std::vector<std::uint64_t> keys_io(keys.begin(), keys.end()), kb;
  std::vector<std::uint32_t> ia, ib, counts;
  order.resize(keys.size());
  radixSortCore(keys_io, {kb, ia, ib, counts},
                [&](std::size_t dst, std::uint32_t src) { order[dst] = src; });
}

const Box& SourceTree::rootBox() const {
  if (nodes_.empty()) throw std::logic_error("SourceTree: empty tree has no root");
  return nodes_[0].bbox;
}

void SourceTree::build(std::vector<SourceEntry> entries, int leaf_size) {
  entries_ = std::move(entries);
  nodes_.clear();
  keys_.clear();
  child_links_.clear();
  if (entries_.empty()) return;

  const Box cube = tightBox(entries_).boundingCube();
  const std::size_t n = entries_.size();

  // Keys are generated straight into keys_, which doubles as the radix
  // sort's in/out buffer and therefore holds the sorted keys afterwards.
  keys_.resize(n);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    keys_[i] = mortonKey(entries_[i].pos, cube);
  }

  // The permutation-apply rides inside the sort's final scatter pass.
  entry_scratch_.resize(n);
  radixSortCore(keys_, {sort_key_scratch_, sort_idx_a_, sort_idx_b_, sort_counts_},
                [&](std::size_t dst, std::uint32_t src) {
                  entry_scratch_[dst] = entries_[src];
                });
  entries_.swap(entry_scratch_);

  // Octree node count for leaf_size ~16 lands near 0.35 N on realistic data;
  // reserving half of N avoids reallocation copies during the build.
  nodes_.reserve(n / 2 + 64);
  buildTopology(std::max(leaf_size, 1));
  computeMoments();
}

// Octant split of a sorted key range: each octant is a contiguous subrange
// found by a partition point on the 3-bit digit at this level.
void SourceTree::splitOctants(std::uint32_t first, std::uint32_t count, int level,
                              std::uint32_t (&child_first)[9]) const {
  child_first[0] = first;
  if (count < 128) {
    // Small ranges: one cache-friendly linear scan beats 8 binary searches.
    std::uint32_t pos = first;
    for (unsigned oct = 0; oct < 8; ++oct) {
      while (pos < first + count && octantAtLevel(keys_[pos], level) == oct) ++pos;
      child_first[oct + 1] = pos;
    }
    return;
  }
  const auto begin = keys_.begin() + first;
  const auto end = begin + count;
  auto it = begin;
  for (unsigned oct = 0; oct < 8; ++oct) {
    it = std::partition_point(it, end, [&](std::uint64_t k) {
      return octantAtLevel(k, level) <= oct;
    });
    child_first[oct + 1] = first + static_cast<std::uint32_t>(it - begin);
  }
}

void SourceTree::buildSubtree(std::int32_t root, int root_level, int leaf_size,
                              std::vector<Node>& nodes,
                              std::vector<std::int32_t>& links) const {
  // Iterative pre-order DFS; recursion depth is bounded by kMortonMaxLevel
  // but an explicit stack keeps the build allocation-free per node. Leaf
  // moments are folded in while the entry range is still cache-hot from the
  // parent's octant scan.
  struct Item {
    std::uint32_t first, count;
    int level;
    std::int32_t node;       ///< existing node index, or -1 to create
    std::int32_t link_slot;  ///< links slot to patch, or -1
  };
  std::vector<Item> stack{{nodes[static_cast<std::size_t>(root)].first,
                           nodes[static_cast<std::size_t>(root)].count, root_level,
                           root, -1}};
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    std::int32_t me = it.node;
    if (me < 0) {
      me = static_cast<std::int32_t>(nodes.size());
      nodes.emplace_back();
      nodes[static_cast<std::size_t>(me)].first = it.first;
      nodes[static_cast<std::size_t>(me)].count = it.count;
      links[static_cast<std::size_t>(it.link_slot)] = me;
    }
    if (static_cast<int>(it.count) <= leaf_size || it.level >= kMortonMaxLevel) {
      leafMoments(nodes[static_cast<std::size_t>(me)], entries_);
      continue;
    }
    std::uint32_t child_first[9];
    splitOctants(it.first, it.count, it.level, child_first);
    const auto link_base = static_cast<std::int32_t>(links.size());
    std::int32_t n_children = 0;
    for (unsigned oct = 0; oct < 8; ++oct) {
      if (child_first[oct + 1] > child_first[oct]) ++n_children;
    }
    nodes[static_cast<std::size_t>(me)].first_child = link_base;
    nodes[static_cast<std::size_t>(me)].n_children = n_children;
    links.resize(static_cast<std::size_t>(link_base + n_children), -1);
    // Push in reverse so children pop (and get numbered) in octant order.
    std::int32_t slot = link_base + n_children - 1;
    for (int oct = 7; oct >= 0; --oct) {
      const std::uint32_t cf = child_first[oct];
      const std::uint32_t cc = child_first[oct + 1] - cf;
      if (cc == 0) continue;
      stack.push_back({cf, cc, it.level + 1, -1, slot--});
    }
  }
}

void SourceTree::buildTopology(int leaf_size) {
  struct Range {
    std::int32_t node;     ///< index in nodes_ (already created)
    std::uint32_t first, count;
    int level;
  };

  const auto n = static_cast<std::uint32_t>(entries_.size());

  nodes_.emplace_back();
  nodes_[0].first = 0;
  nodes_[0].count = n;

  // Phase A (serial): breadth-first expansion of the coarse top of the tree
  // until every pending subtree is small enough to build independently.
  const std::uint32_t grain =
      std::max<std::uint32_t>(static_cast<std::uint32_t>(leaf_size) * 8,
                              ompMaxThreads() > 1 ? n / (8u * static_cast<std::uint32_t>(ompMaxThreads())) : n);
  std::vector<Range> frontier{{0, 0, n, 0}}, next, small;
  while (!frontier.empty()) {
    next.clear();
    for (const Range& r : frontier) {
      if (static_cast<int>(r.count) <= leaf_size || r.level >= kMortonMaxLevel) {
        leafMoments(nodes_[static_cast<std::size_t>(r.node)], entries_);
        continue;  // leaf: nothing to expand
      }
      if (r.count <= grain) {
        small.push_back(r);
        continue;
      }
      std::uint32_t child_first[9];
      splitOctants(r.first, r.count, r.level, child_first);
      nodes_[static_cast<std::size_t>(r.node)].first_child =
          static_cast<std::int32_t>(child_links_.size());
      std::int32_t n_children = 0;
      for (unsigned oct = 0; oct < 8; ++oct) {
        const std::uint32_t cf = child_first[oct];
        const std::uint32_t cc = child_first[oct + 1] - cf;
        if (cc == 0) continue;
        const auto child = static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back();
        nodes_[static_cast<std::size_t>(child)].first = cf;
        nodes_[static_cast<std::size_t>(child)].count = cc;
        child_links_.push_back(child);
        ++n_children;
        next.push_back({child, cf, cc, r.level + 1});
      }
      nodes_[static_cast<std::size_t>(r.node)].n_children = n_children;
    }
    frontier.swap(next);
  }

  if (small.empty()) return;

  if (ompMaxThreads() == 1 || small.size() == 1) {
    // Serial fast path: depth-first straight into the global arrays — no
    // local buffers, no splice copy. Identical node layout to the parallel
    // path below (subtrees in `small` order, pre-order within) because both
    // run the same buildSubtree.
    for (const Range& r : small) {
      buildSubtree(r.node, r.level, leaf_size, nodes_, child_links_);
    }
    return;
  }

  // Phase B (parallel): each small subtree built into thread-local arrays by
  // the shared buildSubtree (local node 0 mirrors the already-created global
  // node), then spliced back deterministically.
  struct LocalTree {
    std::vector<Node> nodes;
    std::vector<std::int32_t> links;
  };
  std::vector<LocalTree> locals(small.size());

#pragma omp parallel for schedule(dynamic)
  for (std::size_t s = 0; s < small.size(); ++s) {
    LocalTree& lt = locals[s];
    lt.nodes.reserve(small[s].count / 2 + 8);
    lt.nodes.emplace_back();
    lt.nodes[0].first = small[s].first;
    lt.nodes[0].count = small[s].count;
    buildSubtree(0, small[s].level, leaf_size, lt.nodes, lt.links);
  }

  // Splice (serial, deterministic in `small` order): local index j > 0 maps
  // to nodes_.size() + j - 1; local node 0 folds into the existing node.
  for (std::size_t s = 0; s < small.size(); ++s) {
    LocalTree& lt = locals[s];
    const auto node_base = static_cast<std::int32_t>(nodes_.size());
    const auto link_base = static_cast<std::int32_t>(child_links_.size());
    auto mapNode = [&](std::int32_t local) {
      return local == 0 ? small[s].node : node_base + local - 1;
    };
    Node& root = nodes_[static_cast<std::size_t>(small[s].node)];
    root.first_child =
        lt.nodes[0].n_children > 0 ? lt.nodes[0].first_child + link_base : -1;
    root.n_children = lt.nodes[0].n_children;
    root.bbox = lt.nodes[0].bbox;
    root.mass = lt.nodes[0].mass;
    root.com = lt.nodes[0].com;
    root.eps_mean = lt.nodes[0].eps_mean;
    root.max_h = lt.nodes[0].max_h;
    for (std::size_t j = 1; j < lt.nodes.size(); ++j) {
      Node nd = lt.nodes[j];
      if (nd.first_child >= 0) nd.first_child += link_base;
      nodes_.push_back(nd);
    }
    for (const std::int32_t l : lt.links) child_links_.push_back(mapNode(l));
  }
}

void SourceTree::computeMoments() {
  // Leaf moments were computed during the topology build; internal nodes
  // reduce bottom-up. Children always carry a larger index than their parent
  // (BFS phase appends after, DFS splices are pre-order), so a reverse sweep
  // sees every child before its parent.
  const auto n_nodes = static_cast<std::int64_t>(nodes_.size());
  for (std::int64_t i = n_nodes - 1; i >= 0; --i) {
    Node& n = nodes_[static_cast<std::size_t>(i)];
    if (n.isLeaf()) continue;
    double m = 0.0, weps = 0.0, maxh = 0.0;
    Vec3d com{};
    Box bbox;
    for (std::int32_t c = 0; c < n.n_children; ++c) {
      const Node& ch = nodes_[static_cast<std::size_t>(
          child_links_[static_cast<std::size_t>(n.first_child + c)])];
      bbox.extend(ch.bbox);
      m += ch.mass;
      com += ch.mass * ch.com;
      weps += ch.mass * ch.eps_mean;
      maxh = std::max(maxh, ch.max_h);
    }
    n.bbox = bbox;
    n.mass = m;
    n.com = m > 0.0 ? com / m : bbox.center();
    n.eps_mean = m > 0.0 ? weps / m : 1.0;
    n.max_h = maxh;
  }
}

void SourceTree::refreshPositions(std::span<const Particle> particles) {
  const auto n_entries = static_cast<std::int64_t>(entries_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n_entries; ++i) {
    SourceEntry& e = entries_[static_cast<std::size_t>(i)];
    if (e.isMultipole() || e.idx >= particles.size()) continue;
    const Particle& p = particles[e.idx];
    e.pos = p.pos;
    e.h = p.isGas() ? p.h : 0.0;
  }
  // Leaves rescan their (short) entry ranges in parallel; the internal nodes
  // then reduce over children in computeMoments' reverse bottom-up sweep.
  const auto n_nodes = static_cast<std::int64_t>(nodes_.size());
#pragma omp parallel for schedule(dynamic, 64)
  for (std::int64_t i = 0; i < n_nodes; ++i) {
    Node& n = nodes_[static_cast<std::size_t>(i)];
    if (n.isLeaf()) leafMoments(n, entries_);
  }
  computeMoments();
}

void SourceTree::refreshSmoothing(std::span<const Particle> particles) {
  const auto n_entries = static_cast<std::int64_t>(entries_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n_entries; ++i) {
    SourceEntry& e = entries_[static_cast<std::size_t>(i)];
    if (e.isMultipole() || e.idx >= particles.size()) continue;
    e.h = particles[e.idx].h;
  }
  // max_h only: leaves rescan their (short) entry ranges, internal nodes
  // reduce over children in the same reverse bottom-up sweep as the build.
  const auto n_nodes = static_cast<std::int64_t>(nodes_.size());
#pragma omp parallel for schedule(dynamic, 64)
  for (std::int64_t i = 0; i < n_nodes; ++i) {
    Node& n = nodes_[static_cast<std::size_t>(i)];
    if (!n.isLeaf()) continue;
    double maxh = 0.0;
    for (std::uint32_t j = n.first; j < n.first + n.count; ++j) {
      maxh = std::max(maxh, entries_[j].h);
    }
    n.max_h = maxh;
  }
  for (std::int64_t i = n_nodes - 1; i >= 0; --i) {
    Node& n = nodes_[static_cast<std::size_t>(i)];
    if (n.isLeaf()) continue;
    double maxh = 0.0;
    for (std::int32_t c = 0; c < n.n_children; ++c) {
      maxh = std::max(maxh, nodes_[static_cast<std::size_t>(
                                child_links_[static_cast<std::size_t>(n.first_child + c)])]
                                .max_h);
    }
    n.max_h = maxh;
  }
}

void SourceTree::gatherInteraction(const Box& target, double theta,
                                   std::vector<std::uint32_t>& ep,
                                   std::vector<Monopole>& sp) const {
  if (nodes_.empty()) return;
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const Node& n = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    const double d = target.distance(n.com);
    if (d > 0.0 && n.size() < theta * d) {
      sp.push_back({n.com, n.mass, n.eps_mean});
      continue;
    }
    if (n.isLeaf()) {
      for (std::uint32_t i = n.first; i < n.first + n.count; ++i) ep.push_back(i);
      continue;
    }
    for (std::int32_t c = 0; c < n.n_children; ++c) {
      stack.push_back(child_links_[static_cast<std::size_t>(n.first_child + c)]);
    }
  }
}

void SourceTree::gatherNeighbors(const Box& target, double gather_radius,
                                 std::vector<std::uint32_t>& out) const {
  if (nodes_.empty()) return;
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const Node& n = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    const double reach = std::max(gather_radius, n.max_h);
    if (target.distance(n.bbox) > reach) continue;
    if (n.isLeaf()) {
      for (std::uint32_t i = n.first; i < n.first + n.count; ++i) {
        const SourceEntry& e = entries_[i];
        if (target.distance(e.pos) <= std::max(gather_radius, e.h)) out.push_back(i);
      }
      continue;
    }
    for (std::int32_t c = 0; c < n.n_children; ++c) {
      stack.push_back(child_links_[static_cast<std::size_t>(n.first_child + c)]);
    }
  }
}

void SourceTree::exportLet(const Box& remote_box, double theta,
                           std::vector<SourceEntry>& out,
                           std::vector<LetExportItem>* items) const {
  if (nodes_.empty()) return;
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const Node& n = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    const double d = remote_box.distance(n.com);
    if (d > 0.0 && n.size() < theta * d) {
      SourceEntry e;
      e.pos = n.com;
      e.mass = n.mass;
      e.eps = n.eps_mean;
      e.h = 0.0;
      e.idx = SourceEntry::kMultipole;
      out.push_back(e);
      if (items) items->push_back({n.first, n.count});
      continue;
    }
    if (n.isLeaf()) {
      for (std::uint32_t i = n.first; i < n.first + n.count; ++i) {
        out.push_back(entries_[i]);
        if (items) items->push_back({i, 0});
      }
      continue;
    }
    for (std::int32_t c = 0; c < n.n_children; ++c) {
      stack.push_back(child_links_[static_cast<std::size_t>(n.first_child + c)]);
    }
  }
}

std::vector<std::uint32_t> targetIndices(std::span<const Particle> particles,
                                         bool gas_only) {
  std::vector<std::uint32_t> out;
  out.reserve(particles.size());
  for (std::uint32_t i = 0; i < particles.size(); ++i) {
    if (!gas_only || particles[i].isGas()) out.push_back(i);
  }
  return out;
}

std::vector<TargetGroup> makeTargetGroups(std::span<const Particle> particles,
                                          std::span<const std::uint32_t> targets,
                                          int group_size) {
  std::vector<TargetGroup> groups;
  if (targets.empty()) return groups;
  // The target box is recomputed every sub-step (the closing set changes
  // each sub-step, and mid-step limiter wakes change it again); a simd
  // min/max reduction keeps this O(targets) sweep off the quiet-substep
  // floor instead of serializing on Box::extend's dependency chain.
  double lx = particles[targets[0]].pos.x, ly = particles[targets[0]].pos.y,
         lz = particles[targets[0]].pos.z;
  double hx = lx, hy = ly, hz = lz;
#pragma omp simd reduction(min : lx, ly, lz) reduction(max : hx, hy, hz)
  for (std::size_t s = 0; s < targets.size(); ++s) {
    const Vec3d p = particles[targets[s]].pos;
    lx = std::min(lx, p.x);
    ly = std::min(ly, p.y);
    lz = std::min(lz, p.z);
    hx = std::max(hx, p.x);
    hy = std::max(hy, p.y);
    hz = std::max(hz, p.z);
  }
  const Box cube = Box{{lx, ly, lz}, {hx, hy, hz}}.boundingCube();
  // Keys are computed once into a buffer, not once per comparison.
  std::vector<std::uint64_t> keys(targets.size());
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < targets.size(); ++i) {
    keys[i] = mortonKey(particles[targets[i]].pos, cube);
  }
  // Persistent scratch: grouping runs every pass, so keep its sort working
  // set warm like the tree's (called from serial code only).
  thread_local std::vector<std::uint64_t> kb;
  thread_local std::vector<std::uint32_t> ia, ib, counts;
  std::vector<std::uint32_t> sorted(targets.size());
  radixSortCore(keys, {kb, ia, ib, counts},
                [&](std::size_t dst, std::uint32_t src) { sorted[dst] = targets[src]; });

  const auto gs = static_cast<std::size_t>(std::max(group_size, 1));
  groups.resize((sorted.size() + gs - 1) / gs);
#pragma omp parallel for schedule(static)
  for (std::size_t g = 0; g < groups.size(); ++g) {
    TargetGroup& grp = groups[g];
    const std::size_t off = g * gs;
    const std::size_t end = std::min(off + gs, sorted.size());
    grp.indices.assign(sorted.begin() + static_cast<std::ptrdiff_t>(off),
                       sorted.begin() + static_cast<std::ptrdiff_t>(end));
    for (const std::uint32_t i : grp.indices) grp.bbox.extend(particles[i].pos);
  }
  return groups;
}

std::vector<SourceEntry> makeSourceEntries(std::span<const Particle> particles,
                                           bool gas_only) {
  std::vector<SourceEntry> out;
  out.reserve(particles.size());
  for (std::uint32_t i = 0; i < particles.size(); ++i) {
    const Particle& p = particles[i];
    if (gas_only && !p.isGas()) continue;
    SourceEntry e;
    e.pos = p.pos;
    e.mass = p.mass;
    e.eps = p.eps;
    e.h = p.isGas() ? p.h : 0.0;
    e.idx = i;
    out.push_back(e);
  }
  return out;
}

}  // namespace asura::fdps
