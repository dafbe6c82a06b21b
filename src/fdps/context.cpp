#include "fdps/context.hpp"

#include <algorithm>

#include "util/omp.hpp"

namespace asura::fdps {

using util::ompMaxThreads;

StepContext::StepContext() : arenas_(static_cast<std::size_t>(ompMaxThreads())) {}

void StepContext::ensureArenas() {
  const auto want = static_cast<std::size_t>(std::max(1, ompMaxThreads()));
  if (arenas_.size() < want) arenas_.resize(want);
}

void StepContext::beginStep() {
  builds_step_ = 0;
  refreshes_step_ = 0;
}

void StepContext::invalidate() {
  gravity_tree_valid_ = false;
  gas_tree_valid_ = false;
  gravity_groups_.valid = false;
  gas_groups_.valid = false;
}

SourceTree& StepContext::gravityTree(std::span<const Particle> particles,
                                     std::span<const SourceEntry> let_entries,
                                     int leaf_size) {
  ensureArenas();
  if (!gravity_tree_valid_ || gravity_n_ != particles.size() ||
      gravity_let_n_ != let_entries.size() || gravity_leaf_ != leaf_size) {
    std::vector<SourceEntry> sources = makeSourceEntries(particles);
    sources.insert(sources.end(), let_entries.begin(), let_entries.end());
    gravity_tree_.build(std::move(sources), leaf_size);
    gravity_tree_valid_ = true;
    gravity_n_ = particles.size();
    gravity_let_n_ = let_entries.size();
    gravity_leaf_ = leaf_size;
    ++builds_step_;
    ++builds_total_;
  }
  return gravity_tree_;
}

SourceTree& StepContext::gasTree(std::span<const Particle> work, int leaf_size) {
  ensureArenas();
  if (!gas_tree_valid_ || gas_n_ != work.size() || gas_leaf_ != leaf_size) {
    gas_tree_.build(makeSourceEntries(work, /*gas_only=*/true), leaf_size);
    gas_tree_valid_ = true;
    gas_n_ = work.size();
    gas_leaf_ = leaf_size;
    ++builds_step_;
    ++builds_total_;
  }
  return gas_tree_;
}

const std::vector<TargetGroup>& StepContext::GroupCache::get(
    std::span<const Particle> particles, std::span<const std::uint32_t> targets,
    int group_size) {
  if (valid && gs == group_size &&
      std::equal(targets.begin(), targets.end(), key.begin(), key.end())) {
    return groups;
  }
  groups = makeTargetGroups(particles, targets, group_size);
  key.assign(targets.begin(), targets.end());
  gs = group_size;
  valid = true;
  return groups;
}

const std::vector<TargetGroup>& StepContext::gravityGroups(
    std::span<const Particle> particles, std::span<const std::uint32_t> targets,
    int group_size) {
  return gravity_groups_.get(particles, targets, group_size);
}

const std::vector<TargetGroup>& StepContext::gasGroups(
    std::span<const Particle> work, std::span<const std::uint32_t> targets,
    int group_size) {
  return gas_groups_.get(work, targets, group_size);
}

void StepContext::refreshGasSmoothing(std::span<const Particle> work) {
  if (!gas_tree_valid_) return;
  gas_tree_.refreshSmoothing(work);
  ++refreshes_step_;
  ++refreshes_total_;
}

void StepContext::refreshGravityPositions(std::span<const Particle> particles) {
  gravity_groups_.valid = false;  // bboxes went stale with the drift
  if (!gravity_tree_valid_) return;
  if (gravity_n_ != particles.size()) {
    gravity_tree_valid_ = false;
    return;
  }
  // LET import entries are all multipole-tagged (let.cpp sanitizes raw
  // boundary particles to idx = kMultipole), so refreshPositions leaves
  // them in place — the coasting approximation the exchange skin bounds —
  // while local entries take their drifted positions and every node moment
  // is recomputed.
  gravity_tree_.refreshPositions(particles);
  ++refreshes_step_;
  ++refreshes_total_;
}

void StepContext::refreshGasPositions(std::span<const Particle> work) {
  gas_groups_.valid = false;  // bboxes went stale with the drift
  refreshGasGhosts(work);
}

void StepContext::refreshGasGhosts(std::span<const Particle> work) {
  if (!gas_tree_valid_) return;
  if (gas_n_ != work.size()) {
    gas_tree_valid_ = false;
    return;
  }
  gas_tree_.refreshPositions(work);
  ++refreshes_step_;
  ++refreshes_total_;
}

}  // namespace asura::fdps
