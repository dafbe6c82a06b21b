#include "core/recovery.hpp"

#include <algorithm>
#include <stdexcept>

#include "io/serialize.hpp"

namespace asura::core {

void SnapshotRing::resize(int slots) {
  slots_.resize(static_cast<std::size_t>(std::max(2, slots)));
}

void SnapshotRing::push(Simulation& sim) {
  if (slots_.empty()) resize(2);
  SnapshotEntry& e = slots_[static_cast<std::size_t>(head_ % slots_.size())];
  e.valid = false;
  io::ByteWriter w;
  sim.serializeState(w);
  e.bytes = w.take();
  e.crc = io::crc32(e.bytes.data(), e.bytes.size());
  e.step = sim.stepCount();
  e.time = sim.time();
  e.valid = true;
  ++head_;
  last_step_ = e.step;
}

const SnapshotEntry* SnapshotRing::find(long step) const {
  for (const auto& e : slots_) {
    if (e.valid && e.step == step) return &e;
  }
  return nullptr;
}

SnapshotEntry* SnapshotRing::find(long step) {
  for (auto& e : slots_) {
    if (e.valid && e.step == step) return &e;
  }
  return nullptr;
}

SnapshotEntry* SnapshotRing::latest() {
  SnapshotEntry* best = nullptr;
  for (auto& e : slots_) {
    if (e.valid && (!best || e.step > best->step)) best = &e;
  }
  return best;
}

const SnapshotEntry* SnapshotRing::latest() const {
  return const_cast<SnapshotRing*>(this)->latest();
}

std::vector<long> SnapshotRing::validSteps() const {
  std::vector<long> steps;
  for (const auto& e : slots_) {
    if (e.valid) steps.push_back(e.step);
  }
  std::sort(steps.begin(), steps.end(), std::greater<long>());
  return steps;
}

void SnapshotRing::restoreEntry(SnapshotEntry& e, Simulation& sim, int level,
                                const std::string& who) {
  if (io::crc32(e.bytes.data(), e.bytes.size()) != e.crc) {
    e.valid = false;
    throw std::runtime_error(who + ": ring snapshot CRC mismatch at step " +
                             std::to_string(e.step));
  }
  io::ByteReader r(e.bytes.data(), e.bytes.size());
  sim.restoreState(r);
  if (r.remaining() != 0) {
    e.valid = false;
    throw std::runtime_error(who + ": trailing ring bytes at step " +
                             std::to_string(e.step));
  }
  sim.config() = escalateConfig(sim.config(), level);
}

SimulationConfig escalateConfig(SimulationConfig base, int level) {
  // Level 0 is the plain config: the transient-fault path must stay bitwise
  // identical to the uninterrupted run. Each further rung narrows the
  // machinery a deterministic failure could live in. The rungs only ADD
  // safety (monotone), so re-applying after a ring restore — which brings
  // back the snapshot's pre-escalation config — is idempotent.
  if (level >= 1) base.validate_steps = true;
  if (level >= 3) {
    base.gravity.isa = pikg::Isa::Scalar;
    base.sph.isa = pikg::Isa::Scalar;
  }
  // Level 2 (surrogate -> Sedov oracle) is a construction-time backend
  // choice, carried by AttemptPlan::force_oracle instead of the config.
  return base;
}

AttemptPlan planAttempt(const SimulationConfig& base, int level) {
  const int l = std::clamp(level, 0, kMaxEscalation);
  return AttemptPlan{escalateConfig(base, l), l >= 2, l};
}

}  // namespace asura::core
