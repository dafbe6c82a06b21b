#pragma once
/// \file recovery.hpp
/// \brief Instance-oriented recovery primitives: the in-memory snapshot ring
/// and the escalation ladder, extracted from the single-run Supervisor so a
/// multi-instance host (service/scenario_service.hpp) can keep independent
/// recovery state per Simulation instance.
///
/// The ring holds `slots` Simulation::serializeState blobs, each CRC-32
/// framed. A blob is the exact byte stream the disk checkpoint codec frames
/// (io/checkpoint.hpp), so a ring entry can be written out as an ordinary
/// restorable checkpoint (io::writeCheckpointRaw) or restored in place —
/// both paths are bitwise equivalence-preserving, which is what makes
/// rollback-and-retry recover transient faults with no trajectory drift.
///
/// The escalation ladder is the shared policy for "the same failure keeps
/// happening": retry r runs at level min(r-1, kMaxEscalation), each level
/// narrowing the machinery a deterministic failure could live in. Level 0
/// is the plain config (the bitwise-recovery path); the levels only ADD
/// safety (monotone), so re-applying an escalation on top of a ring-restored
/// config — which predates it — is idempotent.

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace asura::core {

/// One ring slot: a serializeState byte blob with CRC framing.
struct SnapshotEntry {
  long step = -1;
  double time = 0.0;
  std::uint32_t crc = 0;
  bool valid = false;
  std::vector<char> bytes;
};

/// Fixed-capacity ring of state snapshots for ONE Simulation instance (one
/// rank of a distributed run, or one instance of a scenario service). Not
/// thread-safe: callers serialize access (the Supervisor reads rings only
/// between attempts; the service holds the instance lease).
class SnapshotRing {
 public:
  SnapshotRing() = default;
  explicit SnapshotRing(int slots) { resize(slots); }

  /// (Re)shape to `slots` entries (clamped to >= 2: rollback needs the
  /// previous snapshot to survive the push of the next one).
  void resize(int slots);

  /// Serialize `sim` into the oldest slot. A caller killed mid-push leaves
  /// the slot invalid, never half-written: `valid` brackets the mutation.
  void push(Simulation& sim);

  /// Entry holding exactly `step`, or nullptr. The mutable overload lets
  /// restore poison a corrupt entry.
  [[nodiscard]] const SnapshotEntry* find(long step) const;
  [[nodiscard]] SnapshotEntry* find(long step);

  /// Newest valid entry (nullptr: none).
  [[nodiscard]] SnapshotEntry* latest();
  [[nodiscard]] const SnapshotEntry* latest() const;

  /// Steps of all valid entries, newest first.
  [[nodiscard]] std::vector<long> validSteps() const;

  [[nodiscard]] long lastStep() const { return last_step_; }
  [[nodiscard]] std::uint64_t pushes() const { return head_; }
  [[nodiscard]] int slots() const { return static_cast<int>(slots_.size()); }
  [[nodiscard]] const std::vector<SnapshotEntry>& entries() const { return slots_; }

  /// CRC-verify `e`, restore it into `sim` and re-apply ladder `level` to
  /// the restored config (which predates the escalation; the backend choice
  /// is construction-time and unaffected). On CRC mismatch or trailing
  /// bytes the entry is poisoned (valid = false) so the next rollback falls
  /// back to an older snapshot instead of re-reading the same corrupt bytes
  /// forever, and a std::runtime_error naming `who` is thrown.
  static void restoreEntry(SnapshotEntry& e, Simulation& sim, int level,
                           const std::string& who);

 private:
  std::vector<SnapshotEntry> slots_;
  std::uint64_t head_ = 0;  ///< pushes so far (head % slots = next victim)
  long last_step_ = -1;     ///< step of the most recent push
};

/// Deepest ladder level: beyond this, retries repeat the last level until
/// the budget is spent.
inline constexpr int kMaxEscalation = 3;

/// What one recovery attempt runs with. `cfg` already carries the level's
/// config knobs; `force_oracle` asks for the construction-time choice the
/// config cannot express — build the Simulation with SedovOracleBackend as
/// the *primary* surrogate backend.
struct AttemptPlan {
  SimulationConfig cfg;
  bool force_oracle = false;
  int level = 0;
};

/// The config for ladder `level` derived from `base`:
///   level 0 — same config (transient faults recover bitwise here);
///   level 1 — + validate_steps (catch corruption at the step it lands);
///   level 2 — (config unchanged; the oracle swap is AttemptPlan::force_oracle);
///   level 3 — + gravity.isa and sph.isa pinned to Scalar (exclude wide-ISA
///             paths).
/// Monotone and idempotent, so it can be re-applied over a ring-restored
/// config whose serialized knobs predate the escalation.
[[nodiscard]] SimulationConfig escalateConfig(SimulationConfig base, int level);

/// Full plan for `level` (clamped to [0, kMaxEscalation]).
[[nodiscard]] AttemptPlan planAttempt(const SimulationConfig& base, int level);

}  // namespace asura::core
