#pragma once

#include <vector>

#include "adversary/scripted_adversary.hpp"
#include "core/process.hpp"
#include "core/types.hpp"

/// \file theorem12.hpp
/// The constructive Omega(n log n) lower-bound adversary of Theorem 12.
///
/// Given *any* deterministic algorithm, the builder constructs — stage by
/// stage, exactly following the proof — an execution on the complete-layered
/// dual network (duals::theorem12_network) in which at least
/// (n-1)/4 * (log2(n-1) - 2) rounds pass while at most half the processes
/// have the message. Collision rule CR1, synchronous start.
///
/// Construction recap (Section 6): node 0 is the source with a distinguished
/// id i0 = 0. Stage k+1 assigns two processes to layer L_{k+1} and extends
/// the committed execution alpha_k:
///   * round 0 of the stage: the unique "about to be isolated" process of
///     A_k sends; the adversary delivers its message to exactly
///     A_k ∪ {i, i'} (rule 2), for every hypothetical pair {i, i'};
///   * candidate sets C_0 ⊇ C_1 ⊇ ... ⊇ C_{log(n-1)-2} shrink via the
///     proof's three cases, chosen so that every process outside the pair
///     receives pair-independent feedback and no candidate pair member ever
///     sends alone;
///   * the pair is then fixed (two smallest surviving candidates) and the
///     execution extends until one of them is about to send alone, which
///     seeds the next stage.
///
/// The builder maintains live process instances per history class
/// (individual for assigned processes, one shared-feedback class for the
/// unassigned, plus per-candidate in-pair branches) and relies on the
/// Process purity contract to peek at "would this process send next round?".
///
/// Fidelity note: the proof's case analysis tracks would-be senders only
/// within the current candidate set; candidates removed in earlier rounds of
/// the same stage are also unassigned in the final execution and may send
/// again. The builder accounts for the full sender set — every such round
/// still yields pair-independent feedback under the adversary rules (>= 2
/// senders => everyone hears top; a single unassigned sender's message is
/// delivered everywhere by rule 3), so the invariants P(l) survive
/// unchanged.

namespace dualrad::lowerbound {

struct Theorem12Options {
  /// Record the full adversary script (proc mapping + per-round unreliable
  /// reach) so the execution can be replayed by run_broadcast.
  bool build_script = false;
};

struct Theorem12Result {
  NodeId n = 0;
  /// False only if a proof invariant (or the purity contract) failed.
  bool valid = false;
  /// True if some stage's continuation never ended (it ran 500,000 rounds,
  /// or the execution reached 2,000,000): the algorithm never isolates the
  /// frontier pair again, so broadcast never completes.
  bool stalled = false;
  int stages_completed = 0;
  int stages_target = 0;
  /// Rounds committed by the construction (>= guaranteed_bound when valid).
  Round total_rounds = 0;
  /// (n-1)/4 * (log2(n-1) - 2).
  Round guaranteed_bound = 0;
  /// Processes holding the broadcast message at the end (= 2*stages + 1).
  NodeId covered_processes = 0;
  /// Rounds contributed by stage 0 and by each stage.
  std::vector<Round> stage_lengths{};
  /// Pair chosen at each stage.
  std::vector<std::pair<ProcessId, ProcessId>> stage_pairs{};
  /// Replay script (when requested): process placement and reach choices.
  AdversaryScript script{};
};

/// Run the construction against a deterministic algorithm. The factory must
/// produce processes satisfying the purity contract; randomized algorithms
/// are outside the theorem's scope.
[[nodiscard]] Theorem12Result run_theorem12(NodeId n,
                                            const ProcessFactory& factory,
                                            const Theorem12Options& options = {});

/// The bound (n-1)/4 * (log2(n-1) - 2) the construction guarantees.
[[nodiscard]] Round theorem12_bound(NodeId n);

}  // namespace dualrad::lowerbound
