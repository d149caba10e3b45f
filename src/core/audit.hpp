#pragma once

#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "graph/dual_graph.hpp"

/// \file audit.hpp
/// Execution-trace auditing: independent re-verification that a recorded
/// execution obeys the dual graph model's delivery rules. Used by the test
/// suite, the lower-bound replay harnesses, and available to users who write
/// their own adversaries (the simulator validates choices online; the
/// auditor re-checks the whole trace after the fact).

namespace dualrad::audit {

struct AuditReport {
  bool ok = true;
  std::vector<std::string> violations{};
  /// Forgery outcomes, one entry per forged token some correct node relayed
  /// (the "did a forged token win" dimension). A win is a property of the
  /// *algorithm* under Byzantine faults, not a model violation, so wins do
  /// not clear `ok`; provenance that disagrees with the trace does.
  std::vector<std::string> forged_wins{};

  void fail(std::string what) {
    ok = false;
    violations.push_back(std::move(what));
  }

  [[nodiscard]] bool forged_token_won() const { return !forged_wins.empty(); }
};

/// Audit a complete trace (requires SimConfig::trace ==
/// TraceLevel::Compressed; rounds are decoded on the fly, and a round that
/// fails to decode — an id outside `net`, a malformed or truncated
/// encoding — throws std::invalid_argument):
///  - the trace holds one round per executed round, the i-th numbered i;
///  - every reached node of every sender is a G'-out-neighbor;
///  - every G-out-neighbor of every sender is reached (reliable edges
///    always deliver);
///  - no duplicate reach entries;
///  - no process transmits a broadcast token before holding it;
///  - every token reception is justified by a reaching token message;
///  - each token has exactly one round-0 holder — its environment source.
///    Pass `token_sources` (SimConfig::token_sources) to pin which node
///    that must be per token; when empty, the single-token case is checked
///    against net.source() and multi-token sources are only checked for
///    uniqueness;
///  - SimResult::first_token / token_first match the trace;
///  - every reception is the one the collision rule gives for the node's
///    arrivals: a sender hears its own message (under CR1 only as its sole
///    arrival, top otherwise); a non-sender hears silence with no arrival,
///    the message of a sole arrival, and with several arrivals top (CR1,
///    CR2), silence (CR3), or silence or one of them (CR4: the adversary's
///    pick);
///  - every out-of-band token id is registered in SimResult::forged_tokens
///    (Byzantine executions, src/byz/), a non-forger transmits a forged
///    token only after receiving it, and each ForgedTokenRecord's provenance
///    (injection rounds and counts, first victim, victim sends, receptions)
///    matches an independent recomputation from the trace. Wins — a correct
///    node relaying a forged token — are reported in AuditReport::forged_wins
///    naming the token, forger, relaying node, and round.
///
/// Cost: a round costs O(bytes + Σ over its senders of the G and G'
/// out-degrees and the reach + the non-silence receptions + n/4096) —
/// receptions are checked only at nodes with an arrival or a non-silence
/// reception, the only nodes a check can fault. Beyond that, setup and the
/// final coverage and provenance checks are O((tokens + forged tokens) * n).
/// Violations are reported round by round: sender checks in record order,
/// then reception checks in ascending node order.
[[nodiscard]] AuditReport audit_execution(
    const DualGraph& net, const SimResult& result, CollisionRule rule,
    const std::vector<NodeId>& token_sources = {});

}  // namespace dualrad::audit
