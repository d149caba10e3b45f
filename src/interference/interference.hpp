#pragma once

#include <memory>
#include <vector>

#include "core/adversary.hpp"
#include "core/process.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "graph/dual_graph.hpp"

/// \file interference.hpp
/// The explicit-interference model (Section 2.2) and the Lemma 1 adapter.
///
/// An explicit-interference network has a transmission graph G_T and an
/// interference graph G_I with G_T a subgraph of G_I, both static. When u
/// sends, its message *reaches* all of u's G_I-out-neighbors (contributing to
/// collisions there), but can be *received* only along G_T edges: a node
/// whose sole arriving message came over a G_I-only edge hears silence
/// (Appendix A).
///
/// Lemma 1: any algorithm that broadcasts in T(n) rounds in all dual graphs
/// under some collision rule also broadcasts in T(n) rounds in all
/// explicit-interference graphs under the corresponding rule. The proof
/// (Appendix A) simulates the interference behavior with a dual-graph
/// adversary on (G = G_T, G' = G_I) that fires exactly the interference
/// edges involved in a collision; `InterferenceSimAdversary` implements that
/// adversary and the tests/benches check round-by-round equivalence.

namespace dualrad {

/// Lemma 1 reads (G_T, G_I) as exactly the dual graph G = G_T, G' = G_I, so
/// the network is stored as that DualGraph: `g_csr()` holds the G_T rows and
/// `unreliable_out(u)` the G_I-only rows, the edges whose arrivals interfere
/// but can never be received.
class InterferenceNetwork {
 public:
  /// Validates like DualGraph: same vertex set, n >= 2, source in range,
  /// G_T a subgraph of G_I, and every node reachable from the source in G_T.
  InterferenceNetwork(const Graph& transmission, const Graph& interference,
                      NodeId source);

  [[nodiscard]] NodeId node_count() const { return dual_.node_count(); }
  [[nodiscard]] NodeId source() const { return dual_.source(); }

  /// The dual graph of Lemma 1's simulation: G = G_T, G' = G_I.
  [[nodiscard]] const DualGraph& to_dual() const { return dual_; }

 private:
  DualGraph dual_;
};

struct InterferenceConfig {
  CollisionRule rule = CollisionRule::CR1;
  StartRule start = StartRule::Synchronous;
  Round max_rounds = 1'000'000;
  std::uint64_t seed = 1;
  /// Compressed records every round (core/trace.hpp). A sender's reach is
  /// its G_T row followed by its G_I-only row: every node its message
  /// reaches, whether or not it can be received there.
  TraceLevel trace = TraceLevel::None;
  bool stop_on_completion = true;
};

struct InterferenceResult {
  bool completed = false;
  Round completion_round = kNever;
  Round rounds_executed = 0;
  std::vector<Round> first_token{};
  std::uint64_t total_sends = 0;
  Trace trace{};
};

/// Run an execution in the explicit-interference model. Under CR4,
/// collisions at non-senders resolve to silence (the canonical choice; the
/// Lemma 1 adversary mirrors it).
[[nodiscard]] InterferenceResult run_interference_broadcast(
    const InterferenceNetwork& net, const ProcessFactory& factory,
    const InterferenceConfig& config);

/// The Appendix A simulating adversary for the dual graph net.to_dual():
/// fires each G_I-only edge (v is the sender, u the target) exactly when
///   (1) some sender w has a G_T edge to u   [u suffers a real collision],
///   (2) u does not receive a message in the interference execution, and
///   (3) v sends.
/// CR4 collisions resolve to silence, matching run_interference_broadcast.
class InterferenceSimAdversary : public Adversary {
 public:
  InterferenceSimAdversary(const InterferenceNetwork& net, CollisionRule rule);

  void choose_unreliable_reach(const AdversaryView& view,
                               std::span<const NodeId> senders,
                               ReachSink& sink) override;

 private:
  const InterferenceNetwork& inet_;
  CollisionRule rule_;
};

}  // namespace dualrad
