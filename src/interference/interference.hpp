#pragma once

#include <span>

#include "core/adversary.hpp"
#include "core/simulator.hpp"

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
/// Lemma 1 reads (G_T, G_I) as exactly the dual graph G = G_T, G' = G_I, so
/// the network is that DualGraph: `g_csr()` holds the G_T rows and
/// `unreliable_csr()` the G_I-only rows. The model differs from the dual
/// graph model only in its reception rule, so run_interference_broadcast is
/// a round kernel on the execution frame (core/execution.hpp) like the
/// dual-graph engines: the frame runs it with a FullInterferenceAdversary,
/// whose reach is every G_I-only row, and the kernel lets those arrivals
/// collide but never be received.
///
/// Lemma 1: any algorithm that broadcasts in T(n) rounds in all dual graphs
/// under some collision rule also broadcasts in T(n) rounds in all
/// explicit-interference graphs under the corresponding rule. The proof
/// (Appendix A) simulates the interference behavior with a dual-graph
/// adversary on (G = G_T, G' = G_I) that fires exactly the interference
/// edges involved in a collision; `InterferenceSimAdversary` implements that
/// adversary and the tests/benches check round-by-round equivalence.

namespace dualrad {

/// Run an execution in the explicit-interference model on `net` read as
/// (G_T, G_I) = (G, G'). Under CR3 and CR4 collisions at non-senders are
/// heard as silence (for CR4 the canonical choice; the Lemma 1 adversary
/// mirrors it). A sender's traced reach is its G_T row followed by its
/// G_I-only row: every node its message reaches, whether or not it can be
/// received there. Throws std::invalid_argument when SimConfig::telemetry is
/// set; otherwise validates and fails like run_broadcast.
[[nodiscard]] SimResult run_interference_broadcast(
    const DualGraph& net, const ProcessFactory& factory,
    const SimConfig& config);

/// The Appendix A simulating adversary on the dual graph (G_T, G_I): fires
/// each G_I-only edge (v is the sender, u the target) exactly when
///   (1) some sender w has a G_T edge to u   [u suffers a real collision],
///   (2) u does not receive a message in the interference execution, and
///   (3) v sends.
/// It reads G_T and the G_I-only rows from its AdversaryView. CR4 collisions
/// resolve to silence, matching run_interference_broadcast.
class InterferenceSimAdversary : public Adversary {
 public:
  explicit InterferenceSimAdversary(CollisionRule rule) : rule_(rule) {}

  void choose_unreliable_reach(const AdversaryView& view,
                               std::span<const NodeId> senders,
                               ReachSink& sink) override;

 private:
  CollisionRule rule_;
};

}  // namespace dualrad
