#pragma once

#include <span>

#include "graph/graph.hpp"

/// \file dual_graph.hpp
/// The dual graph network (G, G') of Section 2.1.
///
/// G = (V, E) holds the *reliable* links: a sender's message always reaches
/// its G-out-neighbors. G' = (V, E') with E contained in E' holds *all* links;
/// each round the adversary picks, for each sender, an arbitrary subset of its
/// G'-only out-neighbors that the message additionally reaches.
///
/// The model assumes a distinguished source node from which every node is
/// reachable in G. The classical (reliable) radio-network model is the
/// special case G == G'.
///
/// Representation: a DualGraph is nothing but three frozen `CsrGraph`
/// snapshots — G, G', and the G'-only ("unreliable") adjacency — and every
/// reader of a network (the round engines, adversaries, the trace auditor,
/// graph algorithms, the interference model) reads them. Every network
/// freezes G and G' from `CsrGraphBuilder`s once and keeps nothing else.

namespace dualrad {

class DualGraph {
 public:
  /// Build a network from frozen CSR snapshots of the reliable graph G and
  /// the full graph G', and a source. Validates: same vertex set, n >= 2,
  /// source in range, E subset of E', and every node reachable from the
  /// source in G.
  DualGraph(CsrGraph reliable, CsrGraph full, NodeId source);

  [[nodiscard]] NodeId node_count() const { return g_csr_.node_count(); }
  [[nodiscard]] NodeId source() const { return source_; }

  /// Frozen CSR snapshot of G. Row order is the authoritative delivery
  /// order of the engines.
  [[nodiscard]] const CsrGraph& g_csr() const { return g_csr_; }
  /// Frozen CSR snapshot of G' (reliable plus unreliable links).
  [[nodiscard]] const CsrGraph& g_prime_csr() const { return gp_csr_; }
  /// Frozen CSR of the G'-only adjacency (row order matches g_prime_csr).
  [[nodiscard]] const CsrGraph& unreliable_csr() const {
    return unreliable_csr_;
  }

  /// True iff both G and G' are symmetric (the paper's "undirected network").
  [[nodiscard]] bool is_undirected() const {
    return g_csr_.is_symmetric() && gp_csr_.is_symmetric();
  }

  /// True iff the network has no unreliable links (classical model).
  [[nodiscard]] bool is_classical() const {
    return g_csr_.edge_count() == gp_csr_.edge_count();
  }

  /// G'-only out-neighbors of u: nodes reachable from u only unreliably.
  /// Precomputed; cheap to call per round.
  [[nodiscard]] std::span<const NodeId> unreliable_out(NodeId u) const {
    return unreliable_csr_.row(u);
  }

  /// Number of unreliable (G'-only) directed edges.
  [[nodiscard]] std::size_t unreliable_edge_count() const {
    return unreliable_csr_.edge_count();
  }

 private:
  CsrGraph g_csr_;
  CsrGraph gp_csr_;
  CsrGraph unreliable_csr_;
  NodeId source_ = 0;
};

/// Convenience: a classical network (G == G').
[[nodiscard]] DualGraph make_classical(CsrGraph g, NodeId source);

}  // namespace dualrad
