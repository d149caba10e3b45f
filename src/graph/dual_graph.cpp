#include "graph/dual_graph.hpp"

#include <utility>

#include "graph/algorithms.hpp"

namespace dualrad {

namespace {

/// The G'-only adjacency: each G' row minus the G edges, *in G' row order*
/// — stateful adversaries consume their RNG streams in this order.
[[nodiscard]] CsrGraph unreliable_of(const CsrGraph& g, const CsrGraph& gp) {
  std::vector<std::uint32_t> offsets(
      static_cast<std::size_t>(gp.node_count()) + 1, 0);
  std::vector<NodeId> targets;
  targets.reserve(gp.edge_count() - g.edge_count());
  for (NodeId u = 0; u < gp.node_count(); ++u) {
    for (const NodeId v : gp.row(u)) {
      if (!g.contains(u, v)) targets.push_back(v);
    }
    offsets[static_cast<std::size_t>(u) + 1] =
        static_cast<std::uint32_t>(targets.size());
  }
  return CsrGraph::from_rows(std::move(offsets), std::move(targets));
}

}  // namespace

DualGraph::DualGraph(CsrGraph reliable, CsrGraph full, NodeId source)
    : g_csr_(std::move(reliable)), gp_csr_(std::move(full)), source_(source) {
  DUALRAD_REQUIRE(g_csr_.node_count() == gp_csr_.node_count(),
                  "G and G' must share a vertex set");
  DUALRAD_REQUIRE(g_csr_.node_count() >= 2, "the model fixes n >= 2");
  DUALRAD_REQUIRE(source_ >= 0 && source_ < g_csr_.node_count(),
                  "source out of range");
  DUALRAD_REQUIRE(g_csr_.is_subgraph_of(gp_csr_), "E must be a subset of E'");
  DUALRAD_REQUIRE(graphalg::all_reachable(g_csr_, source_),
                  "every node must be reachable from the source in G");
  unreliable_csr_ = unreliable_of(g_csr_, gp_csr_);
}

DualGraph::DualGraph(const Graph& reliable, const Graph& full, NodeId source)
    : DualGraph(CsrGraph(reliable), CsrGraph(full), source) {}

DualGraph make_classical(const Graph& g, NodeId source) {
  CsrGraph csr(g);
  CsrGraph copy = csr;
  return DualGraph(std::move(copy), std::move(csr), source);
}

}  // namespace dualrad
