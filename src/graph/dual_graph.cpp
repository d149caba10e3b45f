#include "graph/dual_graph.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "graph/algorithms.hpp"

namespace dualrad {

namespace {

/// The G'-only adjacency: each G' row minus the G edges, *in G' row order*
/// — stateful adversaries consume their RNG streams in this order. One pass
/// over both graphs with a stamp per node: row u's G' members get 2u, its G
/// members must already carry 2u (or 2u + 1, a repeat) and get 2u + 1, and
/// the G' members still at 2u form the row. A G member without the stamp is
/// an edge of E missing from E', and the result is empty. NodeId is below
/// 2^31, so 2u + 1 never reaches the unstamped value.
[[nodiscard]] std::optional<CsrGraph> unreliable_of(const CsrGraph& g,
                                                    const CsrGraph& gp) {
  constexpr auto kUnstamped = std::numeric_limits<std::uint32_t>::max();
  const auto n = static_cast<std::size_t>(gp.node_count());
  std::vector<std::uint32_t> stamp(n, kUnstamped);
  std::vector<std::uint32_t> offsets(n + 1, 0);
  std::vector<NodeId> targets;
  targets.reserve(gp.edge_count() - std::min(g.edge_count(), gp.edge_count()));
  for (NodeId u = 0; u < gp.node_count(); ++u) {
    const std::uint32_t in_gp = 2 * static_cast<std::uint32_t>(u);
    const std::uint32_t in_g = in_gp + 1;
    for (const NodeId v : gp.row(u)) {
      stamp[static_cast<std::size_t>(v)] = in_gp;
    }
    for (const NodeId v : g.row(u)) {
      std::uint32_t& s = stamp[static_cast<std::size_t>(v)];
      if (s != in_gp && s != in_g) return std::nullopt;
      s = in_g;
    }
    for (const NodeId v : gp.row(u)) {
      if (stamp[static_cast<std::size_t>(v)] == in_gp) targets.push_back(v);
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
  // The BFS runs first so that its n-wide distance array is freed before
  // the G'-only rows are allocated rather than stacked on them; the checks
  // still fail in their documented order.
  const bool reachable = graphalg::all_reachable(g_csr_, source_);
  std::optional<CsrGraph> unreliable = unreliable_of(g_csr_, gp_csr_);
  DUALRAD_REQUIRE(unreliable.has_value(), "E must be a subset of E'");
  DUALRAD_REQUIRE(reachable,
                  "every node must be reachable from the source in G");
  unreliable_csr_ = std::move(*unreliable);
}

DualGraph make_classical(CsrGraph g, NodeId source) {
  CsrGraph copy = g;
  return DualGraph(std::move(copy), std::move(g), source);
}

}  // namespace dualrad
