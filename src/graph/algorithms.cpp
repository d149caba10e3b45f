#include "graph/algorithms.hpp"

#include <algorithm>

namespace dualrad::graphalg {

std::vector<Round> bfs_distances(const CsrGraph& g, NodeId source) {
  DUALRAD_REQUIRE(source >= 0 && source < g.node_count(),
                  "BFS source out of range");
  std::vector<Round> dist(static_cast<std::size_t>(g.node_count()), kNever);
  // A vector frontier (swap per level) instead of std::queue: BFS over a
  // 10^6-node CSR graph is on the construction path of the scale families.
  std::vector<NodeId> frontier{source}, next;
  dist[static_cast<std::size_t>(source)] = 0;
  Round level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (const NodeId u : frontier) {
      for (const NodeId v : g.row(u)) {
        auto& dv = dist[static_cast<std::size_t>(v)];
        if (dv == kNever) {
          dv = level;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

bool all_reachable(const CsrGraph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  return std::none_of(dist.begin(), dist.end(),
                      [](Round d) { return d == kNever; });
}

Round eccentricity(const CsrGraph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  Round ecc = 0;
  for (Round d : dist) {
    if (d == kNever) return kNever;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

Round diameter(const CsrGraph& g) {
  Round diam = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const Round ecc = eccentricity(g, u);
    if (ecc == kNever) return kNever;
    diam = std::max(diam, ecc);
  }
  return diam;
}

bool weakly_connected(const CsrGraph& g) {
  if (g.node_count() == 0) return true;
  CsrGraphBuilder closure(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const NodeId v : g.row(u)) closure.add_undirected_edge(u, v);
  }
  return all_reachable(closure.freeze(RowOrder::Ascending), 0);
}

}  // namespace dualrad::graphalg
