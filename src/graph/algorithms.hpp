#pragma once

#include <vector>

#include "graph/graph.hpp"

/// \file algorithms.hpp
/// Graph algorithms used throughout: BFS distances, reachability, diameter,
/// and the k-broadcastability distance bound of Section 3.

namespace dualrad::graphalg {

/// BFS distances from `source` along directed edges. Unreachable nodes get
/// dualrad::kNever (-1).
[[nodiscard]] std::vector<Round> bfs_distances(const CsrGraph& g,
                                               NodeId source);

/// True iff every node is reachable from `source`.
[[nodiscard]] bool all_reachable(const CsrGraph& g, NodeId source);

/// Eccentricity of `source`: max finite BFS distance; kNever if some node is
/// unreachable.
[[nodiscard]] Round eccentricity(const CsrGraph& g, NodeId source);

/// Directed diameter: max over all ordered pairs of the BFS distance;
/// kNever if the graph is not strongly connected.
[[nodiscard]] Round diameter(const CsrGraph& g);

/// True iff the undirected closure of g is connected.
[[nodiscard]] bool weakly_connected(const CsrGraph& g);

}  // namespace dualrad::graphalg
