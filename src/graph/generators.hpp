#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

/// \file generators.hpp
/// Plain-graph generators (single graphs; dual graph families live in
/// dual_builders.hpp). All generators produce nodes {0, ..., n-1}, frozen
/// with RowOrder::Emission: each row lists its targets in the order the
/// generator adds them. A caller that extends a generated graph starts a
/// CsrGraphBuilder from it.

namespace dualrad::gen {

/// Complete undirected graph on n nodes.
[[nodiscard]] CsrGraph clique(NodeId n);

/// Undirected path 0 - 1 - ... - n-1.
[[nodiscard]] CsrGraph path(NodeId n);

/// Undirected cycle.
[[nodiscard]] CsrGraph cycle(NodeId n);

/// Undirected star centered at node 0.
[[nodiscard]] CsrGraph star(NodeId n);

/// Complete layered undirected graph: nodes grouped into consecutive layers
/// of the given sizes; all intra-layer edges and all edges between adjacent
/// layers are present. (The reliable graph of the Theorem 12 construction is
/// of this form.)
[[nodiscard]] CsrGraph complete_layered(const std::vector<NodeId>& layer_sizes);

/// Directed complete layered graph: every node of layer i has edges to every
/// node of layer i+1 (forward only, no intra-layer edges).
[[nodiscard]] CsrGraph directed_layered(const std::vector<NodeId>& layer_sizes);

/// Erdos-Renyi G(n, p) undirected, made connected by first adding a random
/// spanning tree (uniform attachment).
[[nodiscard]] CsrGraph gnp_connected(NodeId n, double p, std::uint64_t seed);

/// Random spanning tree on n nodes (uniform-attachment construction).
[[nodiscard]] CsrGraph random_tree(NodeId n, std::uint64_t seed);

/// 2D grid graph of width x height nodes (undirected, 4-neighborhood).
[[nodiscard]] CsrGraph grid(NodeId width, NodeId height);

/// Node index ranges per layer for the layered generators: layer i occupies
/// [offsets[i], offsets[i+1]). Throws std::invalid_argument if a size is not
/// positive or the sizes sum past the NodeId range.
[[nodiscard]] std::vector<NodeId> layer_offsets(
    const std::vector<NodeId>& layer_sizes);

/// `nodes` as a NodeId. Throws std::invalid_argument naming `sizes` (what
/// the count was computed from) when it exceeds the NodeId range; a layered
/// family checks its node count, computed in 64 bits, before it allocates.
[[nodiscard]] NodeId checked_node_count(std::int64_t nodes,
                                        const std::string& sizes);

}  // namespace dualrad::gen
