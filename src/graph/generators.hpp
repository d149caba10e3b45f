#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

/// \file generators.hpp
/// Plain-graph generators (single graphs; dual graph families live in
/// dual_builders.hpp). All generators produce nodes {0, ..., n-1}.

namespace dualrad::gen {

/// Complete undirected graph on n nodes.
[[nodiscard]] Graph clique(NodeId n);

/// Undirected path 0 - 1 - ... - n-1.
[[nodiscard]] Graph path(NodeId n);

/// Undirected cycle.
[[nodiscard]] Graph cycle(NodeId n);

/// Undirected star centered at node 0.
[[nodiscard]] Graph star(NodeId n);

/// Complete layered undirected graph: nodes grouped into consecutive layers
/// of the given sizes; all intra-layer edges and all edges between adjacent
/// layers are present. (The reliable graph of the Theorem 12 construction is
/// of this form.)
[[nodiscard]] Graph complete_layered(const std::vector<NodeId>& layer_sizes);

/// Directed complete layered graph: every node of layer i has edges to every
/// node of layer i+1 (forward only, no intra-layer edges).
[[nodiscard]] Graph directed_layered(const std::vector<NodeId>& layer_sizes);

/// Erdos-Renyi G(n, p) undirected, made connected by first adding a random
/// spanning tree (uniform attachment).
[[nodiscard]] Graph gnp_connected(NodeId n, double p, std::uint64_t seed);

/// Random spanning tree on n nodes (uniform-attachment construction).
[[nodiscard]] Graph random_tree(NodeId n, std::uint64_t seed);

/// 2D grid graph of width x height nodes (undirected, 4-neighborhood).
[[nodiscard]] Graph grid(NodeId width, NodeId height);

/// Node index ranges per layer for the layered generators: layer i occupies
/// [offsets[i], offsets[i+1]).
[[nodiscard]] std::vector<NodeId> layer_offsets(
    const std::vector<NodeId>& layer_sizes);

}  // namespace dualrad::gen
