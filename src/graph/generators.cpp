#include "graph/generators.hpp"

#include <limits>
#include <string>

#include "core/rng.hpp"

namespace dualrad::gen {

CsrGraph clique(NodeId n) {
  DUALRAD_REQUIRE(n >= 1, "clique needs n >= 1");
  CsrGraphBuilder g(n);
  g.reserve(static_cast<std::size_t>(n) * (n - 1));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.add_undirected_edge(u, v);
  }
  return g.freeze(RowOrder::Emission);
}

CsrGraph path(NodeId n) {
  DUALRAD_REQUIRE(n >= 1, "path needs n >= 1");
  CsrGraphBuilder g(n);
  for (NodeId u = 0; u + 1 < n; ++u) g.add_undirected_edge(u, u + 1);
  return g.freeze(RowOrder::Emission);
}

CsrGraph cycle(NodeId n) {
  DUALRAD_REQUIRE(n >= 3, "cycle needs n >= 3");
  CsrGraphBuilder g(n);
  for (NodeId u = 0; u < n; ++u) g.add_undirected_edge(u, (u + 1) % n);
  return g.freeze(RowOrder::Emission);
}

CsrGraph star(NodeId n) {
  DUALRAD_REQUIRE(n >= 2, "star needs n >= 2");
  CsrGraphBuilder g(n);
  for (NodeId u = 1; u < n; ++u) g.add_undirected_edge(0, u);
  return g.freeze(RowOrder::Emission);
}

NodeId checked_node_count(std::int64_t nodes, const std::string& sizes) {
  constexpr NodeId kMax = std::numeric_limits<NodeId>::max();
  if (nodes > kMax) {
    throw std::invalid_argument(
        "dualrad: " + sizes + " make " + std::to_string(nodes) +
        " nodes, more than a NodeId can number (" + std::to_string(kMax) +
        ")");
  }
  return static_cast<NodeId>(nodes);
}

std::vector<NodeId> layer_offsets(const std::vector<NodeId>& layer_sizes) {
  std::int64_t nodes = 0;
  for (const NodeId size : layer_sizes) {
    DUALRAD_REQUIRE(size >= 1, "layer sizes must be positive");
    nodes += size;
  }
  (void)checked_node_count(nodes,
                           std::to_string(layer_sizes.size()) + " layers");
  std::vector<NodeId> offsets(layer_sizes.size() + 1, 0);
  for (std::size_t i = 0; i < layer_sizes.size(); ++i) {
    offsets[i + 1] = offsets[i] + layer_sizes[i];
  }
  return offsets;
}

CsrGraph complete_layered(const std::vector<NodeId>& layer_sizes) {
  DUALRAD_REQUIRE(!layer_sizes.empty(), "need at least one layer");
  const auto off = layer_offsets(layer_sizes);
  CsrGraphBuilder g(off.back());
  for (std::size_t i = 0; i + 1 < off.size(); ++i) {
    // Intra-layer clique.
    for (NodeId u = off[i]; u < off[i + 1]; ++u) {
      for (NodeId v = u + 1; v < off[i + 1]; ++v) {
        g.add_undirected_edge(u, v);
      }
    }
    // Complete bipartite to the next layer.
    if (i + 2 < off.size()) {
      for (NodeId u = off[i]; u < off[i + 1]; ++u) {
        for (NodeId v = off[i + 1]; v < off[i + 2]; ++v) {
          g.add_undirected_edge(u, v);
        }
      }
    }
  }
  return g.freeze(RowOrder::Emission);
}

CsrGraph directed_layered(const std::vector<NodeId>& layer_sizes) {
  DUALRAD_REQUIRE(!layer_sizes.empty(), "need at least one layer");
  const auto off = layer_offsets(layer_sizes);
  CsrGraphBuilder g(off.back());
  for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    for (NodeId u = off[i]; u < off[i + 1]; ++u) {
      for (NodeId v = off[i + 1]; v < off[i + 2]; ++v) g.add_edge(u, v);
    }
  }
  return g.freeze(RowOrder::Emission);
}

CsrGraph random_tree(NodeId n, std::uint64_t seed) {
  DUALRAD_REQUIRE(n >= 1, "tree needs n >= 1");
  StreamRng rng(seed);
  CsrGraphBuilder g(n);
  for (NodeId u = 1; u < n; ++u) {
    const auto parent = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(u)));
    g.add_undirected_edge(parent, u);
  }
  return g.freeze(RowOrder::Emission);
}

CsrGraph gnp_connected(NodeId n, double p, std::uint64_t seed) {
  DUALRAD_REQUIRE(p >= 0.0 && p <= 1.0, "p must be a probability");
  StreamRng rng(mix_seed(seed, 0x6e70));
  const CsrGraph tree = random_tree(n, mix_seed(seed, 0x7472));
  CsrGraphBuilder g(tree);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      // Only the tree's edges are present when the pair (u, v) is visited.
      if (!tree.contains(u, v) && rng.bernoulli(p)) g.add_undirected_edge(u, v);
    }
  }
  return g.freeze(RowOrder::Emission);
}

CsrGraph grid(NodeId width, NodeId height) {
  DUALRAD_REQUIRE(width >= 1 && height >= 1, "grid needs positive dims");
  CsrGraphBuilder g(width * height);
  const auto at = [width](NodeId x, NodeId y) { return y * width + x; };
  for (NodeId y = 0; y < height; ++y) {
    for (NodeId x = 0; x < width; ++x) {
      if (x + 1 < width) g.add_undirected_edge(at(x, y), at(x + 1, y));
      if (y + 1 < height) g.add_undirected_edge(at(x, y), at(x, y + 1));
    }
  }
  return g.freeze(RowOrder::Emission);
}

}  // namespace dualrad::gen
