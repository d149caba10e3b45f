#include "lowerbound/theorem11_network.hpp"

#include <cmath>
#include <vector>

#include "graph/generators.hpp"

namespace dualrad::lowerbound {

Theorem11Layout theorem11_layout(NodeId n) {
  DUALRAD_REQUIRE(n >= 5, "theorem 11 network needs n >= 5");
  Theorem11Layout layout;
  layout.width = std::max<NodeId>(
      2, static_cast<NodeId>(std::lround(std::sqrt(static_cast<double>(n)))));
  layout.num_layers = std::max<NodeId>(2, (n - 1) / layout.width);
  return layout;
}

DualGraph theorem11_network(NodeId n) {
  const Theorem11Layout layout = theorem11_layout(n);
  std::vector<NodeId> sizes;
  sizes.push_back(1);  // source layer
  NodeId remaining = n - 1;
  for (NodeId i = 0; i < layout.num_layers; ++i) {
    const NodeId size = (i + 1 == layout.num_layers)
                            ? remaining
                            : std::min(layout.width, remaining);
    if (size <= 0) break;
    sizes.push_back(size);
    remaining -= size;
  }
  // G': all forward links between distinct layers.
  const auto off = gen::layer_offsets(sizes);
  CsrGraphBuilder gp(off.back());
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    for (std::size_t j = i + 1; j < sizes.size(); ++j) {
      for (NodeId u = off[i]; u < off[i + 1]; ++u) {
        for (NodeId v = off[j]; v < off[j + 1]; ++v) gp.add_edge(u, v);
      }
    }
  }
  return DualGraph(gen::directed_layered(sizes), gp.freeze(RowOrder::Emission),
                   /*source=*/0);
}

}  // namespace dualrad::lowerbound
