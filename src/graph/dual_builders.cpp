#include "graph/dual_builders.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "core/rng.hpp"
#include "graph/generators.hpp"

namespace dualrad::duals {
namespace {

bool is_power_of_two(NodeId x) { return x > 0 && (x & (x - 1)) == 0; }

/// Union-find over node ids, with path halving: the reliable components of
/// a gray zone while its edges are still being emitted. G is undirected, so
/// the nodes reachable from the source are the source's component.
class Components {
 public:
  explicit Components(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }

  [[nodiscard]] NodeId find(NodeId v) {
    while (parent_[static_cast<std::size_t>(v)] != v) {
      NodeId& p = parent_[static_cast<std::size_t>(v)];
      p = parent_[static_cast<std::size_t>(p)];
      v = p;
    }
    return v;
  }

  void unite(NodeId a, NodeId b) {
    parent_[static_cast<std::size_t>(find(a))] = find(b);
  }

 private:
  std::vector<NodeId> parent_;
};

}  // namespace

BridgeNetworkLayout bridge_layout(NodeId n) {
  DUALRAD_REQUIRE(n >= 3, "bridge network needs n >= 3");
  BridgeNetworkLayout layout;
  layout.source = 0;
  layout.bridge = 1;
  layout.receiver = n - 1;
  layout.clique_size = n - 1;
  return layout;
}

DualGraph bridge_network(NodeId n) {
  const BridgeNetworkLayout layout = bridge_layout(n);
  CsrGraphBuilder g(n);
  for (NodeId u = 0; u < layout.clique_size; ++u) {
    for (NodeId v = u + 1; v < layout.clique_size; ++v) {
      g.add_undirected_edge(u, v);
    }
  }
  g.add_undirected_edge(layout.bridge, layout.receiver);
  return DualGraph(g.freeze(RowOrder::Emission), gen::clique(n),
                   layout.source);
}

std::vector<NodeId> theorem12_layers(NodeId n) {
  DUALRAD_REQUIRE(n >= 5 && is_power_of_two(n - 1),
                  "theorem12 network needs n-1 a power of two, n-1 >= 4");
  std::vector<NodeId> layer(static_cast<std::size_t>(n), 0);
  for (NodeId v = 1; v < n; ++v) layer[static_cast<std::size_t>(v)] = (v + 1) / 2;
  return layer;
}

DualGraph theorem12_network(NodeId n) {
  const auto layer = theorem12_layers(n);
  CsrGraphBuilder g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const NodeId lu = layer[static_cast<std::size_t>(u)];
      const NodeId lv = layer[static_cast<std::size_t>(v)];
      if (lu == lv || lu + 1 == lv || lv + 1 == lu) g.add_undirected_edge(u, v);
    }
  }
  return DualGraph(g.freeze(RowOrder::Emission), gen::clique(n),
                   /*source=*/0);
}

DualGraph layered_complete_gprime(NodeId num_layers, NodeId width) {
  DUALRAD_REQUIRE(num_layers >= 1 && width >= 1, "bad layered params");
  const NodeId n = gen::checked_node_count(
      1 + std::int64_t{num_layers - 1} * width,
      "layered_complete_gprime: " + std::to_string(num_layers) +
          " layers of width " + std::to_string(width));
  std::vector<NodeId> sizes(static_cast<std::size_t>(num_layers), width);
  sizes[0] = 1;  // single source layer
  return DualGraph(gen::complete_layered(sizes), gen::clique(n),
                   /*source=*/0);
}

DualGraph gray_zone(const GrayZoneParams& params) {
  DUALRAD_REQUIRE(params.n >= 2, "gray zone needs n >= 2");
  DUALRAD_REQUIRE(params.r_reliable > 0 && params.r_gray >= params.r_reliable,
                  "need 0 < r_reliable <= r_gray");
  StreamRng rng(mix_seed(params.seed, 0x6772617A));
  const auto n = static_cast<std::size_t>(params.n);
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  const auto dist2 = [&](std::size_t a, std::size_t b) {
    const double dx = x[a] - x[b], dy = y[a] - y[b];
    return dx * dx + dy * dy;
  };
  CsrGraphBuilder g(params.n);
  CsrGraphBuilder gp(params.n);
  Components reliable(n);
  const double rr2 = params.r_reliable * params.r_reliable;
  const double rg2 = params.r_gray * params.r_gray;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double d2 = dist2(a, b);
      if (d2 <= rr2) {
        g.add_undirected_edge(static_cast<NodeId>(a), static_cast<NodeId>(b));
        gp.add_undirected_edge(static_cast<NodeId>(a), static_cast<NodeId>(b));
        reliable.unite(static_cast<NodeId>(a), static_cast<NodeId>(b));
      } else if (d2 <= rg2) {
        gp.add_undirected_edge(static_cast<NodeId>(a), static_cast<NodeId>(b));
      }
    }
  }
  // Wire stranded nodes into the source component along nearest-neighbor
  // links so G satisfies the model's reachability assumption: each wire
  // joins the nearest (uncovered, covered) pair, the first in node order on
  // ties.
  for (;;) {
    const NodeId source_root = reliable.find(0);
    const auto covered = [&](std::size_t v) {
      return reliable.find(static_cast<NodeId>(v)) == source_root;
    };
    std::size_t best_u = n, best_v = n;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < n; ++u) {
      if (covered(u)) continue;
      for (std::size_t v = 0; v < n; ++v) {
        if (!covered(v)) continue;
        if (const double d2 = dist2(u, v); d2 < best) {
          best = d2;
          best_u = u;
          best_v = v;
        }
      }
    }
    if (best_u == n) break;  // all reachable
    const auto u = static_cast<NodeId>(best_u);
    const auto v = static_cast<NodeId>(best_v);
    g.add_undirected_edge(u, v);
    // A wire along a gray edge repeats it, and the freeze keeps the gray
    // edge's place in the rows.
    gp.add_undirected_edge(u, v);
    reliable.unite(u, v);
  }
  return DualGraph(g.freeze(RowOrder::Emission),
                   gp.freeze(RowOrder::Emission), /*source=*/0);
}

DualGraph backbone_plus_unreliable(const BackboneParams& params) {
  DUALRAD_REQUIRE(params.n >= 2, "backbone needs n >= 2");
  CsrGraph g = gen::gnp_connected(params.n, params.p_reliable,
                                  mix_seed(params.seed, 0x62616B));
  // G' starts from G's rows; each pair is visited once, so only G's edges
  // are present when it is.
  CsrGraphBuilder gp(g);
  StreamRng rng(mix_seed(params.seed, 0x756E72));
  for (NodeId u = 0; u < params.n; ++u) {
    for (NodeId v = u + 1; v < params.n; ++v) {
      if (!g.contains(u, v) && rng.bernoulli(params.p_unreliable)) {
        gp.add_undirected_edge(u, v);
      }
    }
  }
  return DualGraph(std::move(g), gp.freeze(RowOrder::Emission),
                   /*source=*/0);
}

DualGraph strip_unreliable(const DualGraph& net) {
  return DualGraph(net.g_csr(), net.g_csr(), net.source());
}

DualGraph layered_sparse(const LayeredSparseParams& params) {
  DUALRAD_REQUIRE(params.layers >= 1 && params.width >= 1,
                  "layered_sparse needs layers >= 1, width >= 1");
  DUALRAD_REQUIRE(params.fwd_degree >= 1, "layered_sparse needs fwd_degree >= 1");
  DUALRAD_REQUIRE(params.unreliable_degree >= 0,
                  "layered_sparse needs unreliable_degree >= 0");
  const NodeId n = gen::checked_node_count(
      1 + std::int64_t{params.layers} * params.width,
      "layered_sparse: the source and " + std::to_string(params.layers) +
          " layers of width " + std::to_string(params.width));
  StreamRng rng(mix_seed(params.seed, 0x6C737270));
  // A 10^6-node instance peaks at ~12 bytes per emitted edge (the packed
  // edges plus their scattered targets at freeze). Repeated draws of the
  // same parent (and skip links duplicating either direction) collapse in
  // the builders' deduplicating freeze.
  CsrGraphBuilder g(n);
  CsrGraphBuilder gp(n);
  const std::size_t reliable_emitted =
      2 * static_cast<std::size_t>(params.layers) * params.width *
      params.fwd_degree;
  g.reserve(reliable_emitted);
  gp.reserve(reliable_emitted + 2 * static_cast<std::size_t>(params.layers) *
                                    params.width * params.unreliable_degree);
  // layer_begin(i): first node id of layer i; layer 0 is the source alone.
  const auto layer_begin = [&](NodeId i) {
    return i == 0 ? NodeId{0} : 1 + (i - 1) * params.width;
  };
  const auto layer_size = [&](NodeId i) {
    return i == 0 ? NodeId{1} : params.width;
  };
  for (NodeId layer = 1; layer <= params.layers; ++layer) {
    const NodeId prev_begin = layer_begin(layer - 1);
    const NodeId prev_size = layer_size(layer - 1);
    for (NodeId j = 0; j < params.width; ++j) {
      const NodeId v = layer_begin(layer) + j;
      for (NodeId d = 0; d < params.fwd_degree; ++d) {
        const NodeId u = prev_begin + static_cast<NodeId>(rng.below(
                             static_cast<std::uint64_t>(prev_size)));
        g.add_undirected_edge(u, v);
        gp.add_undirected_edge(u, v);
      }
    }
  }
  for (NodeId layer = 2; layer <= params.layers; ++layer) {
    const NodeId skip_begin = layer_begin(layer - 2);
    const NodeId skip_size = layer_size(layer - 2);
    for (NodeId j = 0; j < params.width; ++j) {
      const NodeId v = layer_begin(layer) + j;
      for (NodeId d = 0; d < params.unreliable_degree; ++d) {
        const NodeId u = skip_begin + static_cast<NodeId>(rng.below(
                             static_cast<std::uint64_t>(skip_size)));
        gp.add_undirected_edge(u, v);
      }
    }
  }
  return DualGraph(g.freeze(RowOrder::Ascending),
                   gp.freeze(RowOrder::Ascending), /*source=*/0);
}

DualGraph gray_zone_grid(const GrayZoneGridParams& params) {
  DUALRAD_REQUIRE(params.n >= 2, "gray_zone_grid needs n >= 2");
  DUALRAD_REQUIRE(params.mean_degree > 0, "mean_degree must be positive");
  DUALRAD_REQUIRE(params.gray_factor >= 1.0, "gray_factor must be >= 1");
  const auto n = static_cast<std::size_t>(params.n);
  const double pi = 3.14159265358979323846;
  const double r_rel =
      std::sqrt(params.mean_degree / (pi * static_cast<double>(params.n)));
  const double r_gray = std::min(params.gray_factor * r_rel, 1.0);

  StreamRng rng(mix_seed(params.seed, 0x67726964));
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  const auto dist2 = [&](std::size_t a, std::size_t b) {
    const double dx = x[a] - x[b], dy = y[a] - y[b];
    return dx * dx + dy * dy;
  };

  // Spatial hash: cells of side r_gray, so all neighbors of a node live in
  // its 3x3 cell block. Cell occupants are listed in ascending node id.
  const auto cells =
      std::max<std::size_t>(1, static_cast<std::size_t>(1.0 / r_gray));
  const double cell_size = 1.0 / static_cast<double>(cells);
  const auto cell_of = [&](double coord) {
    return std::min(cells - 1,
                    static_cast<std::size_t>(coord / cell_size));
  };
  std::vector<std::vector<NodeId>> grid(cells * cells);
  for (std::size_t i = 0; i < n; ++i) {
    grid[cell_of(y[i]) * cells + cell_of(x[i])].push_back(
        static_cast<NodeId>(i));
  }

  // Reliable connectivity for the stranded-node wiring is tracked in a
  // union-find, since the builders expose no adjacency until freeze.
  CsrGraphBuilder g(params.n);
  CsrGraphBuilder gp(params.n);
  Components reliable(n);
  const double rr2 = r_rel * r_rel;
  const double rg2 = r_gray * r_gray;
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t cx = cell_of(x[a]), cy = cell_of(y[a]);
    for (std::size_t gy = cy == 0 ? 0 : cy - 1;
         gy <= std::min(cells - 1, cy + 1); ++gy) {
      for (std::size_t gx = cx == 0 ? 0 : cx - 1;
           gx <= std::min(cells - 1, cx + 1); ++gx) {
        for (const NodeId bv : grid[gy * cells + gx]) {
          const auto b = static_cast<std::size_t>(bv);
          if (b <= a) continue;  // each pair once, smaller id first
          const double d2 = dist2(a, b);
          if (d2 <= rr2) {
            g.add_undirected_edge(static_cast<NodeId>(a), bv);
            gp.add_undirected_edge(static_cast<NodeId>(a), bv);
            reliable.unite(static_cast<NodeId>(a), bv);
          } else if (d2 <= rg2) {
            gp.add_undirected_edge(static_cast<NodeId>(a), bv);
          }
        }
      }
    }
  }

  // Wire stranded nodes into the source component along nearest-neighbor
  // links (expanding ring search over the grid), modeling the link-quality
  // floor like gray_zone. "Covered" = reliably connected to node 0, which
  // the union-find answers directly; wiring a node unions its whole
  // component in, so each component costs one extra edge.
  const auto covered = [&](NodeId w) {
    return reliable.find(w) == reliable.find(0);
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (covered(static_cast<NodeId>(v))) continue;
    // Nearest covered node: scan grid rings outward until the closest
    // possible cell of the next ring — (ring - 1) cells away — is already
    // farther than the best hit, which guarantees the true nearest was
    // seen. Ties break toward the smaller node id (deterministic).
    const std::size_t cx = cell_of(x[v]), cy = cell_of(y[v]);
    NodeId best = kInvalidNode;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t ring = 0; ring < cells; ++ring) {
      if (best != kInvalidNode && ring >= 2) {
        const double ring_min = static_cast<double>(ring - 1) * cell_size;
        if (ring_min * ring_min > best_d2) break;
      }
      const auto visit = [&](std::size_t gx, std::size_t gy) {
        for (const NodeId wv : grid[gy * cells + gx]) {
          if (!covered(wv)) continue;
          const double d2 = dist2(v, static_cast<std::size_t>(wv));
          if (d2 < best_d2 || (d2 == best_d2 && wv < best)) {
            best_d2 = d2;
            best = wv;
          }
        }
      };
      const std::size_t lo_x = cx >= ring ? cx - ring : 0;
      const std::size_t hi_x = std::min(cells - 1, cx + ring);
      const std::size_t lo_y = cy >= ring ? cy - ring : 0;
      const std::size_t hi_y = std::min(cells - 1, cy + ring);
      for (std::size_t gy = lo_y; gy <= hi_y; ++gy) {
        for (std::size_t gx = lo_x; gx <= hi_x; ++gx) {
          // Ring cells only: skip the interior already visited.
          if (ring > 0 && gx != lo_x && gx != hi_x && gy != lo_y &&
              gy != hi_y) {
            continue;
          }
          visit(gx, gy);
        }
      }
    }
    DUALRAD_CHECK(best != kInvalidNode, "no covered node found for wiring");
    g.add_undirected_edge(static_cast<NodeId>(v), best);
    // The wire may duplicate an existing gray edge; the freeze dedups.
    gp.add_undirected_edge(static_cast<NodeId>(v), best);
    reliable.unite(static_cast<NodeId>(v), best);
  }
  return DualGraph(g.freeze(RowOrder::Ascending),
                   gp.freeze(RowOrder::Ascending), /*source=*/0);
}

}  // namespace dualrad::duals
