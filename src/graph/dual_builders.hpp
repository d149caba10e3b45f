#pragma once

#include <cstdint>
#include <vector>

#include "graph/dual_graph.hpp"

/// \file dual_builders.hpp
/// Dual graph network families. These include the exact constructions used in
/// the paper's lower-bound proofs (Theorems 2/4 and 12) and "realistic"
/// families (gray-zone geometric networks, reliable backbone plus unreliable
/// extras) used by the upper-bound scaling experiments.
///
/// Every family emits G and G' into CsrGraphBuilders. The two scale
/// families (layered_sparse, gray_zone_grid) freeze them with
/// RowOrder::Ascending; every other family freezes with RowOrder::Emission,
/// so its rows list targets in the order it adds its edges, which fixes its
/// executions.

namespace dualrad::duals {

/// Roles of the distinguished nodes in the Theorem 2 bridge network.
struct BridgeNetworkLayout {
  NodeId source = 0;       ///< in the clique
  NodeId bridge = 1;       ///< in the clique; only clique node adjacent to r
  NodeId receiver = 0;     ///< the node outside the clique (set to n-1)
  NodeId clique_size = 0;  ///< n-1
};

/// The 2-broadcastable network of Theorem 2 (and Theorem 4): G is an
/// (n-1)-node clique {0..n-2} containing the source (node 0) and a bridge
/// (node 1), plus a receiver node n-1 attached only to the bridge; G' is the
/// complete graph. Requires n >= 3.
[[nodiscard]] DualGraph bridge_network(NodeId n);
[[nodiscard]] BridgeNetworkLayout bridge_layout(NodeId n);

/// The Theorem 12 lower-bound network: V = {0..n-1}, layers L_0 = {0},
/// L_k = {2k-1, 2k}; G is the complete layered graph over those layers and
/// G' is the complete graph. Requires n-1 a power of two, n-1 >= 4.
[[nodiscard]] DualGraph theorem12_network(NodeId n);

/// Layer index of each node in theorem12_network(n).
[[nodiscard]] std::vector<NodeId> theorem12_layers(NodeId n);

/// Generic undirected layered dual network: G = complete layered graph with
/// `num_layers` layers, layer 0 the single source and the others `width`
/// nodes each; G' = complete graph. A clean testbed for
/// progress-through-layers behavior. Throws std::invalid_argument, before
/// allocating, if the node count exceeds the NodeId range.
[[nodiscard]] DualGraph layered_complete_gprime(NodeId num_layers, NodeId width);

/// "Gray zone" geometric network (motivated by [24] in the paper): n nodes
/// uniform in the unit square; reliable edges below distance r_reliable,
/// unreliable edges between r_reliable and r_gray. If G is disconnected from
/// the source, each stranded node is wired (reliably) to its nearest node in
/// the covered component, modeling the link-quality floor. Undirected.
struct GrayZoneParams {
  NodeId n = 64;
  double r_reliable = 0.18;
  double r_gray = 0.45;
  std::uint64_t seed = 1;
};
[[nodiscard]] DualGraph gray_zone(const GrayZoneParams& params);

/// Reliable random backbone (spanning tree + G(n,p) extras) with additional
/// unreliable random edges. Undirected.
struct BackboneParams {
  NodeId n = 64;
  double p_reliable = 0.0;    ///< density of extra reliable edges
  double p_unreliable = 0.2;  ///< density of unreliable edges
  std::uint64_t seed = 1;
};
[[nodiscard]] DualGraph backbone_plus_unreliable(const BackboneParams& params);

/// Classical-model counterpart used as baseline workload: G == G' == the
/// reliable part of `net`.
[[nodiscard]] DualGraph strip_unreliable(const DualGraph& net);

/// Sparse random layered dual network for large-n workloads (the
/// scale-layered spec family and its scale/* builtins). n = 1 + layers *
/// width nodes: a single source in layer 0, then `layers` layers of `width`
/// nodes. Each node of layer i >= 1 draws `fwd_degree` random parents in
/// layer i-1 (reliable, undirected); each node of layer i >= 2 additionally
/// draws `unreliable_degree` random contacts in layer i-2 (G'-only,
/// undirected) — long "skip" links that exist but cannot be relied upon.
/// Degrees stay
/// O(fwd_degree + unreliable_degree) regardless of n, so 10^6-node networks
/// fit comfortably in memory, unlike the complete-G' layered family.
/// Adjacency rows are ascending. Throws std::invalid_argument, before
/// allocating, if 1 + layers * width exceeds the NodeId range.
struct LayeredSparseParams {
  NodeId layers = 100;
  NodeId width = 32;
  NodeId fwd_degree = 3;
  NodeId unreliable_degree = 2;
  std::uint64_t seed = 1;
};
[[nodiscard]] DualGraph layered_sparse(const LayeredSparseParams& params);

/// Grid-bucketed gray-zone geometric network: the same model as gray_zone
/// (uniform points; reliable edges below r_reliable, unreliable in the
/// (r_reliable, r_gray] ring; stranded nodes wired to their nearest covered
/// node) but with radii scaled so the expected reliable degree is
/// `mean_degree`, O(n)-expected construction via spatial hashing, and a
/// nearest-covered-node search over the grid — usable at n = 10^6 where the
/// all-pairs gray_zone builder is not. Adjacency rows are ascending.
struct GrayZoneGridParams {
  NodeId n = 1000;
  /// Expected reliable degree; r_reliable = sqrt(mean_degree / (pi n)).
  double mean_degree = 12.0;
  /// r_gray = gray_factor * r_reliable.
  double gray_factor = 1.5;
  std::uint64_t seed = 1;
};
[[nodiscard]] DualGraph gray_zone_grid(const GrayZoneGridParams& params);

}  // namespace dualrad::duals
