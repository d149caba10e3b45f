#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "campaign/builtin_scenarios.hpp"
#include "core/rng.hpp"
#include "graph/algorithms.hpp"
#include "graph/dual_builders.hpp"
#include "graph/dual_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace dualrad {
namespace {

/// Same vertex count and identical rows, in order.
bool same_rows(const CsrGraph& a, const CsrGraph& b) {
  if (a.node_count() != b.node_count()) return false;
  for (NodeId u = 0; u < a.node_count(); ++u) {
    const auto ra = a.row(u);
    const auto rb = b.row(u);
    if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) return false;
  }
  return true;
}

TEST(Graph, EmptyGraphHasNoEdges) {
  Graph g(5);
  EXPECT_EQ(g.node_count(), 5);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, AddEdgeIsDirected) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_FALSE(CsrGraph(g).is_symmetric());
}

TEST(Graph, AddUndirectedEdgeAddsBoth) {
  Graph g(3);
  g.add_undirected_edge(1, 2);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_TRUE(CsrGraph(g).is_symmetric());
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdge) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 1), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRange) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(g.add_edge(-1, 0), std::invalid_argument);
}

TEST(Graph, SubgraphDetection) {
  Graph small(4), big(4);
  small.add_edge(0, 1);
  big.add_edge(0, 1);
  big.add_edge(1, 2);
  EXPECT_TRUE(CsrGraph(small).is_subgraph_of(CsrGraph(big)));
  EXPECT_FALSE(CsrGraph(big).is_subgraph_of(CsrGraph(small)));
}

TEST(Graph, MaxDegrees) {
  const CsrGraph g(gen::star(5));
  EXPECT_EQ(g.max_out_degree(), 4u);
  EXPECT_EQ(g.max_in_degree(), 4u);
}

TEST(CsrGraph, SnapshotPreservesInsertionOrder) {
  Graph g(5);
  g.add_edge(0, 3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 4);
  const CsrGraph csr(g);
  EXPECT_EQ(csr.node_count(), 5);
  EXPECT_EQ(csr.edge_count(), 4u);
  // Rows must mirror Graph::out_neighbors exactly — the engines deliver in
  // row order, so a network's executions depend on it.
  for (NodeId u = 0; u < 5; ++u) {
    const auto row = csr.row(u);
    ASSERT_EQ(row.size(), g.out_neighbors(u).size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i], g.out_neighbors(u)[i]);
    }
    EXPECT_EQ(csr.out_degree(u), g.out_degree(u));
  }
}

TEST(CsrGraph, ContainsMatchesHasEdge) {
  const Graph g = gen::gnp_connected(40, 0.15, 3);
  const CsrGraph csr(g);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(csr.contains(u, v), g.has_edge(u, v)) << u << "->" << v;
    }
  }
  EXPECT_FALSE(csr.contains(-1, 0));
  EXPECT_FALSE(csr.contains(0, 40));
}

// A Graph snapshot allocates the sorted copy behind contains() only when
// some row is out of order; contains() answers the same either way.
TEST(CsrGraph, GraphSnapshotIndexesOnlyUnsortedRows) {
  EXPECT_TRUE(CsrGraph(gen::clique(5)).rows_sorted());
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(3, 0);
  g.add_edge(3, 2);
  const CsrGraph csr(g);
  EXPECT_FALSE(csr.rows_sorted());
  EXPECT_EQ(csr.row(3)[0], 4);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(csr.contains(u, v), g.has_edge(u, v)) << u << "->" << v;
    }
  }
}

TEST(CsrGraph, EmptyAndIsolatedNodes) {
  const CsrGraph empty{};
  EXPECT_EQ(empty.node_count(), 0);
  Graph g(3);  // no edges at all
  const CsrGraph csr(g);
  EXPECT_EQ(csr.edge_count(), 0u);
  EXPECT_TRUE(csr.row(1).empty());
  EXPECT_FALSE(csr.contains(0, 1));
}

TEST(ScaleFamilies, LayeredSparseIsValidAndBoundedDegree) {
  const duals::LayeredSparseParams params{
      .layers = 20, .width = 10, .fwd_degree = 3, .unreliable_degree = 2,
      .seed = 7};
  // DualGraph construction validates E subset of E' and source reachability.
  const DualGraph net = duals::layered_sparse(params);
  EXPECT_EQ(net.node_count(), 201);
  EXPECT_TRUE(net.is_undirected());
  // Degrees stay O(fwd + unreliable) regardless of n: each node draws at
  // most 3 parents, receives expected 3 child links, and 2+2 skip links.
  EXPECT_LE(net.g_prime_csr().max_in_degree(), 60u);
  EXPECT_GT(net.unreliable_edge_count(), 0u);
  // Deterministic: same params, same network.
  EXPECT_TRUE(same_rows(net.g_csr(), duals::layered_sparse(params).g_csr()));
}

TEST(ScaleFamilies, GrayZoneGridIsValidAndDeterministic) {
  const duals::GrayZoneGridParams params{.n = 300, .mean_degree = 9.0,
                                         .seed = 13};
  const DualGraph net = duals::gray_zone_grid(params);
  EXPECT_EQ(net.node_count(), 300);
  EXPECT_TRUE(net.is_undirected());
  EXPECT_GT(net.unreliable_edge_count(), 0u);
  EXPECT_TRUE(
      same_rows(net.g_csr(), duals::gray_zone_grid(params).g_csr()));
  // Every node reachable (the constructor asserts it; double-check here).
  const auto d = graphalg::bfs_distances(net.g_csr(), 0);
  for (Round dist : d) EXPECT_NE(dist, kNever);
}

TEST(GraphAlg, BfsDistancesOnPath) {
  const CsrGraph g(gen::path(5));
  const auto d = graphalg::bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[static_cast<std::size_t>(v)], v);
}

TEST(GraphAlg, UnreachableIsNever) {
  Graph g(3);
  g.add_edge(0, 1);
  const CsrGraph csr(g);
  const auto d = graphalg::bfs_distances(csr, 0);
  EXPECT_EQ(d[2], kNever);
  EXPECT_FALSE(graphalg::all_reachable(csr, 0));
}

TEST(GraphAlg, DiameterOfCycle) {
  EXPECT_EQ(graphalg::diameter(CsrGraph(gen::cycle(6))), 3);
  EXPECT_EQ(graphalg::diameter(CsrGraph(gen::clique(6))), 1);
}

TEST(GraphAlg, EccentricityOfStarCenter) {
  const CsrGraph star(gen::star(9));
  EXPECT_EQ(graphalg::eccentricity(star, 0), 1);
  EXPECT_EQ(graphalg::eccentricity(star, 3), 2);
}

TEST(GraphAlg, WeaklyConnected) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(graphalg::weakly_connected(CsrGraph(g)));
  g.add_edge(2, 1);
  EXPECT_TRUE(graphalg::weakly_connected(CsrGraph(g)));
}

TEST(Generators, CliqueEdgeCount) {
  const Graph g = gen::clique(7);
  EXPECT_EQ(g.edge_count(), 7u * 6u);  // directed count
  EXPECT_TRUE(CsrGraph(g).is_symmetric());
}

TEST(Generators, GridShape) {
  const CsrGraph g(gen::grid(3, 4));
  EXPECT_EQ(g.node_count(), 12);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_EQ(graphalg::diameter(g), 2 + 3);
}

TEST(Generators, RandomTreeIsConnectedAndAcyclic) {
  const Graph g = gen::random_tree(40, 7);
  EXPECT_TRUE(graphalg::all_reachable(CsrGraph(g), 0));
  EXPECT_EQ(g.edge_count(), 2u * 39u);
}

TEST(Generators, GnpConnected) {
  for (std::uint64_t seed : {1, 2, 3}) {
    const CsrGraph g(gen::gnp_connected(30, 0.05, seed));
    EXPECT_TRUE(graphalg::all_reachable(g, 0));
  }
}

TEST(Generators, CompleteLayeredStructure) {
  const Graph g = gen::complete_layered({1, 2, 2});
  // node 0 - layer 0; nodes 1,2 - layer 1; nodes 3,4 - layer 2.
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));   // intra-layer
  EXPECT_TRUE(g.has_edge(2, 4));   // adjacent layers
  EXPECT_FALSE(g.has_edge(0, 3));  // non-adjacent layers
}

TEST(Generators, DirectedLayeredIsForwardOnly) {
  const Graph g = gen::directed_layered({1, 2, 2});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(1, 2));  // no intra-layer edges
}

TEST(DualGraph, ValidatesSubsetAndReachability) {
  Graph g(3), gp(3);
  g.add_undirected_edge(0, 1);
  gp.add_undirected_edge(0, 1);
  gp.add_undirected_edge(1, 2);
  // node 2 unreachable in G:
  EXPECT_THROW(DualGraph(g, gp, 0), std::invalid_argument);
  g.add_undirected_edge(1, 2);
  gp.add_undirected_edge(0, 2);
  const DualGraph net(g, gp, 0);
  EXPECT_EQ(net.node_count(), 3);
  EXPECT_FALSE(net.is_classical());
  EXPECT_TRUE(net.is_undirected());
}

TEST(DualGraph, RejectsEdgeNotInGPrime) {
  Graph g(3), gp(3);
  g.add_undirected_edge(0, 1);
  g.add_undirected_edge(1, 2);
  gp.add_undirected_edge(0, 1);
  EXPECT_THROW(DualGraph(g, gp, 0), std::invalid_argument);
}

TEST(DualGraph, RejectsMismatchedVertexSetsBadSourceAndSingleNode) {
  EXPECT_THROW(DualGraph(gen::path(3), gen::path(4), 0),
               std::invalid_argument);
  EXPECT_THROW(DualGraph(gen::path(3), gen::path(3), 3),
               std::invalid_argument);
  EXPECT_THROW(DualGraph(gen::path(3), gen::path(3), -1),
               std::invalid_argument);
  // The model fixes n >= 2.
  EXPECT_THROW(DualGraph(Graph(1), Graph(1), 0), std::invalid_argument);
}

TEST(DualGraph, UnreliableOutIsGPrimeMinusG) {
  const DualGraph net = duals::bridge_network(6);
  const auto layout = duals::bridge_layout(6);
  // A clique node (not bridge) has exactly one unreliable target: receiver.
  const auto& extra = net.unreliable_out(2);
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra.front(), layout.receiver);
  EXPECT_TRUE(net.unreliable_out(layout.bridge).empty());
}

TEST(DualGraph, ClassicalHasNoUnreliableEdges) {
  const DualGraph net = make_classical(gen::clique(5), 0);
  EXPECT_TRUE(net.is_classical());
  EXPECT_EQ(net.unreliable_edge_count(), 0u);
}

TEST(DualBuilders, BridgeNetworkIs2Broadcastable) {
  const DualGraph net = duals::bridge_network(8);
  const auto layout = duals::bridge_layout(8);
  // Source can reach everyone within 2 hops in G via the bridge.
  const auto d = graphalg::bfs_distances(net.g_csr(), net.source());
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_LE(d[static_cast<std::size_t>(v)], 2);
  }
  EXPECT_EQ(d[static_cast<std::size_t>(layout.receiver)], 2);
}

TEST(DualBuilders, Theorem12NetworkLayers) {
  const NodeId n = 17;  // n-1 = 16
  const DualGraph net = duals::theorem12_network(n);
  const auto layer = duals::theorem12_layers(n);
  EXPECT_EQ(layer[0], 0);
  EXPECT_EQ(layer[1], 1);
  EXPECT_EQ(layer[2], 1);
  EXPECT_EQ(layer[3], 2);
  // Edges: same layer or adjacent layers only in G.
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) continue;
      const auto lu = layer[static_cast<std::size_t>(u)];
      const auto lv = layer[static_cast<std::size_t>(v)];
      EXPECT_EQ(net.g_csr().contains(u, v), std::abs(lu - lv) <= 1)
          << u << " " << v;
      EXPECT_TRUE(net.g_prime_csr().contains(u, v));
    }
  }
}

TEST(DualBuilders, Theorem12RequiresPowerOfTwo) {
  EXPECT_THROW(duals::theorem12_network(12), std::invalid_argument);
}

TEST(DualBuilders, GrayZoneIsValidDual) {
  for (std::uint64_t seed : {1, 5, 9}) {
    duals::GrayZoneParams params;
    params.n = 40;
    params.seed = seed;
    const DualGraph net = duals::gray_zone(params);
    EXPECT_TRUE(net.g_csr().is_subgraph_of(net.g_prime_csr()));
    EXPECT_TRUE(graphalg::all_reachable(net.g_csr(), net.source()));
    EXPECT_TRUE(net.is_undirected());
  }
}

TEST(DualBuilders, BackbonePlusUnreliable) {
  duals::BackboneParams params;
  params.n = 50;
  params.p_unreliable = 0.3;
  params.seed = 11;
  const DualGraph net = duals::backbone_plus_unreliable(params);
  EXPECT_TRUE(graphalg::all_reachable(net.g_csr(), 0));
  EXPECT_GT(net.unreliable_edge_count(), 0u);
}

TEST(DualBuilders, StripUnreliableGivesClassical) {
  const DualGraph net = duals::bridge_network(10);
  const DualGraph classical = duals::strip_unreliable(net);
  EXPECT_TRUE(classical.is_classical());
  EXPECT_EQ(classical.g_csr().edge_count(), net.g_csr().edge_count());
}

TEST(DualBuilders, LayeredCompleteGPrime) {
  const DualGraph net = duals::layered_complete_gprime(4, 3);
  EXPECT_EQ(net.node_count(), 1 + 3 * 3);
  EXPECT_TRUE(graphalg::all_reachable(net.g_csr(), 0));
  EXPECT_FALSE(net.is_classical());
}

// ------------------------------------------------------- CsrGraphBuilder

TEST(CsrGraphBuilder, DedupsAndSortsRows) {
  CsrGraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 1);
  b.add_edge(2, 4);  // duplicate collapses at freeze
  b.add_undirected_edge(0, 3);
  b.add_undirected_edge(0, 3);  // both directions duplicated
  const CsrGraph csr = b.freeze();
  EXPECT_EQ(csr.edge_count(), 4u);
  EXPECT_TRUE(csr.rows_sorted());
  ASSERT_EQ(csr.out_degree(2), 2u);
  EXPECT_EQ(csr.row(2)[0], 1);
  EXPECT_EQ(csr.row(2)[1], 4);
  EXPECT_TRUE(csr.contains(2, 4));
  EXPECT_TRUE(csr.contains(0, 3));
  EXPECT_TRUE(csr.contains(3, 0));
  EXPECT_FALSE(csr.contains(4, 2));
  EXPECT_FALSE(csr.contains(2, 2));
  EXPECT_FALSE(csr.contains(-1, 2));
  EXPECT_EQ(b.emitted(), 0u) << "freeze leaves the builder empty";
}

TEST(CsrGraphBuilder, RejectsSelfLoopsAndOutOfRange) {
  CsrGraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(-1, 0), std::invalid_argument);
}

TEST(CsrGraphBuilder, MatchesGraphFrozenSnapshotUpToRowOrder) {
  // The same edges emitted into both builders must give the same edge
  // sets; builder rows are the sorted version of the Graph rows.
  const Graph g = gen::complete_layered({1, 3, 2});
  const CsrGraph from_graph(g);
  CsrGraphBuilder b(g.node_count());
  for (const auto& [u, v] : g.edges()) b.add_edge(u, v);
  const CsrGraph streamed = b.freeze();
  ASSERT_EQ(streamed.node_count(), from_graph.node_count());
  ASSERT_EQ(streamed.edge_count(), from_graph.edge_count());
  for (NodeId u = 0; u < streamed.node_count(); ++u) {
    auto row = from_graph.row(u);
    std::vector<NodeId> sorted(row.begin(), row.end());
    std::sort(sorted.begin(), sorted.end());
    const auto srow = streamed.row(u);
    EXPECT_TRUE(std::equal(srow.begin(), srow.end(), sorted.begin(),
                           sorted.end()))
        << "row " << u;
  }
}

TEST(CsrGraphBuilder, BacksCsrConstructedDualGraph) {
  // A DualGraph built straight from frozen CSRs: validation, unreliable
  // adjacency, and the snapshots must all agree with the Graph path.
  CsrGraphBuilder gb(4);
  gb.add_undirected_edge(0, 1);
  gb.add_undirected_edge(1, 2);
  gb.add_undirected_edge(2, 3);
  CsrGraphBuilder gpb(4);
  gpb.add_undirected_edge(0, 1);
  gpb.add_undirected_edge(1, 2);
  gpb.add_undirected_edge(2, 3);
  gpb.add_undirected_edge(0, 3);  // unreliable extra
  const DualGraph net(gb.freeze(), gpb.freeze(), /*source=*/0);
  EXPECT_EQ(net.node_count(), 4);
  EXPECT_FALSE(net.is_classical());
  EXPECT_TRUE(net.is_undirected());
  EXPECT_EQ(net.unreliable_edge_count(), 2u);
  ASSERT_EQ(net.unreliable_out(0).size(), 1u);
  EXPECT_EQ(net.unreliable_out(0)[0], 3);
  EXPECT_EQ(net.g_csr().edge_count(), 6u);
  EXPECT_TRUE(net.g_prime_csr().contains(0, 3));
  EXPECT_FALSE(net.g_csr().contains(0, 3));
}

TEST(CsrGraphBuilder, CsrDualGraphValidatesLikeGraphPath) {
  // E not a subset of E'.
  CsrGraphBuilder g1(3);
  g1.add_undirected_edge(0, 1);
  g1.add_undirected_edge(1, 2);
  CsrGraphBuilder gp1(3);
  gp1.add_undirected_edge(0, 1);
  EXPECT_THROW(DualGraph(g1.freeze(), gp1.freeze(), 0),
               std::invalid_argument);
  // Unreachable node in G.
  CsrGraphBuilder g2(3);
  g2.add_undirected_edge(0, 1);
  CsrGraphBuilder gp2(3);
  gp2.add_undirected_edge(0, 1);
  gp2.add_undirected_edge(1, 2);
  EXPECT_THROW(DualGraph(g2.freeze(), gp2.freeze(), 0),
               std::invalid_argument);
}

TEST(CsrGraph, OffsetOverflowGuardFailsLoudlyPast32Bit) {
  // Every freeze path funnels an edge count through require_edges_fit (a
  // Graph snapshot its edge count, a builder freeze its emitted count,
  // duplicates included); offsets are 32-bit, so one edge past kMaxEdges
  // must be a clear error, never a silent wrap. The guard is exercised
  // directly — materializing 2^32 edges (32+ GB) in a unit test is not an
  // option, which is exactly why it is a testable seam.
  EXPECT_NO_THROW(CsrGraph::require_edges_fit(0));
  EXPECT_NO_THROW(CsrGraph::require_edges_fit(CsrGraph::kMaxEdges));
  EXPECT_THROW(CsrGraph::require_edges_fit(CsrGraph::kMaxEdges + 1),
               std::invalid_argument);
  EXPECT_THROW(CsrGraph::require_edges_fit(std::size_t{1} << 33),
               std::invalid_argument);
  try {
    CsrGraph::require_edges_fit(std::uint64_t{1} << 32);
    FAIL() << "guard accepted 2^32 edges";
  } catch (const std::invalid_argument& e) {
    // The message must say what overflowed and name the way forward.
    EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("64-bit"), std::string::npos)
        << e.what();
  }
  // Normal freezes are untouched by the guard.
  CsrGraphBuilder builder(3);
  builder.add_undirected_edge(0, 1);
  builder.add_undirected_edge(1, 2);
  EXPECT_EQ(builder.freeze().edge_count(), 4u);
}

TEST(CsrGraph, FromRowsRejectsMalformedRows) {
  // Well-formed rows, one of them unsorted, are accepted as given.
  const CsrGraph ok = CsrGraph::from_rows({0, 2, 2, 3}, {2, 1, 0});
  EXPECT_EQ(ok.node_count(), 3);
  EXPECT_EQ(ok.row(0)[0], 2);
  EXPECT_FALSE(ok.rows_sorted());
  EXPECT_TRUE(ok.contains(0, 1));
  // Ends that do not match the targets.
  EXPECT_THROW((void)CsrGraph::from_rows({}, {}), std::invalid_argument);
  EXPECT_THROW((void)CsrGraph::from_rows({1, 2}, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrGraph::from_rows({0, 1}, {1, 0}),
               std::invalid_argument);
  // A row that ends before it starts: row 1 would span [2, 1).
  EXPECT_THROW((void)CsrGraph::from_rows({0, 2, 1, 3}, {1, 2, 0}),
               std::invalid_argument);
  // Targets outside [0, n): a reader would index past its n-wide arrays.
  EXPECT_THROW((void)CsrGraph::from_rows({0, 1, 2}, {7, 0}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrGraph::from_rows({0, 1, 2}, {1, -1}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrGraph::from_rows({0, 1, 2}, {2, 0}),
               std::invalid_argument);
}

/// The sort-based freeze the counting sort replaced, as the oracle: sort the
/// packed (u << 32) | v keys, drop adjacent repeats, cut rows at each new
/// source.
std::vector<std::vector<NodeId>> sort_freeze_rows(
    NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<std::uint64_t> keys;
  keys.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    keys.push_back((static_cast<std::uint64_t>(u) << 32) |
                   static_cast<std::uint32_t>(v));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::vector<NodeId>> rows(static_cast<std::size_t>(n));
  for (const std::uint64_t k : keys) {
    rows[k >> 32].push_back(static_cast<NodeId>(k & 0xFFFFFFFFULL));
  }
  return rows;
}

/// `csr` has exactly these rows: the same degrees (hence the same offsets)
/// and the same targets in the same order.
void expect_rows(const CsrGraph& csr,
                 const std::vector<std::vector<NodeId>>& rows) {
  ASSERT_EQ(static_cast<std::size_t>(csr.node_count()), rows.size());
  std::size_t edges = 0;
  for (NodeId u = 0; u < csr.node_count(); ++u) {
    const auto row = csr.row(u);
    EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
              rows[static_cast<std::size_t>(u)])
        << "row " << u;
    edges += rows[static_cast<std::size_t>(u)].size();
  }
  EXPECT_EQ(csr.edge_count(), edges);
  EXPECT_TRUE(csr.rows_sorted());
}

/// A random emitted multiset over n nodes, in random order: repeats in both
/// directions, the top quarter of the ids left isolated, and (for n > 130)
/// node 1's row swept downward over 129 targets, twice.
std::vector<std::pair<NodeId, NodeId>> random_emission(NodeId n,
                                                       std::uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  if (n < 2) return edges;
  StreamRng rng(seed);
  const auto active = static_cast<std::uint64_t>(std::max(2, n - n / 4));
  const std::uint64_t draws = rng.below(4 * active);
  for (std::uint64_t i = 0; i < draws; ++i) {
    const auto u = static_cast<NodeId>(rng.below(active));
    const auto v = static_cast<NodeId>(rng.below(active));
    if (u == v) continue;
    edges.emplace_back(u, v);
    if (rng.bernoulli(0.3)) edges.emplace_back(v, u);
    if (rng.bernoulli(0.2)) edges.emplace_back(u, v);
  }
  if (n > 130) {
    for (int pass = 0; pass < 2; ++pass) {
      for (NodeId v = 130; v >= 2; --v) edges.emplace_back(1, v);
    }
  }
  std::shuffle(edges.begin(), edges.end(), rng);
  return edges;
}

TEST(CsrGraphBuilder, FreezeEqualsSortBasedFreeze) {
  // The empty builder, with and without nodes.
  expect_rows(CsrGraphBuilder(0).freeze(), {});
  expect_rows(CsrGraphBuilder(5).freeze(), sort_freeze_rows(5, {}));
  for (const NodeId n : {1, 2, 257}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " seed " << seed);
      CsrGraphBuilder builder(n);
      // Two freezes of one builder: the second sees only its own edges.
      for (std::uint64_t round = 0; round < 2; ++round) {
        const auto edges = random_emission(n, 2 * seed + round);
        for (const auto& [u, v] : edges) builder.add_edge(u, v);
        ASSERT_EQ(builder.emitted(), edges.size());
        const CsrGraph csr = builder.freeze();
        expect_rows(csr, sort_freeze_rows(n, edges));
        EXPECT_EQ(builder.emitted(), 0u);
        if (n == 257) {
          EXPECT_GE(csr.out_degree(1), 129u) << "the long row";
          EXPECT_EQ(csr.out_degree(256), 0u) << "an isolated node";
        }
      }
    }
  }
}

/// Every G'-only row is the G' row, in its order, less G's members.
void expect_unreliable_rows(const DualGraph& net) {
  const CsrGraph& g = net.g_csr();
  const CsrGraph& gp = net.g_prime_csr();
  std::size_t edges = 0;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    std::vector<NodeId> want;
    for (const NodeId v : gp.row(u)) {
      if (!g.contains(u, v)) want.push_back(v);
    }
    const auto got = net.unreliable_out(u);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), want)
        << "row " << u;
    edges += want.size();
  }
  EXPECT_EQ(net.unreliable_edge_count(), edges);
}

TEST(DualGraph, UnreliableRowsFollowGPrimeRowOrder) {
  // Graph-frozen networks keep insertion order.
  expect_unreliable_rows(duals::layered_complete_gprime(4, 5));
  expect_unreliable_rows(duals::gray_zone({.n = 80, .seed = 3}));
  expect_unreliable_rows(duals::bridge_network(9));
  // A complete-layered G under a G' whose complete rows were inserted in
  // shuffled order, so the G'-only rows are unsorted.
  const Graph g = gen::complete_layered({1, 4, 4, 3});
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (u != v) pairs.emplace_back(u, v);
    }
  }
  StreamRng rng(11);
  std::shuffle(pairs.begin(), pairs.end(), rng);
  Graph gp(g.node_count());
  for (const auto& [u, v] : pairs) gp.add_edge(u, v);
  const DualGraph shuffled(g, gp, 0);
  EXPECT_FALSE(shuffled.unreliable_csr().rows_sorted());
  expect_unreliable_rows(shuffled);
  // Builder-frozen networks have ascending rows.
  expect_unreliable_rows(duals::layered_sparse({.layers = 20,
                                                .width = 10,
                                                .fwd_degree = 3,
                                                .unreliable_degree = 2,
                                                .seed = 7}));
  expect_unreliable_rows(
      duals::gray_zone_grid({.n = 400, .mean_degree = 9.0, .seed = 13}));
}

/// `build()` must fail the E subset of E' check, whatever else holds.
template <class Build>
void expect_not_subset(const Build& build) {
  try {
    (void)build();
    FAIL() << "a G edge missing from G' was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("E must be a subset of E'"),
              std::string::npos)
        << e.what();
  }
}

/// G is the undirected path 0-1-...-(n-1); G' is G plus the chords
/// (u, u + 2), less the directed edge (mu, mv). Every node is reachable in
/// G, so only the subset check can reject the network. Built both ways.
void expect_missing_edge_rejected(NodeId n, NodeId mu, NodeId mv) {
  SCOPED_TRACE(::testing::Message() << "missing " << mu << "->" << mv);
  Graph g(n), gp(n);
  CsrGraphBuilder gb(n), gpb(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    g.add_undirected_edge(u, u + 1);
    gb.add_undirected_edge(u, u + 1);
  }
  const auto add_gp = [&](NodeId u, NodeId v) {
    if (u == mu && v == mv) return;
    gp.add_edge(u, v);
    gpb.add_edge(u, v);
  };
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : {u - 2, u - 1, u + 1, u + 2}) {
      if (v >= 0 && v < n) add_gp(u, v);
    }
  }
  expect_not_subset([&] { return DualGraph(g, gp, 0); });
  expect_not_subset([&] { return DualGraph(gb.freeze(), gpb.freeze(), 0); });
}

TEST(DualGraph, SubsetViolationIsCaughtInAnyRow) {
  expect_missing_edge_rejected(6, 0, 1);  // the first row
  expect_missing_edge_rejected(6, 5, 4);  // the last row
  expect_missing_edge_rejected(6, 3, 2);  // a middle row
  // The only non-empty row: G is the out-star 0 -> {1, 2}, G' only 0 -> 1.
  Graph star(3), partial(3);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  partial.add_edge(0, 1);
  expect_not_subset([&] { return DualGraph(star, partial, 0); });
  CsrGraphBuilder sb(3), pb(3);
  sb.add_edge(0, 2);
  sb.add_edge(0, 1);
  pb.add_edge(0, 1);
  expect_not_subset([&] { return DualGraph(sb.freeze(), pb.freeze(), 0); });
  // With node 2 unreachable in G as well, the subset error still comes
  // first.
  Graph stranded(3), empty(3);
  stranded.add_edge(1, 2);
  expect_not_subset([&] { return DualGraph(stranded, empty, 0); });
  // G with more edges than G' (the G'-only count would be negative).
  expect_not_subset([] { return DualGraph(gen::clique(4), gen::path(4), 0); });
}

/// FNV-1a over the rows of `g` as little-endian 32-bit words: the node
/// count, then each row's degree and targets in row order.
std::string rows_digest(const CsrGraph& g) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto feed = [&h](std::uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFFu;
      h *= 0x100000001B3ULL;
    }
  };
  feed(static_cast<std::uint32_t>(g.node_count()));
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto row = g.row(u);
    feed(static_cast<std::uint32_t>(row.size()));
    for (const NodeId v : row) feed(static_cast<std::uint32_t>(v));
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(ScaleFamilies, NetworkRowsArePinned) {
  // The rows of G, G' and the G'-only CSR of the scale families, pinned by
  // digest: every execution, export and trace of a scale/* or byz/* run
  // starts from these bytes, so a construction change must leave them be.
  struct Pin {
    const char* name;
    campaign::NetworkBuilder build;
    const char* g;
    const char* g_prime;
    const char* unreliable;
  };
  const Pin pins[] = {
      {"layered-1k", campaign::scale_layered(50, 20), "61a657207b36e1b0",
       "dde36fd6cbce01c1", "3aa8b176baa6f55a"},
      {"layered-10k", campaign::scale_layered(125, 80), "709ffd35befeb1bb",
       "8d870f6f5f400eb4", "cd123b0f4fb457da"},
      {"grayzone-1k", campaign::scale_grayzone(1'000), "96f2e049e02adb61",
       "9649d2acfdf098a3", "7a1025855417b68a"},
      {"grayzone-10k", campaign::scale_grayzone(10'000), "fcafc6d7e5950ff9",
       "7bc7349475e0db53", "f240db9c578e3848"},
  };
  for (const Pin& pin : pins) {
    const DualGraph net = pin.build();
    EXPECT_EQ(rows_digest(net.g_csr()), pin.g) << pin.name;
    EXPECT_EQ(rows_digest(net.g_prime_csr()), pin.g_prime) << pin.name;
    EXPECT_EQ(rows_digest(net.unreliable_csr()), pin.unreliable) << pin.name;
  }
}

}  // namespace
}  // namespace dualrad
