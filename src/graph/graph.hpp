#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/types.hpp"

/// \file graph.hpp
/// A directed-graph builder with O(1) duplicate-edge checks, the frozen CSR
/// (compressed sparse row) snapshot every reader of a network uses, and a
/// streaming CSR builder for large-n construction.
///
/// Graphs in the dual graph model (Section 2.1) are directed; a network is
/// called *undirected* when every edge appears in both directions. The
/// `Graph` class therefore stores directed edges and provides symmetric
/// insertion. `Graph` is only a construction-time *builder*: a network
/// freezes it into `CsrGraph` snapshots once and drops it, and every reader
/// (the round engines, adversaries, the trace auditor, graph algorithms)
/// iterates the flat CSR arrays.
///
/// Memory at scale: `Graph` keeps a hash set of packed edge keys for O(1)
/// has_edge, which costs tens of bytes per edge and dominates peak RSS from
/// n ~ 10^5 up. Scale workloads skip `Graph` entirely and stream edges into
/// a `CsrGraphBuilder`: 8 bytes per emitted edge while emitting, a freeze
/// linear in the emitted edges (a counting sort by source, then a sort and
/// dedup of each short row in place) that peaks at 12 bytes per emitted edge
/// plus 4(n + 1) bytes of offsets, ~4 bytes per edge frozen.

namespace dualrad {

class Graph {
 public:
  Graph() = default;

  /// Create a graph with nodes {0, ..., n-1} and no edges.
  explicit Graph(NodeId n);

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(out_.size());
  }
  [[nodiscard]] std::size_t edge_count() const { return edge_list_.size(); }

  /// Add the directed edge (u, v). Self-loops and duplicates are rejected.
  void add_edge(NodeId u, NodeId v);

  /// Add both (u, v) and (v, u). Either may already be present.
  void add_undirected_edge(NodeId u, NodeId v);

  /// True iff the directed edge (u, v) exists.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Size the edge index (and edge list) for `edges` insertions up front, so
  /// bulk construction does not rehash repeatedly.
  void reserve_edges(std::size_t edges);

  /// Out-neighbors of u in insertion order (the row order a CsrGraph
  /// snapshot keeps).
  [[nodiscard]] const std::vector<NodeId>& out_neighbors(NodeId u) const;

  [[nodiscard]] std::size_t out_degree(NodeId u) const {
    return out_neighbors(u).size();
  }

  /// All directed edges, in insertion order.
  [[nodiscard]] const std::vector<std::pair<NodeId, NodeId>>& edges() const {
    return edge_list_;
  }

 private:
  void check_node(NodeId u, const char* what) const;
  [[nodiscard]] static std::uint64_t key(NodeId u, NodeId v) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
           static_cast<std::uint32_t>(v);
  }

  std::vector<std::vector<NodeId>> out_{};
  std::unordered_set<std::uint64_t> edge_set_{};
  std::vector<std::pair<NodeId, NodeId>> edge_list_{};
};

/// Immutable CSR snapshot of a directed graph's out-adjacency.
///
/// Two flat arrays replace the per-node neighbor vectors: `offsets_[u]`
/// indexes into `targets_`, and `row(u)` returns the out-neighbors of `u`.
/// Snapshots frozen from a `Graph` keep the builder's *insertion order* —
/// the engines deliver in row order and stateful adversaries draw their
/// RNG streams in it, so a network's executions are fixed by the order its
/// builder inserted edges — and carry a per-row sorted copy backing
/// `contains()` (binary search). Snapshots produced by `CsrGraphBuilder`
/// have rows already sorted ascending, so `contains()` searches the rows
/// directly and the sorted copy (and its ~4 bytes/edge) is not allocated.
class CsrGraph {
 public:
  /// Largest edge count a snapshot can hold: offsets are 32-bit, so one
  /// more edge would wrap them. Every freeze path funnels through
  /// require_edges_fit, which throws a clear error instead of silently
  /// truncating — the 10^7-node grid will need 64-bit offsets (ROADMAP), not
  /// a wrap. A Graph snapshot checks its edge count; CsrGraphBuilder::freeze
  /// checks its *emitted* count, duplicates included, so every count of its
  /// counting sort fits too (reaching the bound takes a 34 GB packed array).
  static constexpr std::size_t kMaxEdges =
      static_cast<std::size_t>((std::uint64_t{1} << 32) - 1);

  /// Throws std::invalid_argument when `edge_count` cannot be addressed by
  /// the 32-bit CSR offset type.
  static void require_edges_fit(std::size_t edge_count);

  CsrGraph() = default;
  explicit CsrGraph(const Graph& g);

  /// Build from explicit rows in the given order (offsets has node_count + 1
  /// entries; targets[offsets[u]..offsets[u+1]) is row u). Row order is
  /// preserved; a sorted index is built only if some row is unsorted. Throws
  /// std::invalid_argument unless offsets start at 0, never decrease and end
  /// at targets.size(), and every target is in [0, node_count).
  [[nodiscard]] static CsrGraph from_rows(std::vector<std::uint32_t> offsets,
                                          std::vector<NodeId> targets);

  [[nodiscard]] NodeId node_count() const {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }
  [[nodiscard]] std::size_t edge_count() const { return targets_.size(); }

  /// Out-neighbors of u: insertion order for Graph-frozen snapshots,
  /// ascending for builder-frozen ones.
  [[nodiscard]] std::span<const NodeId> row(NodeId u) const {
    const auto uu = static_cast<std::size_t>(u);
    return {targets_.data() + offsets_[uu], offsets_[uu + 1] - offsets_[uu]};
  }

  [[nodiscard]] std::size_t out_degree(NodeId u) const {
    const auto uu = static_cast<std::size_t>(u);
    return offsets_[uu + 1] - offsets_[uu];
  }

  /// True iff rows are sorted ascending (builder-frozen snapshots).
  [[nodiscard]] bool rows_sorted() const { return sorted_.empty(); }

  /// True iff the directed edge (u, v) exists. O(log out_degree(u)).
  [[nodiscard]] bool contains(NodeId u, NodeId v) const;

  /// True iff for every edge (u, v), the reverse edge (v, u) exists.
  [[nodiscard]] bool is_symmetric() const;

  /// True iff every edge of this graph is an edge of `other` (same vertex
  /// set required).
  [[nodiscard]] bool is_subgraph_of(const CsrGraph& other) const;

  [[nodiscard]] std::size_t max_out_degree() const;

  /// Maximum in-degree over all nodes (the Delta of [11]). O(m).
  [[nodiscard]] std::size_t max_in_degree() const;

 private:
  friend class CsrGraphBuilder;
  CsrGraph(std::vector<std::uint32_t> offsets, std::vector<NodeId> targets)
      : offsets_(std::move(offsets)), targets_(std::move(targets)) {}

  std::vector<std::uint32_t> offsets_{};  ///< size node_count() + 1
  std::vector<NodeId> targets_{};
  std::vector<NodeId> sorted_{};  ///< per-row sorted copy; empty = rows sorted
};

/// Streaming CSR construction for large graphs: emit directed edges into a
/// flat packed array (8 bytes each, duplicates welcome), then `freeze()`
/// lays out the CSR — no hash set, no per-node vectors, no `Graph`
/// intermediate. The freeze is a counting sort by source: count the
/// out-degrees into the offsets, take prefix sums, and scatter every target
/// into its row, using the offsets themselves as write cursors; then, with
/// the packed array released, sort and dedup each row in place, compacting
/// the rows toward the front. Its time is linear in the emitted edges (plus
/// a sort per short row), and its peak is 8 bytes per emitted edge (the
/// packed array) plus 4 per emitted edge (the scattered targets) plus
/// 4(n + 1) bytes of offsets. The frozen snapshot keeps ~4 bytes per
/// distinct edge, with the duplicates' slots as unused capacity, which is
/// what makes 10^6-node generator families fit in memory. Frozen rows are
/// sorted ascending (a builder-frozen CsrGraph therefore needs no separate
/// sorted index).
class CsrGraphBuilder {
 public:
  explicit CsrGraphBuilder(NodeId n);

  [[nodiscard]] NodeId node_count() const { return n_; }
  /// Edges emitted so far, duplicates included.
  [[nodiscard]] std::size_t emitted() const { return edges_.size(); }

  void reserve(std::size_t edges) { edges_.reserve(edges); }

  /// Emit the directed edge (u, v). Self-loops are rejected; duplicates are
  /// collapsed at freeze().
  void add_edge(NodeId u, NodeId v);

  /// Emit both (u, v) and (v, u).
  void add_undirected_edge(NodeId u, NodeId v) {
    add_edge(u, v);
    add_edge(v, u);
  }

  /// Counting-sort the emitted edges into CSR rows, then sort and dedup each
  /// row. The builder is left empty (reusable).
  [[nodiscard]] CsrGraph freeze();

 private:
  NodeId n_ = 0;
  std::vector<std::uint64_t> edges_{};  ///< packed (u << 32) | v
};

}  // namespace dualrad
