#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

/// \file graph.hpp
/// The frozen CSR (compressed sparse row) snapshot every reader of a network
/// uses, and the streaming builder every network is frozen from.
///
/// Graphs in the dual graph model (Section 2.1) are directed; a network is
/// called *undirected* when every edge appears in both directions, so the
/// builder emits directed edges and offers symmetric emission. A network
/// emits its edges into a `CsrGraphBuilder`, freezes it into `CsrGraph`
/// snapshots once and drops it, and every reader (the round engines,
/// adversaries, the trace auditor, graph algorithms) iterates the flat CSR
/// arrays.

namespace dualrad {

/// The order of the targets within each frozen row. Row order is the order
/// the engines deliver in and stateful adversaries draw their RNG streams
/// in, so it fixes a network's executions.
enum class RowOrder {
  /// Ascending targets: the scale families, which need no sorted index.
  Ascending,
  /// Each target where it was first emitted: the small constructions, whose
  /// executions were fixed by the order they add their edges in.
  Emission,
};

/// Immutable CSR snapshot of a directed graph's out-adjacency.
///
/// Two flat arrays hold the rows: `offsets_[u]` indexes into `targets_`, and
/// `row(u)` returns the out-neighbors of `u` in the snapshot's row order (the
/// RowOrder a builder froze it in, or the order from_rows was given).
/// `contains()` is a binary search: over the rows themselves when every row
/// is ascending (always for RowOrder::Ascending), otherwise over a per-row
/// sorted copy (~4 bytes/edge).
class CsrGraph {
 public:
  /// Largest edge count a snapshot can hold: offsets are 32-bit, so one
  /// more edge would wrap them. Every freeze path funnels through
  /// require_edges_fit, which throws a clear error instead of silently
  /// truncating — the 10^7-node grid will need 64-bit offsets (ROADMAP), not
  /// a wrap. CsrGraphBuilder::freeze checks its *emitted* count, duplicates
  /// included, so every count of its counting sort fits too (reaching the
  /// bound takes a 34 GB packed array).
  static constexpr std::size_t kMaxEdges =
      static_cast<std::size_t>((std::uint64_t{1} << 32) - 1);

  /// Throws std::invalid_argument when `edge_count` cannot be addressed by
  /// the 32-bit CSR offset type.
  static void require_edges_fit(std::size_t edge_count);

  CsrGraph() = default;

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

  /// Out-neighbors of u, in the snapshot's row order.
  [[nodiscard]] std::span<const NodeId> row(NodeId u) const {
    const auto uu = static_cast<std::size_t>(u);
    return {targets_.data() + offsets_[uu], offsets_[uu + 1] - offsets_[uu]};
  }

  [[nodiscard]] std::size_t out_degree(NodeId u) const {
    const auto uu = static_cast<std::size_t>(u);
    return offsets_[uu + 1] - offsets_[uu];
  }

  /// True iff every row is sorted ascending (so no sorted copy is kept).
  [[nodiscard]] bool rows_sorted() const { return sorted_.empty(); }

  /// True iff the directed edge (u, v) exists. O(log out_degree(u)).
  [[nodiscard]] bool contains(NodeId u, NodeId v) const;

  /// True iff for every edge (u, v), the reverse edge (v, u) exists.
  [[nodiscard]] bool is_symmetric() const;

  [[nodiscard]] std::size_t max_out_degree() const;

  /// Maximum in-degree over all nodes (the Delta of [11]). O(m).
  [[nodiscard]] std::size_t max_in_degree() const;

 private:
  friend class CsrGraphBuilder;
  CsrGraph(std::vector<std::uint32_t> offsets, std::vector<NodeId> targets)
      : offsets_(std::move(offsets)), targets_(std::move(targets)) {}

  /// Build sorted_ if some row is not ascending.
  void index_unsorted_rows();

  std::vector<std::uint32_t> offsets_{};  ///< size node_count() + 1
  std::vector<NodeId> targets_{};
  std::vector<NodeId> sorted_{};  ///< per-row sorted copy; empty = rows sorted
};

/// Streaming CSR construction: emit directed edges into a flat packed array
/// (8 bytes each, duplicates welcome), then `freeze()` lays out the CSR with
/// no hash set and no per-node vectors. The freeze is a counting sort by
/// source: count the out-degrees into the offsets, take prefix sums, and
/// scatter every target into its row, using the offsets themselves as write
/// cursors. The scatter is stable, so each row is then in emission order.
/// With the packed array released, each row is deduplicated in place and
/// the rows compacted toward the front: sorted and deduplicated for
/// RowOrder::Ascending, reduced to each target's first emission for
/// RowOrder::Emission (with an n-wide mark, allocated only in that mode, and
/// the sorted index behind contains() if some row is out of order). Its
/// time is linear in the emitted edges (plus a sort per short row), and its
/// peak is 8 bytes per emitted edge (the packed array) plus 4 per emitted
/// edge (the scattered targets) plus 4(n + 1) bytes of offsets. The frozen
/// snapshot keeps ~4 bytes per distinct edge, with the duplicates' slots as
/// unused capacity, which is what makes 10^6-node generator families fit in
/// memory.
class CsrGraphBuilder {
 public:
  explicit CsrGraphBuilder(NodeId n);

  /// A builder that has already emitted the rows of `g`, row by row in row
  /// order: edges emitted next follow them in their rows.
  explicit CsrGraphBuilder(const CsrGraph& g);

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

  /// Counting-sort the emitted edges into CSR rows, then dedup each row in
  /// `order`. The builder is left empty (reusable).
  [[nodiscard]] CsrGraph freeze(RowOrder order);

 private:
  NodeId n_ = 0;
  std::vector<std::uint64_t> edges_{};  ///< packed (u << 32) | v
};

}  // namespace dualrad
