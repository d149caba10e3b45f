#include "graph/graph.hpp"

#include <algorithm>
#include <limits>

namespace dualrad {

void CsrGraph::require_edges_fit(std::size_t edge_count) {
  if (edge_count > kMaxEdges) {
    throw std::invalid_argument(
        "dualrad: cannot freeze a CSR snapshot with " +
        std::to_string(edge_count) + " edges: 32-bit row offsets address at "
        "most " + std::to_string(kMaxEdges) +
        " edges; this build needs the 64-bit-offset CSR before scaling "
        "further");
  }
}

CsrGraph CsrGraph::from_rows(std::vector<std::uint32_t> offsets,
                             std::vector<NodeId> targets) {
  DUALRAD_REQUIRE(!offsets.empty() && offsets.front() == 0 &&
                      offsets.back() == targets.size() &&
                      std::is_sorted(offsets.begin(), offsets.end()),
                  "malformed CSR offsets");
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  DUALRAD_REQUIRE(std::all_of(targets.begin(), targets.end(),
                              [n](NodeId v) { return v >= 0 && v < n; }),
                  "CSR target out of range");
  CsrGraph csr(std::move(offsets), std::move(targets));
  csr.index_unsorted_rows();
  return csr;
}

void CsrGraph::index_unsorted_rows() {
  bool sorted = true;
  for (NodeId u = 0; sorted && u < node_count(); ++u) {
    const auto r = row(u);
    sorted = std::is_sorted(r.begin(), r.end());
  }
  if (sorted) return;
  sorted_ = targets_;
  for (NodeId u = 0; u < node_count(); ++u) {
    const auto uu = static_cast<std::size_t>(u);
    std::sort(sorted_.begin() + offsets_[uu],
              sorted_.begin() + offsets_[uu + 1]);
  }
}

bool CsrGraph::contains(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= node_count() || v >= node_count()) return false;
  const auto uu = static_cast<std::size_t>(u);
  const std::vector<NodeId>& keys = sorted_.empty() ? targets_ : sorted_;
  const auto begin = keys.begin() + offsets_[uu];
  const auto end = keys.begin() + offsets_[uu + 1];
  return std::binary_search(begin, end, v);
}

bool CsrGraph::is_symmetric() const {
  for (NodeId u = 0; u < node_count(); ++u) {
    for (const NodeId v : row(u)) {
      if (!contains(v, u)) return false;
    }
  }
  return true;
}

std::size_t CsrGraph::max_out_degree() const {
  std::size_t best = 0;
  for (NodeId u = 0; u < node_count(); ++u) {
    best = std::max(best, out_degree(u));
  }
  return best;
}

std::size_t CsrGraph::max_in_degree() const {
  std::vector<std::uint32_t> in_deg(static_cast<std::size_t>(node_count()), 0);
  for (const NodeId v : targets_) ++in_deg[static_cast<std::size_t>(v)];
  std::uint32_t best = 0;
  for (const std::uint32_t d : in_deg) best = std::max(best, d);
  return best;
}

CsrGraphBuilder::CsrGraphBuilder(NodeId n) : n_(n) {
  DUALRAD_REQUIRE(n >= 0, "node count must be non-negative");
}

CsrGraphBuilder::CsrGraphBuilder(const CsrGraph& g) : n_(g.node_count()) {
  edges_.reserve(g.edge_count());
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId v : g.row(u)) add_edge(u, v);
  }
}

void CsrGraphBuilder::add_edge(NodeId u, NodeId v) {
  DUALRAD_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
                  "edge endpoint out of range");
  DUALRAD_REQUIRE(u != v, "self-loops are not allowed");
  edges_.push_back(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
      static_cast<std::uint32_t>(v));
}

CsrGraph CsrGraphBuilder::freeze(RowOrder order) {
  // Every count below is at most the emitted count, so this one check keeps
  // all of them within the 32-bit offsets.
  CsrGraph::require_edges_fit(edges_.size());
  const auto n = static_cast<std::size_t>(n_);

  // Counting sort by source: out-degrees, prefix sums, then a scatter that
  // uses offsets[u] as row u's write cursor. Afterwards offsets[u] holds the
  // end of row u, which is where row u + 1 starts, and each row holds its
  // targets in emission order.
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (const std::uint64_t e : edges_) ++offsets[(e >> 32) + 1];
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  std::vector<NodeId> targets(edges_.size());
  for (const std::uint64_t e : edges_) {
    targets[offsets[e >> 32]++] = static_cast<NodeId>(e & 0xFFFFFFFFULL);
  }
  edges_ = {};  // release the packed array before the row pass

  // Dedup each row in place, compacting toward the front; offsets[u]
  // becomes row u's compacted start. Ascending sorts the row and drops
  // repeats; Emission keeps each target's first occurrence, marking every
  // kept target with the row that kept it (NodeId is below 2^31, so no row
  // equals the unmarked value).
  std::vector<std::uint32_t> kept_by(order == RowOrder::Emission ? n : 0,
                                     std::numeric_limits<std::uint32_t>::max());
  std::uint32_t begin = 0;
  std::uint32_t kept = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t end = offsets[u];
    offsets[u] = kept;
    if (order == RowOrder::Ascending) {
      const auto first = targets.begin() + begin;
      std::sort(first, targets.begin() + end);
      const auto last = std::unique(first, targets.begin() + end);
      if (kept != begin) std::copy(first, last, targets.begin() + kept);
      kept += static_cast<std::uint32_t>(last - first);
    } else {
      for (std::uint32_t i = begin; i < end; ++i) {
        std::uint32_t& mark = kept_by[static_cast<std::size_t>(targets[i])];
        if (mark == u) continue;
        mark = static_cast<std::uint32_t>(u);
        targets[kept++] = targets[i];
      }
    }
    begin = end;
  }
  kept_by = {};
  offsets[n] = kept;
  targets.resize(kept);
  CsrGraph csr(std::move(offsets), std::move(targets));
  if (order == RowOrder::Emission) csr.index_unsorted_rows();
  return csr;
}

}  // namespace dualrad
