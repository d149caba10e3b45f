#include "graph/graph.hpp"

#include <algorithm>

namespace dualrad {

Graph::Graph(NodeId n) {
  DUALRAD_REQUIRE(n >= 0, "node count must be non-negative");
  out_.resize(static_cast<std::size_t>(n));
}

void Graph::check_node(NodeId u, const char* what) const {
  DUALRAD_REQUIRE(u >= 0 && u < node_count(), what);
}

void Graph::add_edge(NodeId u, NodeId v) {
  check_node(u, "edge endpoint out of range");
  check_node(v, "edge endpoint out of range");
  DUALRAD_REQUIRE(u != v, "self-loops are not allowed");
  DUALRAD_REQUIRE(!has_edge(u, v), "duplicate edge");
  edge_set_.insert(key(u, v));
  edge_list_.emplace_back(u, v);
  out_[static_cast<std::size_t>(u)].push_back(v);
}

void Graph::add_undirected_edge(NodeId u, NodeId v) {
  if (!has_edge(u, v)) add_edge(u, v);
  if (!has_edge(v, u)) add_edge(v, u);
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= node_count() || v >= node_count()) return false;
  return edge_set_.contains(key(u, v));
}

void Graph::reserve_edges(std::size_t edges) {
  edge_set_.reserve(edges);
  edge_list_.reserve(edges);
}

const std::vector<NodeId>& Graph::out_neighbors(NodeId u) const {
  check_node(u, "node out of range");
  return out_[static_cast<std::size_t>(u)];
}

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

CsrGraph::CsrGraph(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.node_count());
  require_edges_fit(g.edge_count());
  offsets_.resize(n + 1, 0);
  targets_.reserve(g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto& nbrs = g.out_neighbors(u);
    offsets_[static_cast<std::size_t>(u) + 1] =
        offsets_[static_cast<std::size_t>(u)] +
        static_cast<std::uint32_t>(nbrs.size());
    targets_.insert(targets_.end(), nbrs.begin(), nbrs.end());
  }
  sorted_ = targets_;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto uu = static_cast<std::size_t>(u);
    std::sort(sorted_.begin() + offsets_[uu], sorted_.begin() + offsets_[uu + 1]);
  }
  // An edge-free Graph-frozen snapshot is indistinguishable from a sorted
  // one — rows_sorted() is vacuously true and contains() has nothing to
  // find, so the sorted_/targets_ distinction does not matter there.
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
  bool sorted = true;
  for (NodeId u = 0; sorted && u < csr.node_count(); ++u) {
    const auto row = csr.row(u);
    sorted = std::is_sorted(row.begin(), row.end());
  }
  if (!sorted) {
    csr.sorted_ = csr.targets_;
    for (NodeId u = 0; u < csr.node_count(); ++u) {
      const auto uu = static_cast<std::size_t>(u);
      std::sort(csr.sorted_.begin() + csr.offsets_[uu],
                csr.sorted_.begin() + csr.offsets_[uu + 1]);
    }
  }
  return csr;
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

bool CsrGraph::is_subgraph_of(const CsrGraph& other) const {
  if (node_count() != other.node_count()) return false;
  for (NodeId u = 0; u < node_count(); ++u) {
    for (const NodeId v : row(u)) {
      if (!other.contains(u, v)) return false;
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

void CsrGraphBuilder::add_edge(NodeId u, NodeId v) {
  DUALRAD_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
                  "edge endpoint out of range");
  DUALRAD_REQUIRE(u != v, "self-loops are not allowed");
  edges_.push_back(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
      static_cast<std::uint32_t>(v));
}

CsrGraph CsrGraphBuilder::freeze() {
  // Every count below is at most the emitted count, so this one check keeps
  // all of them within the 32-bit offsets.
  CsrGraph::require_edges_fit(edges_.size());
  const auto n = static_cast<std::size_t>(n_);

  // Counting sort by source: out-degrees, prefix sums, then a scatter that
  // uses offsets[u] as row u's write cursor. Afterwards offsets[u] holds the
  // end of row u, which is where row u + 1 starts.
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (const std::uint64_t e : edges_) ++offsets[(e >> 32) + 1];
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  std::vector<NodeId> targets(edges_.size());
  for (const std::uint64_t e : edges_) {
    targets[offsets[e >> 32]++] = static_cast<NodeId>(e & 0xFFFFFFFFULL);
  }
  edges_ = {};  // release the packed array before the row pass

  // Sort and dedup each row in place, compacting toward the front; offsets[u]
  // becomes row u's compacted start.
  std::uint32_t begin = 0;
  std::uint32_t kept = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t end = offsets[u];
    const auto first = targets.begin() + begin;
    std::sort(first, targets.begin() + end);
    const auto last = std::unique(first, targets.begin() + end);
    if (kept != begin) std::copy(first, last, targets.begin() + kept);
    offsets[u] = kept;
    kept += static_cast<std::uint32_t>(last - first);
    begin = end;
  }
  offsets[n] = kept;
  targets.resize(kept);
  return CsrGraph(std::move(offsets), std::move(targets));
}

}  // namespace dualrad
