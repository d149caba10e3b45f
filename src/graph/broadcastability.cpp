#include "graph/broadcastability.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"

namespace dualrad::broadcastability {

Round broadcastability_lower_bound(const DualGraph& net) {
  return graphalg::eccentricity(net.g_csr(), net.source());
}

NodeId coverage_after(const DualGraph& net, const OracleSchedule& schedule) {
  std::vector<bool> covered(static_cast<std::size_t>(net.node_count()), false);
  covered[static_cast<std::size_t>(net.source())] = true;
  NodeId count = 1;
  for (NodeId u : schedule.senders) {
    DUALRAD_REQUIRE(u >= 0 && u < net.node_count(), "sender out of range");
    DUALRAD_REQUIRE(covered[static_cast<std::size_t>(u)],
                    "scheduled sender does not hold the message");
    for (NodeId v : net.g_csr().row(u)) {
      if (!covered[static_cast<std::size_t>(v)]) {
        covered[static_cast<std::size_t>(v)] = true;
        ++count;
      }
    }
  }
  return count;
}

OracleSchedule greedy_oracle_schedule(const DualGraph& net) {
  const NodeId n = net.node_count();
  std::vector<bool> covered(static_cast<std::size_t>(n), false);
  covered[static_cast<std::size_t>(net.source())] = true;
  NodeId remaining = n - 1;
  OracleSchedule schedule;
  while (remaining > 0) {
    NodeId best = kInvalidNode;
    NodeId best_gain = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (!covered[static_cast<std::size_t>(u)]) continue;
      NodeId gain = 0;
      for (NodeId v : net.g_csr().row(u)) {
        if (!covered[static_cast<std::size_t>(v)]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = u;
      }
    }
    DUALRAD_CHECK(best != kInvalidNode,
                  "coverage stalled despite reachability invariant");
    schedule.senders.push_back(best);
    for (NodeId v : net.g_csr().row(best)) {
      if (!covered[static_cast<std::size_t>(v)]) {
        covered[static_cast<std::size_t>(v)] = true;
        --remaining;
      }
    }
  }
  return schedule;
}

namespace {

bool dfs(const DualGraph& net, std::vector<bool>& covered, NodeId remaining,
         Round budget, OracleSchedule& schedule) {
  if (remaining == 0) return true;
  if (budget == 0) return false;
  const NodeId n = net.node_count();
  // Prune: one sender covers at most max out-degree new nodes per round.
  const auto max_gain = static_cast<NodeId>(net.g_csr().max_out_degree());
  if (static_cast<Round>((remaining + max_gain - 1) / max_gain) > budget) {
    return false;
  }
  for (NodeId u = 0; u < n; ++u) {
    if (!covered[static_cast<std::size_t>(u)]) continue;
    std::vector<NodeId> newly;
    for (NodeId v : net.g_csr().row(u)) {
      if (!covered[static_cast<std::size_t>(v)]) newly.push_back(v);
    }
    if (newly.empty()) continue;
    for (NodeId v : newly) covered[static_cast<std::size_t>(v)] = true;
    schedule.senders.push_back(u);
    if (dfs(net, covered, remaining - static_cast<NodeId>(newly.size()),
            budget - 1, schedule)) {
      return true;
    }
    schedule.senders.pop_back();
    for (NodeId v : newly) covered[static_cast<std::size_t>(v)] = false;
  }
  return false;
}

}  // namespace

OracleSchedule exact_oracle_schedule(const DualGraph& net, Round max_rounds) {
  const NodeId n = net.node_count();
  for (Round budget = 0; budget <= max_rounds; ++budget) {
    std::vector<bool> covered(static_cast<std::size_t>(n), false);
    covered[static_cast<std::size_t>(net.source())] = true;
    OracleSchedule schedule;
    if (dfs(net, covered, n - 1, budget, schedule)) return schedule;
  }
  throw std::invalid_argument(
      "no oracle schedule within max_rounds; raise the cap");
}

}  // namespace dualrad::broadcastability
