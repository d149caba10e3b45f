// Scenario: running a dual-graph algorithm on an explicit-interference
// network (Lemma 1 / Appendix A).
//
// Builds a (G_T, G_I) network where interference edges can only collide, not
// convey, and runs Strong Select twice: natively in the interference model,
// and in the dual graph (G = G_T, G' = G_I) driven by the Appendix A
// simulating adversary. Prints the first rounds of both traces side by side
// — they are identical, which is the content of Lemma 1.

#include <cstdio>
#include <string>

#include "algorithms/strong_select.hpp"
#include "core/simulator.hpp"
#include "graph/generators.hpp"
#include "interference/interference.hpp"

namespace {

std::string show(const dualrad::Reception& reception) {
  using dualrad::ReceptionKind;
  switch (reception.kind) {
    case ReceptionKind::Silence: return ".";
    case ReceptionKind::Collision: return "T";
    case ReceptionKind::Message:
      return std::string("m").append(
          std::to_string(reception.message->origin));
  }
  return "?";
}

/// One row of the table: every node's reception in round `index` of
/// `trace`, silence for the nodes the decoded round does not list.
std::string show_round(const dualrad::Trace& trace, std::size_t index,
                       dualrad::NodeId n) {
  dualrad::SparseRound round;
  trace.decode_round(index, n, round);
  std::string row;
  auto heard = round.receptions.begin();
  for (dualrad::NodeId v = 0; v < n; ++v) {
    const bool listed = heard != round.receptions.end() && heard->node == v;
    row += show(listed ? (heard++)->reception : dualrad::Reception{}) + " ";
  }
  return row;
}

}  // namespace

int main() {
  using namespace dualrad;

  // Ring with chordal interference from the hub.
  const CsrGraph gt = gen::cycle(10);
  CsrGraphBuilder gi(gt);
  for (NodeId v = 2; v < 10; v += 2) gi.add_undirected_edge(0, v);
  // Lemma 1 reads (G_T, G_I) as the dual graph G = G_T, G' = G_I.
  const DualGraph net(gt, gi.freeze(RowOrder::Emission), 0);
  const NodeId n = net.node_count();
  const ProcessFactory factory = make_strong_select_factory(n);

  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = 100'000;
  config.trace = TraceLevel::Compressed;
  const SimResult interference =
      run_interference_broadcast(net, factory, config);
  InterferenceSimAdversary adversary(CollisionRule::CR1);
  const SimResult dual_run = run_broadcast(net, factory, adversary, config);

  std::printf("interference model completed in %lld rounds;"
              " dual simulation in %lld rounds\n\n",
              static_cast<long long>(interference.completion_round),
              static_cast<long long>(dual_run.completion_round));

  std::printf("%-6s | %-40s | %-40s\n", "round", "interference receptions",
              "dual-graph receptions");
  const std::size_t show_rounds =
      std::min<std::size_t>(10, interference.trace.compressed_rounds());
  for (std::size_t r = 0; r < show_rounds; ++r) {
    const std::string left = show_round(interference.trace, r, n);
    const std::string right = show_round(dual_run.trace, r, n);
    std::printf("%-6zu | %-40s | %-40s\n", r + 1, left.c_str(), right.c_str());
  }
  std::printf("\n('.' silence, 'T' collision notification, 'mX' message from "
              "process X — columns match round for round, per Lemma 1)\n");
  return 0;
}
