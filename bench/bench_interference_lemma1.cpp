// F3 — Lemma 1 / Appendix A: dual-graph algorithms run unchanged on
// explicit-interference networks, in exactly the same number of rounds.
//
// The bench runs Strong Select and Harmonic on (G_T, G_I) networks twice:
// natively in the interference simulator, and on the dual graph
// (G = G_T, G' = G_I) driven by the Appendix A simulating adversary.
// Expected: identical completion rounds, all collision rules.

#include "algorithms/harmonic.hpp"
#include "algorithms/strong_select.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "interference/interference.hpp"

using namespace dualrad;

namespace {

/// Lemma 1's reading of (G_T, G_I): the dual graph G = G_T, G' = G_I.
DualGraph make_network(NodeId n, std::uint64_t seed) {
  // G_T: connected random backbone; G_I: G_T plus longer-range interference.
  const CsrGraph gt = gen::gnp_connected(n, 0.04, seed);
  CsrGraphBuilder gi(gt);
  StreamRng rng(mix_seed(seed, 0x1f));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (!gt.contains(u, v) && rng.bernoulli(0.1)) {
        gi.add_undirected_edge(u, v);
      }
    }
  }
  return DualGraph(gt, gi.freeze(RowOrder::Emission), 0);
}

}  // namespace

int main() {
  benchutil::print_header(
      "F3", "Lemma 1 — explicit-interference equivalence",
      "any dual-graph T(n)-round algorithm broadcasts in T(n) rounds on "
      "explicit-interference graphs under the corresponding collision rule");

  stats::Table table({"algorithm", "rule", "n", "interference rounds",
                      "dual-sim rounds", "equal"});
  bool all_equal = true;
  for (const NodeId n : {32, 64, 128}) {
    const DualGraph net = make_network(n, 7);
    struct AlgoSpec {
      const char* name;
      ProcessFactory factory;
    };
    const AlgoSpec algorithms[] = {
        {"strong select", make_strong_select_factory(n)},
        {"harmonic", make_harmonic_factory(n, {.eps = 0.1})},
    };
    for (const auto& algo : algorithms) {
      for (CollisionRule rule : {CollisionRule::CR1, CollisionRule::CR4}) {
        SimConfig config;
        config.rule = rule;
        config.start = StartRule::Synchronous;
        config.max_rounds = 10'000'000;
        config.seed = 3;
        const SimResult iresult =
            run_interference_broadcast(net, algo.factory, config);
        InterferenceSimAdversary adversary(rule);
        const SimResult dresult =
            run_broadcast(net, algo.factory, adversary, config);

        const bool equal = iresult.completion_round == dresult.completion_round;
        all_equal = all_equal && equal;
        table.add_row({algo.name, to_string(rule), std::to_string(n),
                       benchutil::rounds_str(iresult.completion_round),
                       benchutil::rounds_str(dresult.completion_round),
                       equal ? "yes" : "NO"});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nlemma holds on all rows: " << (all_equal ? "yes" : "NO")
            << "\n";
  return 0;
}
