// A4 — ablation: the CMS oblivious baseline's dependence on knowing Delta
// (Section 2.2). The [11] algorithm needs an upper bound on the in-degree
// of G'; Strong Select needs no topology knowledge.
//
// Expected: with the true Delta the baseline completes and beats Strong
// Select when Delta is small (sparse G'); underestimates break or slow the
// isolation guarantee; large overestimates waste schedule length. This is
// exactly the knowledge-vs-robustness trade Section 2.2 describes.

#include "adversary/greedy_blocker.hpp"
#include "algorithms/cms_oblivious.hpp"
#include "algorithms/strong_select.hpp"
#include "bench_util.hpp"
#include "graph/dual_builders.hpp"

using namespace dualrad;

int main() {
  benchutil::print_header(
      "A4", "Ablation — CMS oblivious [11] needs Delta; Strong Select does not",
      "knowledge of the interference in-degree buys speed at small Delta; "
      "wrong knowledge costs completeness or time");

  // Sparse-G' family where CMS shines: backbone with few unreliable links.
  stats::Table table({"network", "n", "true Delta", "delta used",
                      "cms rounds", "strong select rounds"});
  for (std::uint64_t seed : {3, 4}) {
    const DualGraph net = duals::backbone_plus_unreliable(
        {.n = 64, .p_reliable = 0.02, .p_unreliable = 0.05, .seed = seed});
    const NodeId n = net.node_count();
    const auto true_delta =
        static_cast<NodeId>(net.g_prime_csr().max_in_degree());
    GreedyBlockerAdversary greedy;
    SimConfig config;
    config.rule = CollisionRule::CR4;
    config.start = StartRule::Asynchronous;
    config.max_rounds = 5'000'000;
    const Round ss = benchutil::measure_rounds(
        net, make_strong_select_factory(n), greedy, config);
    for (const NodeId delta :
         {static_cast<NodeId>(1), static_cast<NodeId>(true_delta / 2),
          true_delta, static_cast<NodeId>(2 * true_delta)}) {
      if (delta < 1) continue;
      const Round cms = benchutil::measure_rounds(
          net, make_cms_oblivious_factory(n, {.delta = delta}), greedy,
          config);
      table.add_row({"backbone seed=" + std::to_string(seed),
                     std::to_string(n), std::to_string(true_delta),
                     std::to_string(delta), benchutil::rounds_str(cms),
                     benchutil::rounds_str(ss)});
    }
  }
  table.print(std::cout);
  return 0;
}
