// Quickstart: build a dual graph network, run the paper's two algorithms
// against an adversary, and print what happened.
//
//   $ ./quickstart
//
// Walks through the core API: dual graph construction, process factories,
// adversaries, and the simulator.

#include <cstdio>

#include "adversary/greedy_blocker.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/strong_select.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"

int main() {
  using namespace dualrad;

  // A "gray zone" radio network: nodes scattered in the unit square,
  // reliable links below one radius, flaky links up to a longer radius.
  duals::GrayZoneParams params;
  params.n = 48;
  params.r_reliable = 0.22;
  params.r_gray = 0.5;
  params.seed = 2026;
  const DualGraph net = duals::gray_zone(params);
  std::printf("network: n=%d reliable edges=%zu unreliable edges=%zu\n",
              net.node_count(), net.g_csr().edge_count(),
              net.unreliable_edge_count());

  // The adversary controls when unreliable links deliver; the greedy blocker
  // fires them to convert solo deliveries into collisions.
  GreedyBlockerAdversary adversary;

  SimConfig config;
  config.rule = CollisionRule::CR4;        // weakest rule: no collision detection
  config.start = StartRule::Asynchronous;  // nodes wake on first reception
  config.max_rounds = 2'000'000;

  // Deterministic: Strong Select (Section 5), O(n^{3/2} sqrt(log n)).
  {
    const ProcessFactory strong_select =
        make_strong_select_factory(net.node_count());
    const SimResult result = run_broadcast(net, strong_select, adversary, config);
    std::printf("strong select : completed=%s rounds=%lld sends=%llu\n",
                result.completed ? "yes" : "no",
                static_cast<long long>(result.completion_round),
                static_cast<unsigned long long>(result.total_sends));
  }

  // Randomized: Harmonic Broadcast (Section 7), O(n log^2 n) w.h.p.
  {
    const ProcessFactory harmonic = make_harmonic_factory(net.node_count());
    const SimResult result = run_broadcast(net, harmonic, adversary, config);
    std::printf("harmonic      : completed=%s rounds=%lld sends=%llu\n",
                result.completed ? "yes" : "no",
                static_cast<long long>(result.completion_round),
                static_cast<unsigned long long>(result.total_sends));
  }
  return 0;
}
