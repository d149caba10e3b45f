#include "lowerbound/theorem4.hpp"

#include <algorithm>

#include "adversary/basic_adversaries.hpp"
#include "adversary/theorem2_adversary.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "stats/stats.hpp"

namespace dualrad::lowerbound {

Theorem4Result run_theorem4(NodeId n, const ProcessFactory& factory,
                            const std::vector<Round>& ks, std::size_t trials,
                            std::uint64_t seed) {
  DUALRAD_REQUIRE(n >= 4, "theorem 4 harness needs n >= 4");
  DUALRAD_REQUIRE(trials >= 1, "need at least one trial");
  DUALRAD_REQUIRE(!ks.empty(), "need at least one k");
  const DualGraph net = duals::bridge_network(n);
  const auto layout = duals::bridge_layout(n);
  const Round max_k = *std::max_element(ks.begin(), ks.end());

  // completion[i-1][t]: completion round of trial t against bridge id i.
  std::vector<std::vector<Round>> completion(
      static_cast<std::size_t>(n - 2));
  for (ProcessId i = 1; i <= n - 2; ++i) {
    auto& rounds = completion[static_cast<std::size_t>(i - 1)];
    rounds.reserve(trials);
    for (std::size_t t = 0; t < trials; ++t) {
      Theorem2Adversary rules(layout);
      FixedAssignmentAdversary adversary(theorem2_assignment(n, i), rules);
      SimConfig config;
      config.rule = CollisionRule::CR1;
      config.start = StartRule::Synchronous;
      config.max_rounds = max_k;
      config.seed = mix_seed(seed, static_cast<std::uint64_t>(t) * 1000003 +
                                       static_cast<std::uint64_t>(i));
      const SimResult sim = run_broadcast(net, factory, adversary, config);
      rounds.push_back(sim.completed ? sim.completion_round : kNever);
    }
  }

  Theorem4Result result;
  result.n = n;
  for (Round k : ks) {
    Theorem4Point point;
    point.k = k;
    point.bound = static_cast<double>(k) / static_cast<double>(n - 2);
    point.trials = trials;
    point.min_successes = trials + 1;
    double sum_p = 0.0;
    for (ProcessId i = 1; i <= n - 2; ++i) {
      const auto& rounds = completion[static_cast<std::size_t>(i - 1)];
      const auto successes = static_cast<std::size_t>(std::count_if(
          rounds.begin(), rounds.end(),
          [k](Round r) { return r != kNever && r <= k; }));
      sum_p += static_cast<double>(successes) / static_cast<double>(trials);
      if (successes < point.min_successes) {
        point.min_successes = successes;
        point.worst_bridge_id = i;
      }
    }
    point.min_success_prob = static_cast<double>(point.min_successes) /
                             static_cast<double>(trials);
    point.mean_success_prob = sum_p / static_cast<double>(n - 2);
    // Allow Monte-Carlo slack of one Wilson interval.
    const double slack = stats::wilson_half_width(point.min_successes, trials);
    if (point.min_success_prob > point.bound + slack) {
      result.bound_respected = false;
    }
    result.points.push_back(point);
  }
  return result;
}

}  // namespace dualrad::lowerbound
