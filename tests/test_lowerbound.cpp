#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/scripted_adversary.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/strong_select.hpp"
#include "core/simulator.hpp"
#include "graph/algorithms.hpp"
#include "graph/dual_builders.hpp"
#include "lowerbound/theorem11_network.hpp"
#include "lowerbound/theorem12.hpp"
#include "lowerbound/theorem2.hpp"
#include "lowerbound/theorem4.hpp"
#include "stats/stats.hpp"

namespace dualrad {
namespace {

using lowerbound::run_theorem12;
using lowerbound::run_theorem2;
using lowerbound::run_theorem4;
using lowerbound::theorem12_bound;

// ---------------------------------------------------------------- Theorem 2

TEST(Theorem2, RoundRobinNeedsLinearRounds) {
  const NodeId n = 16;
  const auto result = run_theorem2(n, make_round_robin_factory(n), 10'000);
  EXPECT_TRUE(result.bound_respected);
  // Round robin completes every alpha_i eventually.
  for (Round r : result.rounds_by_bridge_id) EXPECT_NE(r, kNever);
  EXPECT_GE(result.worst_rounds, n - 2);
}

TEST(Theorem2, StrongSelectRespectsBound) {
  const NodeId n = 16;
  const auto result =
      run_theorem2(n, make_strong_select_factory(n), 200'000);
  EXPECT_TRUE(result.bound_respected);
}

TEST(Theorem2, BoundGrowsLinearly) {
  for (NodeId n : {8, 16, 32}) {
    const auto result = run_theorem2(n, make_round_robin_factory(n), 100'000);
    EXPECT_TRUE(result.bound_respected) << n;
    EXPECT_EQ(result.theorem_bound, n - 2);
  }
}

TEST(Theorem2, WorstBridgeIdIsReported) {
  const NodeId n = 12;
  const auto result = run_theorem2(n, make_round_robin_factory(n), 10'000);
  ASSERT_GE(result.worst_bridge_id, 1);
  ASSERT_LE(result.worst_bridge_id, n - 2);
  const Round worst = result.rounds_by_bridge_id[static_cast<std::size_t>(
      result.worst_bridge_id - 1)];
  for (Round r : result.rounds_by_bridge_id) EXPECT_LE(r, worst);
}

// ---------------------------------------------------------------- Theorem 4

TEST(Theorem4, HarmonicSuccessBoundedByKOverN2) {
  const NodeId n = 18;
  const std::vector<Round> ks = {1, 4, 8, 12, 15};
  const auto result =
      run_theorem4(n, make_harmonic_factory(n), ks, /*trials=*/60, /*seed=*/3);
  EXPECT_TRUE(result.bound_respected);
  for (const auto& point : result.points) {
    EXPECT_LE(point.min_success_prob,
              point.bound + 0.15)  // generous MC slack
        << "k=" << point.k;
  }
}

TEST(Theorem4, BoundIncreasesWithK) {
  const NodeId n = 14;
  const std::vector<Round> ks = {2, 6, 10};
  const auto result =
      run_theorem4(n, make_harmonic_factory(n), ks, /*trials=*/40, /*seed=*/5);
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    EXPECT_GE(result.points[i].bound, result.points[i - 1].bound);
  }
}

TEST(Theorem4, SlackComesFromTheMinimumSuccessCount) {
  // The estimate and its Wilson slack read the same integer count: at 150
  // trials, (s / 150) * 150 truncates to s - 1 for s = 55, 79, 97, 110, 123.
  const NodeId n = 12;
  constexpr std::size_t trials = 150;
  const auto result = run_theorem4(n, make_harmonic_factory(n), {1, 3, 6, 9},
                                   trials, /*seed=*/9);
  bool respected = true;
  for (const auto& point : result.points) {
    EXPECT_LE(point.min_successes, trials) << "k=" << point.k;
    EXPECT_EQ(point.min_success_prob,
              static_cast<double>(point.min_successes) /
                  static_cast<double>(trials))
        << "k=" << point.k;
    respected = respected &&
                point.min_success_prob <=
                    point.bound +
                        stats::wilson_half_width(point.min_successes, trials);
  }
  EXPECT_EQ(result.bound_respected, respected);
}

// --------------------------------------------------------------- Theorem 11

TEST(Theorem11, NetworkIsSqrtNBroadcastable) {
  const NodeId n = 100;
  const DualGraph net = lowerbound::theorem11_network(n);
  EXPECT_GE(net.node_count(), n - 1);
  const Round ecc = graphalg::eccentricity(net.g_csr(), net.source());
  const auto layout = lowerbound::theorem11_layout(n);
  EXPECT_EQ(ecc, layout.num_layers);
  EXPECT_FALSE(net.g_csr().is_symmetric());
}

TEST(Theorem11, GPrimeHasForwardSkipLinks) {
  const DualGraph net = lowerbound::theorem11_network(30);
  // Source has unreliable links past the first layer.
  EXPECT_GT(net.unreliable_out(net.source()).size(), 0u);
}

// --------------------------------------------------------------- Theorem 12

TEST(Theorem12, BoundFormula) {
  EXPECT_EQ(theorem12_bound(17), 4 * (4 - 2));    // n-1=16: 4 stages, log=4
  EXPECT_EQ(theorem12_bound(33), 8 * (5 - 2));    // n-1=32
  EXPECT_EQ(theorem12_bound(65), 16 * (6 - 2));   // n-1=64
}

TEST(Theorem12, RoundRobinForcedPastBound) {
  const NodeId n = 17;
  const auto result = run_theorem12(n, make_round_robin_factory(n));
  ASSERT_TRUE(result.valid);
  EXPECT_FALSE(result.stalled);
  EXPECT_EQ(result.stages_completed, result.stages_target);
  EXPECT_GE(result.total_rounds, result.guaranteed_bound);
  EXPECT_EQ(result.covered_processes, 2 * result.stages_target + 1);
  EXPECT_LT(result.covered_processes, n);
}

TEST(Theorem12, RoundRobinScalesAsNLogN) {
  Round prev = 0;
  for (NodeId n : {9, 17, 33}) {
    const auto result = run_theorem12(n, make_round_robin_factory(n));
    ASSERT_TRUE(result.valid) << n;
    EXPECT_GE(result.total_rounds, theorem12_bound(n));
    EXPECT_GT(result.total_rounds, prev);
    prev = result.total_rounds;
  }
}

TEST(Theorem12, StrongSelectForcedPastBoundOrStalled) {
  const NodeId n = 17;
  const auto result = run_theorem12(n, make_strong_select_factory(n));
  ASSERT_TRUE(result.valid);
  if (!result.stalled) {
    EXPECT_GE(result.total_rounds, result.guaranteed_bound);
    EXPECT_LT(result.covered_processes, n);
  } else {
    // Even stronger: the algorithm never isolates the frontier again, so the
    // broadcast never completes at all.
    EXPECT_LT(result.covered_processes, n);
  }
}

TEST(Theorem12, StageLengthsAtLeastLogMinusTwo) {
  const NodeId n = 33;  // log2(32) = 5, so each stage >= 3 rounds + round 0
  const auto result = run_theorem12(n, make_round_robin_factory(n));
  ASSERT_TRUE(result.valid);
  // stage_lengths[0] is alpha_0; stages follow.
  for (std::size_t s = 1; s < result.stage_lengths.size(); ++s) {
    EXPECT_GE(result.stage_lengths[s], 5 - 2) << "stage " << s;
  }
}

TEST(Theorem12, ReplayScriptIsALegalExecution) {
  const NodeId n = 17;
  lowerbound::Theorem12Options options;
  options.build_script = true;
  const auto result = run_theorem12(n, make_round_robin_factory(n), options);
  ASSERT_TRUE(result.valid);
  ASSERT_FALSE(result.script.process_of_node.empty());

  // Replay inside the real simulator with the scripted adversary: the
  // algorithm must fail to complete within the constructed prefix, and
  // exactly the constructed processes must be covered.
  const DualGraph net = duals::theorem12_network(n);
  ScriptedAdversary adversary(result.script);
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = result.total_rounds;
  config.stop_on_completion = false;
  const SimResult sim =
      run_broadcast(net, make_round_robin_factory(n), adversary, config);
  EXPECT_FALSE(sim.completed);

  // Covered set must be exactly the assigned processes: source + pairs.
  std::vector<bool> should_be_covered(static_cast<std::size_t>(n), false);
  should_be_covered[0] = true;
  for (const auto& [i1, i2] : result.stage_pairs) {
    should_be_covered[static_cast<std::size_t>(i1)] = true;
    should_be_covered[static_cast<std::size_t>(i2)] = true;
  }
  for (NodeId v = 0; v < n; ++v) {
    const ProcessId pid = sim.process_of_node[static_cast<std::size_t>(v)];
    const bool covered = sim.first_token[static_cast<std::size_t>(v)] != kNever;
    EXPECT_EQ(covered, should_be_covered[static_cast<std::size_t>(pid)])
        << "process " << pid;
  }
}

TEST(Theorem12, RejectsBadN) {
  EXPECT_THROW(run_theorem12(12, make_round_robin_factory(12)),
               std::invalid_argument);
  EXPECT_THROW(run_theorem12(8, make_round_robin_factory(8)),
               std::invalid_argument);
}

TEST(Theorem12, PairsAreDisjointAndUnassigned) {
  const NodeId n = 33;
  const auto result = run_theorem12(n, make_round_robin_factory(n));
  ASSERT_TRUE(result.valid);
  std::vector<ProcessId> seen{0};
  for (const auto& [i1, i2] : result.stage_pairs) {
    EXPECT_NE(i1, i2);
    for (ProcessId p : {i1, i2}) {
      EXPECT_EQ(std::count(seen.begin(), seen.end(), p), 0);
      seen.push_back(p);
    }
  }
}

}  // namespace
}  // namespace dualrad
