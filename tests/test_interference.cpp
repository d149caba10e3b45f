#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/strong_select.hpp"
#include "core/simulator.hpp"
#include "graph/generators.hpp"
#include "interference/interference.hpp"
#include "test_util.hpp"

namespace dualrad {
namespace {

using testing::scripted_factory;

/// Path 0-1-2 where G_I adds the 0-2 interference edge.
InterferenceNetwork tiny_inet() {
  Graph gt = gen::path(3);
  Graph gi = gen::path(3);
  gi.add_undirected_edge(0, 2);
  return InterferenceNetwork(std::move(gt), std::move(gi), 0);
}

TEST(InterferenceNetwork, ValidatesInputs) {
  Graph gt(3), gi(3);
  gt.add_undirected_edge(0, 1);
  gt.add_undirected_edge(1, 2);
  gi.add_undirected_edge(0, 1);
  // G_T not a subgraph of G_I:
  EXPECT_THROW(InterferenceNetwork(gt, gi, 0), std::invalid_argument);
  // Different vertex sets:
  EXPECT_THROW(InterferenceNetwork(gen::path(3), gen::path(4), 0),
               std::invalid_argument);
  // Source out of range:
  EXPECT_THROW(InterferenceNetwork(gen::path(3), gen::path(3), 3),
               std::invalid_argument);
  // Node 2 unreachable from the source in G_T:
  Graph gt_cut(3);
  gt_cut.add_undirected_edge(0, 1);
  EXPECT_THROW(InterferenceNetwork(gt_cut, gen::path(3), 0),
               std::invalid_argument);
  // The model fixes n >= 2: a 1-node network is refused when it is built.
  EXPECT_THROW(InterferenceNetwork(Graph(1), Graph(1), 0),
               std::invalid_argument);
}

TEST(InterferenceModel, MessagesOnlyConveyOverGt) {
  // Node 0 sends alone: node 1 (G_T neighbor) receives; node 2 (G_I-only
  // neighbor) hears silence even though the message "reached" it.
  const InterferenceNetwork net = tiny_inet();
  const auto factory = scripted_factory({{0, {1}}});
  InterferenceConfig config;
  config.rule = CollisionRule::CR1;
  config.max_rounds = 1;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const auto result = run_interference_broadcast(net, factory, config);
  const SparseRound round = testing::decode_rounds(result.trace, 3)[0];
  EXPECT_TRUE(testing::reception_at(round, 1).has_token());
  EXPECT_TRUE(testing::reception_at(round, 2).is_silence());
  // The trace records every node the message reached: node 0's G_T row,
  // then its G_I-only row.
  ASSERT_EQ(round.senders.size(), 1u);
  EXPECT_EQ(testing::reach_of(round, 0), (std::vector<NodeId>{1, 2}));
}

TEST(InterferenceModel, GiOnlyEdgeStillCollides) {
  // Nodes 0 and 1 send: node 2 is reached by 1 (G_T) and 0 (G_I-only):
  // two messages reach it, so CR1 reports a collision.
  const InterferenceNetwork net = tiny_inet();
  const auto factory = scripted_factory({{0, {1}}, {1, {1}}});
  InterferenceConfig config;
  config.rule = CollisionRule::CR1;
  config.max_rounds = 1;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const auto result = run_interference_broadcast(net, factory, config);
  EXPECT_TRUE(
      testing::reception_at(testing::decode_rounds(result.trace, 3)[0], 2)
          .is_collision());
}

TEST(InterferenceModel, CompletesWithClassicalGraphs) {
  // With G_T == G_I the model degenerates to the classical radio model.
  Graph gt = gen::path(6);
  Graph gi = gen::path(6);
  const InterferenceNetwork net(std::move(gt), std::move(gi), 0);
  const auto factory = make_round_robin_factory(6);
  InterferenceConfig config;
  config.rule = CollisionRule::CR3;
  config.max_rounds = 10'000;
  const auto result = run_interference_broadcast(net, factory, config);
  EXPECT_TRUE(result.completed);
}

// ------------------------------------------------- Lemma 1 equivalence

struct Lemma1Param {
  std::string algorithm;
  std::string topology;
  CollisionRule rule;
  StartRule start;
};

std::string lemma1_name(const ::testing::TestParamInfo<Lemma1Param>& info) {
  return info.param.algorithm + "_" + info.param.topology + "_" +
         to_string(info.param.rule) + "_" +
         (info.param.start == StartRule::Synchronous ? "sync" : "async");
}

InterferenceNetwork make_inet(const std::string& topology) {
  if (topology == "pathPlus") {
    Graph gt = gen::path(8);
    Graph gi = gen::path(8);
    for (NodeId u = 0; u < 8; ++u) {
      for (NodeId v = u + 2; v < std::min<NodeId>(8, u + 4); ++v) {
        gi.add_undirected_edge(u, v);
      }
    }
    return InterferenceNetwork(std::move(gt), std::move(gi), 0);
  }
  if (topology == "starOverRing") {
    Graph gt = gen::cycle(9);
    Graph gi = gen::cycle(9);
    for (NodeId v = 2; v < 9; v += 2) gi.add_undirected_edge(0, v);
    return InterferenceNetwork(std::move(gt), std::move(gi), 0);
  }
  if (topology == "bridgeLike") {
    Graph gt = gen::clique(7);
    Graph gi = gen::clique(8);
    Graph gt8(8);
    for (const auto& [u, v] : gt.edges()) gt8.add_edge(u, v);
    gt8.add_undirected_edge(1, 7);
    return InterferenceNetwork(std::move(gt8), std::move(gi), 0);
  }
  throw std::invalid_argument("unknown topology " + topology);
}

ProcessFactory lemma1_factory(const std::string& algorithm, NodeId n) {
  if (algorithm == "strongSelect") return make_strong_select_factory(n);
  if (algorithm == "harmonic") return make_harmonic_factory(n, {.T = 6});
  if (algorithm == "roundRobin") return make_round_robin_factory(n);
  throw std::invalid_argument("unknown algorithm " + algorithm);
}

class Lemma1Equivalence : public ::testing::TestWithParam<Lemma1Param> {};

TEST_P(Lemma1Equivalence, DualSimulationMatchesRoundByRound) {
  const auto& param = GetParam();
  const InterferenceNetwork inet = make_inet(param.topology);
  const NodeId n = inet.node_count();
  const ProcessFactory factory = lemma1_factory(param.algorithm, n);
  const Round horizon = 4096;

  InterferenceConfig iconfig;
  iconfig.rule = param.rule;
  iconfig.start = param.start;
  iconfig.max_rounds = horizon;
  iconfig.trace = TraceLevel::Compressed;
  iconfig.seed = 11;
  const InterferenceResult iresult =
      run_interference_broadcast(inet, factory, iconfig);

  const DualGraph dual = inet.to_dual();
  InterferenceSimAdversary adversary(inet, param.rule);
  SimConfig dconfig;
  dconfig.rule = param.rule;
  dconfig.start = param.start;
  dconfig.max_rounds = horizon;
  dconfig.trace = TraceLevel::Compressed;
  dconfig.seed = 11;
  const SimResult dresult = run_broadcast(dual, factory, adversary, dconfig);

  // Lemma 1: identical feedback at every node in every round, hence the
  // same completion round.
  EXPECT_EQ(iresult.completed, dresult.completed);
  EXPECT_EQ(iresult.completion_round, dresult.completion_round);
  const std::vector<SparseRound> irounds =
      testing::decode_rounds(iresult.trace, n);
  const std::vector<SparseRound> drounds =
      testing::decode_rounds(dresult.trace, n);
  ASSERT_EQ(irounds.size(), drounds.size());
  for (std::size_t r = 0; r < irounds.size(); ++r) {
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(testing::reception_at(irounds[r], v),
                testing::reception_at(drounds[r], v))
          << "round " << (r + 1) << " node " << v;
    }
  }
}

std::vector<Lemma1Param> lemma1_params() {
  std::vector<Lemma1Param> params;
  for (const char* algorithm : {"strongSelect", "harmonic", "roundRobin"}) {
    for (const char* topology : {"pathPlus", "starOverRing", "bridgeLike"}) {
      for (CollisionRule rule :
           {CollisionRule::CR1, CollisionRule::CR2, CollisionRule::CR3,
            CollisionRule::CR4}) {
        params.push_back({algorithm, topology, rule, StartRule::Synchronous});
      }
      params.push_back({algorithm, topology, CollisionRule::CR4,
                        StartRule::Asynchronous});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Lemma1Equivalence,
                         ::testing::ValuesIn(lemma1_params()), lemma1_name);

}  // namespace
}  // namespace dualrad
