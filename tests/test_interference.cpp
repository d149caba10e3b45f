#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/strong_select.hpp"
#include "core/simulator.hpp"
#include "graph/generators.hpp"
#include "interference/interference.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

namespace dualrad {
namespace {

using testing::digest;
using testing::scripted_factory;

/// Path 0-1-2 where G_I adds the 0-2 interference edge, read as the dual
/// graph G = G_T, G' = G_I.
DualGraph tiny_net() {
  CsrGraphBuilder gi(gen::path(3));
  gi.add_undirected_edge(0, 2);
  return DualGraph(gen::path(3), gi.freeze(RowOrder::Emission), 0);
}

/// A single-round run on tiny_net, recording the trace.
SimConfig one_round(CollisionRule rule) {
  SimConfig config;
  config.rule = rule;
  config.start = StartRule::Synchronous;
  config.max_rounds = 1;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  return config;
}

TEST(InterferenceModel, MessagesOnlyConveyOverGt) {
  // Node 0 sends alone: node 1 (G_T neighbor) receives; node 2 (G_I-only
  // neighbor) hears silence even though the message "reached" it.
  const auto result = run_interference_broadcast(
      tiny_net(), scripted_factory({{0, {1}}}), one_round(CollisionRule::CR1));
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
  const auto result = run_interference_broadcast(
      tiny_net(), scripted_factory({{0, {1}}, {1, {1}}}),
      one_round(CollisionRule::CR1));
  EXPECT_TRUE(
      testing::reception_at(testing::decode_rounds(result.trace, 3)[0], 2)
          .is_collision());
  // Under CR1 both senders collide too (each is reached by the other).
  EXPECT_EQ(result.total_collision_events, 3u);
}

TEST(InterferenceModel, CompletesWithClassicalGraphs) {
  // With G_T == G_I the model degenerates to the classical radio model.
  const DualGraph net(gen::path(6), gen::path(6), 0);
  SimConfig config;
  config.rule = CollisionRule::CR3;
  config.start = StartRule::Synchronous;
  config.max_rounds = 10'000;
  const auto result =
      run_interference_broadcast(net, make_round_robin_factory(6), config);
  EXPECT_TRUE(result.completed);
}

TEST(InterferenceModel, RejectsTelemetry) {
  obs::RoundTelemetry telemetry;
  SimConfig config;
  config.telemetry = &telemetry;
  EXPECT_THROW((void)run_interference_broadcast(
                   tiny_net(), make_round_robin_factory(3), config),
               std::invalid_argument);
}

TEST(InterferenceModel, ModelEdgeCaseDigestsArePinned) {
  // The executions of test_model_edges.cpp's InterferenceEdges cases; the
  // digests were recorded from the engine before it ran on the execution
  // frame.
  struct Case {
    std::vector<std::pair<ProcessId, std::set<Round>>> scripts;
    CollisionRule rule;
    StartRule start;
    Round rounds;
    const char* digest;
  };
  const Case cases[] = {
      {{{0, {1}}, {2, {1}}}, CollisionRule::CR2, StartRule::Synchronous, 1,
       "124c5c7019392d15/-1/2"},
      {{{0, {1}}, {2, {1}}}, CollisionRule::CR3, StartRule::Synchronous, 1,
       "f3148a3fe4fcc473/-1/2"},
      {{{0, {1}}, {2, {2}}}, CollisionRule::CR1, StartRule::Asynchronous, 3,
       "582b5ee274cb46f7/-1/1"},
  };
  for (const Case& c : cases) {
    SimConfig config = one_round(c.rule);
    config.start = c.start;
    config.max_rounds = c.rounds;
    EXPECT_EQ(digest(run_interference_broadcast(
                  tiny_net(), scripted_factory(c.scripts), config)),
              c.digest)
        << to_string(c.rule);
  }
}

// ------------------------------------------------- Lemma 1 equivalence

struct Lemma1Param {
  std::string algorithm;
  std::string topology;
  CollisionRule rule;
  StartRule start;
};

std::string case_name(const Lemma1Param& param) {
  return param.algorithm + "_" + param.topology + "_" + to_string(param.rule) +
         "_" + (param.start == StartRule::Synchronous ? "sync" : "async");
}

std::string lemma1_name(const ::testing::TestParamInfo<Lemma1Param>& info) {
  return case_name(info.param);
}

/// Each case's interference execution, by test name: digest() as recorded
/// from the engine before it ran on the execution frame.
const std::map<std::string, std::string>& lemma1_digests() {
  static const std::map<std::string, std::string> digests = {
      {"strongSelect_pathPlus_CR1_sync", "8dc31eb639e808e5/55/7"},
      {"strongSelect_pathPlus_CR2_sync", "8dc31eb639e808e5/55/7"},
      {"strongSelect_pathPlus_CR3_sync", "8dc31eb639e808e5/55/7"},
      {"strongSelect_pathPlus_CR4_sync", "8dc31eb639e808e5/55/7"},
      {"strongSelect_pathPlus_CR4_async", "8dc31eb639e808e5/55/7"},
      {"strongSelect_starOverRing_CR1_sync", "af645f11d2d540a2/34/7"},
      {"strongSelect_starOverRing_CR2_sync", "af645f11d2d540a2/34/7"},
      {"strongSelect_starOverRing_CR3_sync", "af645f11d2d540a2/34/7"},
      {"strongSelect_starOverRing_CR4_sync", "af645f11d2d540a2/34/7"},
      {"strongSelect_starOverRing_CR4_async", "af645f11d2d540a2/34/7"},
      {"strongSelect_bridgeLike_CR1_sync", "8daba040dc2e0b0d/10/2"},
      {"strongSelect_bridgeLike_CR2_sync", "8daba040dc2e0b0d/10/2"},
      {"strongSelect_bridgeLike_CR3_sync", "8daba040dc2e0b0d/10/2"},
      {"strongSelect_bridgeLike_CR4_sync", "8daba040dc2e0b0d/10/2"},
      {"strongSelect_bridgeLike_CR4_async", "8daba040dc2e0b0d/10/2"},
      {"harmonic_pathPlus_CR1_sync", "22bb9c85639169dd/34/72"},
      {"harmonic_pathPlus_CR2_sync", "2bddc29555cb4924/34/72"},
      {"harmonic_pathPlus_CR3_sync", "9262a090f6362d2e/34/72"},
      {"harmonic_pathPlus_CR4_sync", "9262a090f6362d2e/34/72"},
      {"harmonic_pathPlus_CR4_async", "9262a090f6362d2e/34/72"},
      {"harmonic_starOverRing_CR1_sync", "fe18d4e32b1395c5/21/79"},
      {"harmonic_starOverRing_CR2_sync", "f339ced4d1d90e3c/21/79"},
      {"harmonic_starOverRing_CR3_sync", "5ed535755118c384/21/79"},
      {"harmonic_starOverRing_CR4_sync", "5ed535755118c384/21/79"},
      {"harmonic_starOverRing_CR4_async", "5ed535755118c384/21/79"},
      {"harmonic_bridgeLike_CR1_sync", "91b6281dc6b39b37/15/72"},
      {"harmonic_bridgeLike_CR2_sync", "97d6c1b8822b518f/15/72"},
      {"harmonic_bridgeLike_CR3_sync", "4d17c53410e6aaac/15/72"},
      {"harmonic_bridgeLike_CR4_sync", "4d17c53410e6aaac/15/72"},
      {"harmonic_bridgeLike_CR4_async", "4d17c53410e6aaac/15/72"},
      {"roundRobin_pathPlus_CR1_sync", "842bae13d4139f7e/14/7"},
      {"roundRobin_pathPlus_CR2_sync", "842bae13d4139f7e/14/7"},
      {"roundRobin_pathPlus_CR3_sync", "842bae13d4139f7e/14/7"},
      {"roundRobin_pathPlus_CR4_sync", "842bae13d4139f7e/14/7"},
      {"roundRobin_pathPlus_CR4_async", "842bae13d4139f7e/14/7"},
      {"roundRobin_starOverRing_CR1_sync", "5ff52f8af287dab3/15/7"},
      {"roundRobin_starOverRing_CR2_sync", "5ff52f8af287dab3/15/7"},
      {"roundRobin_starOverRing_CR3_sync", "5ff52f8af287dab3/15/7"},
      {"roundRobin_starOverRing_CR4_sync", "5ff52f8af287dab3/15/7"},
      {"roundRobin_starOverRing_CR4_async", "5ff52f8af287dab3/15/7"},
      {"roundRobin_bridgeLike_CR1_sync", "1171922d9cec5d4b/9/2"},
      {"roundRobin_bridgeLike_CR2_sync", "1171922d9cec5d4b/9/2"},
      {"roundRobin_bridgeLike_CR3_sync", "1171922d9cec5d4b/9/2"},
      {"roundRobin_bridgeLike_CR4_sync", "1171922d9cec5d4b/9/2"},
      {"roundRobin_bridgeLike_CR4_async", "1171922d9cec5d4b/9/2"},
  };
  return digests;
}

DualGraph make_net(const std::string& topology) {
  if (topology == "pathPlus") {
    CsrGraphBuilder gi(gen::path(8));
    for (NodeId u = 0; u < 8; ++u) {
      for (NodeId v = u + 2; v < std::min<NodeId>(8, u + 4); ++v) {
        gi.add_undirected_edge(u, v);
      }
    }
    return DualGraph(gen::path(8), gi.freeze(RowOrder::Emission), 0);
  }
  if (topology == "starOverRing") {
    CsrGraphBuilder gi(gen::cycle(9));
    for (NodeId v = 2; v < 9; v += 2) gi.add_undirected_edge(0, v);
    return DualGraph(gen::cycle(9), gi.freeze(RowOrder::Emission), 0);
  }
  if (topology == "bridgeLike") {
    CsrGraphBuilder gt8(8);
    for (NodeId u = 0; u < 7; ++u) {
      for (NodeId v = u + 1; v < 7; ++v) gt8.add_undirected_edge(u, v);
    }
    gt8.add_undirected_edge(1, 7);
    return DualGraph(gt8.freeze(RowOrder::Emission), gen::clique(8), 0);
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
  const DualGraph net = make_net(param.topology);
  const NodeId n = net.node_count();
  const ProcessFactory factory = lemma1_factory(param.algorithm, n);

  SimConfig config;
  config.rule = param.rule;
  config.start = param.start;
  config.max_rounds = 4096;
  config.trace = TraceLevel::Compressed;
  config.seed = 11;
  const SimResult iresult = run_interference_broadcast(net, factory, config);
  EXPECT_EQ(digest(iresult), lemma1_digests().at(case_name(param)));

  InterferenceSimAdversary adversary(param.rule);
  const SimResult dresult = run_broadcast(net, factory, adversary, config);

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
