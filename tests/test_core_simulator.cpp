#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

#include "adversary/basic_adversaries.hpp"
#include "byz/plan.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace dualrad {
namespace {

using testing::scripted_factory;

/// Path network 0 - 1 - 2 with G' = G plus {0,2}.
DualGraph tiny_net() {
  CsrGraphBuilder gp(gen::path(3));
  gp.add_undirected_edge(0, 2);
  return DualGraph(gen::path(3), gp.freeze(RowOrder::Emission), 0);
}

SimConfig sync_config(CollisionRule rule, Round max_rounds = 16) {
  SimConfig config;
  config.rule = rule;
  config.start = StartRule::Synchronous;
  config.max_rounds = max_rounds;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  return config;
}

/// Round `round` of the result's trace, decoded.
SparseRound round_of(const SimResult& result, Round round) {
  SparseRound out;
  result.trace.decode_round(static_cast<std::size_t>(round - 1),
                            static_cast<NodeId>(result.process_of_node.size()),
                            out);
  return out;
}

Reception reception_of(const SimResult& result, Round round, NodeId node) {
  return testing::reception_at(round_of(result, round), node);
}

// -------------------------------------------------------------- delivery

TEST(SparseEngine, ReliableEdgesAlwaysDeliver) {
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  const auto factory = scripted_factory({{0, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR1));
  // Node 1 hears the source's message in round 1; node 2 hears silence
  // (the 0-2 edge is unreliable and the benign adversary never fires it).
  EXPECT_TRUE(reception_of(result, 1, 1).has_token());
  EXPECT_TRUE(reception_of(result, 1, 2).is_silence());
  EXPECT_EQ(result.first_token[1], 1);
  EXPECT_EQ(result.first_token[2], kNever);
}

TEST(SparseEngine, UnreliableEdgeFiresWhenAdversaryChooses) {
  const DualGraph net = tiny_net();
  FullInterferenceAdversary adversary;
  const auto factory = scripted_factory({{0, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR1));
  EXPECT_TRUE(reception_of(result, 1, 2).has_token());
  EXPECT_EQ(result.first_token[2], 1);
}

TEST(SparseEngine, SourceStartsCovered) {
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  const auto factory = scripted_factory({});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR1, 2));
  EXPECT_EQ(result.first_token[0], 0);
  EXPECT_FALSE(result.completed);
}

TEST(SparseEngine, CompletionRoundIsFirstFullCoverage) {
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  // 0 sends round 1 (covers 1); 1 sends round 2 (covers 2).
  const auto factory = scripted_factory({{0, {1}}, {1, {2}}});
  SimConfig config = sync_config(CollisionRule::CR1, 8);
  const SimResult result = run_broadcast(net, factory, adversary, config);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.completion_round, 2);
  EXPECT_EQ(result.first_token[2], 2);
}

// -------------------------------------------------------- collision rules

TEST(CollisionRules, CR1SenderDetectsCollision) {
  // Nodes 0 and 1 both send in round 1; under CR1 both receive top (their
  // own message collides with the other's).
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  const auto factory = scripted_factory({{0, {1}}, {1, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR1));
  EXPECT_TRUE(reception_of(result, 1, 0).is_collision());
  EXPECT_TRUE(reception_of(result, 1, 1).is_collision());
}

TEST(CollisionRules, CR1SoloSenderHearsOwnMessage) {
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  const auto factory = scripted_factory({{0, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR1));
  const auto& rec = reception_of(result, 1, 0);
  ASSERT_TRUE(rec.is_message());
  EXPECT_EQ(rec.message->origin, 0);
}

TEST(CollisionRules, CR2SenderAlwaysHearsOwnMessage) {
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  const auto factory = scripted_factory({{0, {1}}, {1, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR2));
  // Senders hear their own message even though two messages reached them.
  ASSERT_TRUE(reception_of(result, 1, 0).is_message());
  EXPECT_EQ(reception_of(result, 1, 0).message->origin, 0);
  ASSERT_TRUE(reception_of(result, 1, 1).is_message());
  EXPECT_EQ(reception_of(result, 1, 1).message->origin, 1);
  // Node 2: only node 1's message reached it (path topology), so it simply
  // receives that message.
  ASSERT_TRUE(reception_of(result, 1, 2).is_message());
  EXPECT_EQ(reception_of(result, 1, 2).message->origin, 1);
}

TEST(CollisionRules, CR2NonSenderGetsNotification) {
  const DualGraph net = make_classical(gen::clique(3), 0);
  BenignAdversary adversary;
  const auto factory = scripted_factory({{0, {1}}, {1, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR2));
  EXPECT_TRUE(reception_of(result, 1, 2).is_collision());
}

TEST(CollisionRules, CR3NonSenderHearsSilenceOnCollision) {
  const DualGraph net = make_classical(gen::clique(3), 0);
  BenignAdversary adversary;
  const auto factory = scripted_factory({{0, {1}}, {1, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR3));
  EXPECT_TRUE(reception_of(result, 1, 2).is_silence());
  // But the collision is still accounted in the trace.
  EXPECT_GE(result.total_collision_events, 1u);
}

TEST(CollisionRules, CR4AdversaryMayDeliverOneMessage) {
  const DualGraph net = make_classical(gen::clique(3), 0);
  FullInterferenceAdversary adversary(/*deliver_on_cr4=*/true);
  const auto factory = scripted_factory({{0, {1}}, {1, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR4));
  const auto& rec = reception_of(result, 1, 2);
  ASSERT_TRUE(rec.is_message());
  EXPECT_EQ(rec.message->origin, 0);  // smallest-id rule
}

TEST(CollisionRules, CR4DefaultsToSilence) {
  const DualGraph net = make_classical(gen::clique(3), 0);
  BenignAdversary adversary;
  const auto factory = scripted_factory({{0, {1}}, {1, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR4));
  EXPECT_TRUE(reception_of(result, 1, 2).is_silence());
}

// ------------------------------------------------------------ start rules

TEST(StartRules, AsynchronousProcessesSleepUntilMessage) {
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  // Node 1 is scripted to send every round, but under async start it sleeps
  // until it receives the source's round-2 message.
  const auto factory = scripted_factory({{0, {2}}, {1, {1, 2, 3}}});
  SimConfig config = sync_config(CollisionRule::CR1, 4);
  config.start = StartRule::Asynchronous;
  const SimResult result = run_broadcast(net, factory, adversary, config);
  // Round 1: node 1 asleep, nothing happens anywhere.
  EXPECT_TRUE(reception_of(result, 1, 0).is_silence());
  // Round 2: source sends, node 1 wakes with the message.
  EXPECT_TRUE(reception_of(result, 2, 1).has_token());
  // Round 3: node 1 is awake now and its script says send.
  ASSERT_TRUE(reception_of(result, 3, 2).is_message());
  EXPECT_EQ(reception_of(result, 3, 2).message->origin, 1);
}

TEST(StartRules, CollisionDoesNotWakeAsleepProcess) {
  // Diamond: 0 - {1, 3} - 2. Round 1: source covers 1 and 3. Round 2: both
  // 1 and 3 send, so node 2 hears top, stays asleep, and its scripted
  // round-3 send never happens.
  CsrGraphBuilder g(4);
  g.add_undirected_edge(0, 1);
  g.add_undirected_edge(0, 3);
  g.add_undirected_edge(1, 2);
  g.add_undirected_edge(3, 2);
  const DualGraph net = make_classical(g.freeze(RowOrder::Emission), 0);
  BenignAdversary adversary;
  const auto factory =
      scripted_factory({{0, {1}}, {1, {2}}, {3, {2}}, {2, {3}}});
  SimConfig config = sync_config(CollisionRule::CR1, 4);
  config.start = StartRule::Asynchronous;
  const SimResult result = run_broadcast(net, factory, adversary, config);
  EXPECT_TRUE(reception_of(result, 2, 2).is_collision());
  EXPECT_EQ(result.first_token[2], kNever);
  EXPECT_TRUE(round_of(result, 3).senders.empty());
}

TEST(StartRules, SynchronousEveryoneAwakeRoundOne) {
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  const auto factory = scripted_factory({{2, {1}}});  // node 2 has no token
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR1));
  // Node 2 is awake and sends a tokenless message to node 1.
  ASSERT_TRUE(reception_of(result, 1, 1).is_message());
  EXPECT_FALSE(reception_of(result, 1, 1).message->token);
}

// ------------------------------------------------------------- accounting

TEST(SparseEngine, SendAndCollisionCounters) {
  const DualGraph net = make_classical(gen::clique(3), 0);
  BenignAdversary adversary;
  const auto factory = scripted_factory({{0, {1, 2}}, {1, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR1, 2));
  EXPECT_EQ(result.total_sends, 3u);
  // Round 1: all three nodes see two arrivals each; round 2's lone sender
  // collides nowhere.
  EXPECT_EQ(result.total_collision_events, 3u);
  EXPECT_EQ(round_of(result, 1).senders.size(), 2u);
  EXPECT_EQ(round_of(result, 2).senders.size(), 1u);
}

TEST(SparseEngine, CollisionEventsExcludeSendersUnderCR2ToCR4) {
  // Regression: on a 3-clique with nodes 0 and 1 both sending, every node
  // is reached by two messages. Under CR1 all three observe a collision;
  // under CR2-CR4 the two senders deterministically hear their own message,
  // so only the non-sender (node 2) observes one.
  for (const CollisionRule rule :
       {CollisionRule::CR2, CollisionRule::CR3, CollisionRule::CR4}) {
    const DualGraph net = make_classical(gen::clique(3), 0);
    BenignAdversary adversary;
    const auto factory = scripted_factory({{0, {1}}, {1, {1}}});
    const SimResult result =
        run_broadcast(net, factory, adversary, sync_config(rule, 1));
    EXPECT_EQ(result.total_collision_events, 1u) << to_string(rule);
  }
}

TEST(SparseEngine, SoleSenderProducesNoCollisionEvents) {
  // A lone sender's own message reaching it is one arrival, never a
  // collision — under any rule.
  for (const CollisionRule rule : {CollisionRule::CR1, CollisionRule::CR2,
                                   CollisionRule::CR3, CollisionRule::CR4}) {
    const DualGraph net = make_classical(gen::clique(3), 0);
    BenignAdversary adversary;
    const auto factory = scripted_factory({{0, {1}}});
    const SimResult result =
        run_broadcast(net, factory, adversary, sync_config(rule, 1));
    EXPECT_EQ(result.total_collision_events, 0u) << to_string(rule);
  }
}

TEST(SparseEngine, ProcMappingIsPermutation) {
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  const auto factory = scripted_factory({});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR1, 1));
  std::vector<bool> seen(3, false);
  for (ProcessId p : result.process_of_node) {
    seen[static_cast<std::size_t>(p)] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(SparseEngine, FixedAssignmentPlacesProcesses) {
  const DualGraph net = tiny_net();
  BenignAdversary inner;
  FixedAssignmentAdversary adversary({2, 0, 1}, inner);
  // Process 2 sits at the source node: it gets the token at activation.
  const auto factory = scripted_factory({{2, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR1, 2));
  EXPECT_EQ(result.process_of_node[0], 2);
  EXPECT_TRUE(reception_of(result, 1, 1).has_token());
}

TEST(SparseEngine, TraceRecordsReachSets) {
  const DualGraph net = tiny_net();
  FullInterferenceAdversary adversary;
  const auto factory = scripted_factory({{0, {1}}});
  const SimResult result =
      run_broadcast(net, factory, adversary, sync_config(CollisionRule::CR1, 1));
  ASSERT_EQ(result.trace.compressed_rounds(), 1u);
  const SparseRound round = round_of(result, 1);
  ASSERT_EQ(round.senders.size(), 1u);
  EXPECT_EQ(round.senders[0].node, 0);
  // Reached node 1 (reliable) and node 2 (unreliable, fired).
  EXPECT_EQ(round.reach(round.senders[0]).size(), 2u);
}

TEST(SparseEngine, StopsAtMaxRounds) {
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  const auto factory = scripted_factory({});
  SimConfig config = sync_config(CollisionRule::CR1, 5);
  const SimResult result = run_broadcast(net, factory, adversary, config);
  EXPECT_EQ(result.rounds_executed, 5);
  EXPECT_FALSE(result.completed);
}

// ---------------------------------------------------- token-source validation

TEST(TokenSourceValidation, AcceptsDistinctInRangeSources) {
  EXPECT_NO_THROW(validate_token_sources(5, {0, 2, 4}));
  EXPECT_NO_THROW(validate_token_sources(1, {0}));
  EXPECT_NO_THROW(validate_token_sources(3, {}));  // empty = net.source()
}

TEST(TokenSourceValidation, RejectsOutOfRangeSources) {
  try {
    validate_token_sources(3, {0, 3});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("token source out of range"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(validate_token_sources(3, {-1}), std::invalid_argument);
}

TEST(TokenSourceValidation, RejectsDuplicateSources) {
  try {
    validate_token_sources(4, {1, 2, 1});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("token sources must be distinct"),
              std::string::npos)
        << e.what();
  }
}

TEST(TokenSourceValidation, RejectsSourceCountReachingForgedTokenBand) {
  // Token ids are 1..k, so k == kForgedTokenBase sources would mint a
  // legitimate id inside the reserved forged band.
  const std::size_t k = static_cast<std::size_t>(byz::kForgedTokenBase);
  std::vector<NodeId> sources(k);
  std::iota(sources.begin(), sources.end(), NodeId{0});
  try {
    validate_token_sources(static_cast<NodeId>(k), sources);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("too many token sources"),
              std::string::npos)
        << e.what();
  }
}

TEST(TokenSourceValidation, EngineRejectsBadSourcesUpFront) {
  const DualGraph net = tiny_net();
  BenignAdversary adversary;
  const auto factory = scripted_factory({});
  SimConfig config = sync_config(CollisionRule::CR1, 2);
  config.token_sources = {0, 0};
  EXPECT_THROW(run_broadcast(net, factory, adversary, config),
               std::invalid_argument);
  config.token_sources = {0, 99};
  EXPECT_THROW(run_broadcast(net, factory, adversary, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace dualrad
