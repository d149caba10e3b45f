#include <gtest/gtest.h>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "adversary/scripted_adversary.hpp"
#include "adversary/theorem2_adversary.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "byz/plan.hpp"
#include "core/reference_engine.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace dualrad {
namespace {

using testing::scripted_factory;

/// Path 0 - 1 - 2 with G' = G plus {0, 2}.
DualGraph shortcut_path() {
  CsrGraphBuilder gp(gen::path(3));
  gp.add_undirected_edge(0, 2);
  return DualGraph(gen::path(3), gp.freeze(RowOrder::Emission), 0);
}

AdversaryView make_view(const DualGraph& net,
                        const std::vector<ProcessId>& mapping,
                        const NodeFlags& covered, Round round) {
  return AdversaryView::of(net, mapping, covered, {}, round);
}

/// Drive one choose_unreliable_reach call through a fresh ReachSink and
/// return the per-sender rows (the old vector-of-vectors shape, for easy
/// assertions).
std::vector<std::vector<NodeId>> collect_reach(
    Adversary& adversary, const AdversaryView& view,
    const std::vector<NodeId>& senders) {
  ReachSink sink;
  sink.begin_round(senders.size());
  adversary.choose_unreliable_reach(view, senders, sink);
  sink.seal();
  std::vector<std::vector<NodeId>> out(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    const auto row = sink.extras(i);
    out[i].assign(row.begin(), row.end());
  }
  return out;
}

// --------------------------------------------------------------- Bernoulli

TEST(Bernoulli, FiresSubsetOfUnreliableEdges) {
  const DualGraph net = duals::bridge_network(10);
  BernoulliAdversary adversary(0.5, 3);
  adversary.on_execution_start(net);
  std::vector<ProcessId> mapping(10);
  std::iota(mapping.begin(), mapping.end(), 0);
  NodeFlags covered(10, 0);
  const auto view = make_view(net, mapping, covered, 1);
  const std::vector<NodeId> senders = {2, 3};
  const auto reach = collect_reach(adversary, view, senders);
  ASSERT_EQ(reach.size(), 2u);
  for (std::size_t i = 0; i < senders.size(); ++i) {
    for (NodeId v : reach[i]) {
      EXPECT_TRUE(net.g_prime_csr().contains(senders[i], v));
      EXPECT_FALSE(net.g_csr().contains(senders[i], v));
    }
  }
}

TEST(Bernoulli, IsDeterministicGivenSeed) {
  const DualGraph net = duals::bridge_network(12);
  const ProcessFactory factory = make_round_robin_factory(12);
  SimConfig config;
  config.max_rounds = 10'000;
  BernoulliAdversary a1(0.3, 42), a2(0.3, 42);
  const SimResult r1 = run_broadcast(net, factory, a1, config);
  const SimResult r2 = run_broadcast(net, factory, a2, config);
  EXPECT_EQ(r1.completion_round, r2.completion_round);
  EXPECT_EQ(r1.total_sends, r2.total_sends);
  EXPECT_EQ(r1.first_token, r2.first_token);
}

TEST(Bernoulli, ZeroProbabilityEqualsBenign) {
  const DualGraph net = duals::bridge_network(12);
  const ProcessFactory factory = make_round_robin_factory(12);
  SimConfig config;
  config.max_rounds = 10'000;
  BernoulliAdversary bern(0.0, 42);
  BenignAdversary benign;
  const SimResult r1 = run_broadcast(net, factory, bern, config);
  const SimResult r2 = run_broadcast(net, factory, benign, config);
  EXPECT_EQ(r1.completion_round, r2.completion_round);
  EXPECT_EQ(r1.first_token, r2.first_token);
}

// ----------------------------------------------------------- GreedyBlocker

TEST(GreedyBlocker, JamsSoloDeliveryToUncoveredNode) {
  // Path 0-1-2 with unreliable 0-2: when 1 sends alone toward uncovered 2
  // while 0 also sends, the blocker fires 0->2 to collide... construct:
  // senders {0, 1}; node 2 reliable arrivals: from 1 only (=1); 0 has
  // unreliable edge to 2 => jam.
  const DualGraph net = shortcut_path();
  GreedyBlockerAdversary adversary;
  std::vector<ProcessId> mapping = {0, 1, 2};
  NodeFlags covered = {1, 1, 0};
  const auto view = make_view(net, mapping, covered, 5);
  const auto reach = collect_reach(adversary, view, {0, 1});
  ASSERT_EQ(reach.size(), 2u);
  ASSERT_EQ(reach[0].size(), 1u);  // 0 jams node 2
  EXPECT_EQ(reach[0].front(), 2);
  EXPECT_TRUE(reach[1].empty());
}

TEST(GreedyBlocker, LeavesCoveredNodesAlone) {
  const DualGraph net = shortcut_path();
  GreedyBlockerAdversary adversary;
  std::vector<ProcessId> mapping = {0, 1, 2};
  NodeFlags covered = {1, 1, 1};
  const auto view = make_view(net, mapping, covered, 5);
  const auto reach = collect_reach(adversary, view, {0, 1});
  EXPECT_TRUE(reach[0].empty());
  EXPECT_TRUE(reach[1].empty());
}

TEST(GreedyBlocker, CannotJamLoneSender) {
  const DualGraph net = shortcut_path();
  GreedyBlockerAdversary adversary;
  std::vector<ProcessId> mapping = {0, 1, 2};
  NodeFlags covered = {1, 1, 0};
  const auto view = make_view(net, mapping, covered, 5);
  const auto reach = collect_reach(adversary, view, {1});
  EXPECT_TRUE(reach[0].empty());  // progress is unavoidable
}

TEST(GreedyBlocker, DelaysBroadcastRelativeToBenign) {
  // Round robin has a single sender per round, so the blocker is powerless
  // against it (jamming needs a second sender). Harmonic broadcast has many
  // simultaneous senders, which is exactly what the blocker weaponizes.
  const DualGraph net = duals::layered_complete_gprime(6, 4);
  const ProcessFactory factory = make_harmonic_factory(net.node_count());
  SimConfig config;
  config.max_rounds = 3'000'000;
  config.seed = 5;
  BenignAdversary benign;
  GreedyBlockerAdversary greedy;
  const SimResult fast = run_broadcast(net, factory, benign, config);
  const SimResult slow = run_broadcast(net, factory, greedy, config);
  ASSERT_TRUE(fast.completed);
  ASSERT_TRUE(slow.completed);
  EXPECT_GT(slow.completion_round, fast.completion_round);
  EXPECT_GT(slow.total_collision_events, fast.total_collision_events);
}

TEST(GreedyBlocker, PowerlessAgainstSingleSenderSchedules) {
  // The flip side: round robin isolates every informed node once per n
  // rounds and the blocker cannot interfere with a lone sender.
  const DualGraph net = duals::layered_complete_gprime(6, 4);
  const ProcessFactory factory = make_round_robin_factory(net.node_count());
  SimConfig config;
  config.max_rounds = 1'000'000;
  BenignAdversary benign;
  GreedyBlockerAdversary greedy;
  const SimResult fast = run_broadcast(net, factory, benign, config);
  const SimResult slow = run_broadcast(net, factory, greedy, config);
  ASSERT_TRUE(fast.completed);
  ASSERT_TRUE(slow.completed);
  EXPECT_EQ(slow.completion_round, fast.completion_round);
}

TEST(GreedyBlocker, Cr4HandsOverTokenlessMessage) {
  GreedyBlockerAdversary adversary;
  const DualGraph net = duals::bridge_network(5);
  std::vector<ProcessId> mapping = {0, 1, 2, 3, 4};
  NodeFlags covered(5, 0);
  const auto view = make_view(net, mapping, covered, 1);
  const Message with_token{true, 0, 1, 0};
  const Message without{false, 1, 1, 0};
  const Reception rec = adversary.resolve_cr4(view, 3, {with_token, without});
  ASSERT_TRUE(rec.is_message());
  EXPECT_FALSE(rec.message->token);
  const Reception rec2 = adversary.resolve_cr4(view, 3, {with_token});
  EXPECT_TRUE(rec2.is_silence());
}

// ---------------------------------------------------------------- Theorem2

TEST(Theorem2Adversary, SingleCliqueSenderReachesOnlyClique) {
  const NodeId n = 8;
  const DualGraph net = duals::bridge_network(n);
  const auto layout = duals::bridge_layout(n);
  Theorem2Adversary rules(layout);
  FixedAssignmentAdversary adversary(theorem2_assignment(n, 3), rules);
  // Clique node 2 (not source, not bridge) sends alone in round 1.
  std::vector<std::pair<Round, Reception>> received;
  const auto factory = scripted_factory({{theorem2_assignment(n, 3)[2], {1}}},
                                        &received, n - 1);
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = 1;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const SimResult result = run_broadcast(net, factory, adversary, config);
  // Receiver heard silence; clique nodes heard the message.
  const SparseRound round = testing::decode_rounds(result.trace, n)[0];
  EXPECT_TRUE(testing::reception_at(round, layout.receiver).is_silence());
  EXPECT_TRUE(testing::reception_at(round, 0).is_message());
  EXPECT_TRUE(testing::reception_at(round, layout.bridge).is_message());
}

TEST(Theorem2Adversary, BridgeSoloReachesEveryone) {
  const NodeId n = 8;
  const DualGraph net = duals::bridge_network(n);
  const auto layout = duals::bridge_layout(n);
  Theorem2Adversary rules(layout);
  const auto assignment = theorem2_assignment(n, 4);
  FixedAssignmentAdversary adversary(assignment, rules);
  const auto factory = scripted_factory(
      {{assignment[static_cast<std::size_t>(layout.bridge)], {1}}});
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = 1;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const SimResult result = run_broadcast(net, factory, adversary, config);
  const SparseRound round = testing::decode_rounds(result.trace, n)[0];
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_TRUE(testing::reception_at(round, v).is_message()) << v;
  }
}

TEST(Theorem2Adversary, MultiSenderGivesEveryoneCollision) {
  const NodeId n = 8;
  const DualGraph net = duals::bridge_network(n);
  Theorem2Adversary rules(duals::bridge_layout(n));
  const auto assignment = theorem2_assignment(n, 2);
  FixedAssignmentAdversary adversary(assignment, rules);
  const auto factory =
      scripted_factory({{assignment[2], {1}}, {assignment[3], {1}}});
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = 1;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const SimResult result = run_broadcast(net, factory, adversary, config);
  const SparseRound round = testing::decode_rounds(result.trace, n)[0];
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_TRUE(testing::reception_at(round, v).is_collision()) << v;
  }
}

TEST(Theorem2Assignment, IsPermutationWithPins) {
  const NodeId n = 10;
  for (ProcessId i = 1; i <= n - 2; ++i) {
    const auto assignment = theorem2_assignment(n, i);
    EXPECT_EQ(assignment[0], 0);
    EXPECT_EQ(assignment[1], i);
    EXPECT_EQ(assignment[static_cast<std::size_t>(n - 1)], n - 1);
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (ProcessId p : assignment) {
      ASSERT_FALSE(seen[static_cast<std::size_t>(p)]);
      seen[static_cast<std::size_t>(p)] = true;
    }
  }
  EXPECT_THROW(theorem2_assignment(n, 0), std::invalid_argument);
  EXPECT_THROW(theorem2_assignment(n, n - 1), std::invalid_argument);
}

// ---------------------------------------------------------------- Scripted

TEST(ScriptedAdversary, ReplaysReachChoices) {
  const DualGraph net = shortcut_path();
  AdversaryScript script;
  script.reach.resize(2);
  script.reach[0][0] = {2};  // round 1: sender 0 reaches node 2 unreliably
  ScriptedAdversary adversary(script);
  const auto factory = scripted_factory({{0, {1, 2}}});
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = 2;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const SimResult result = run_broadcast(net, factory, adversary, config);
  const std::vector<SparseRound> rounds =
      testing::decode_rounds(result.trace, 3);
  EXPECT_TRUE(testing::reception_at(rounds[0], 2).is_message());  // scripted
  EXPECT_TRUE(testing::reception_at(rounds[1], 2).is_silence());  // beyond
}

TEST(ScriptedAdversary, ForcesCr4Resolution) {
  const DualGraph net = make_classical(gen::clique(3), 0);
  AdversaryScript script;
  script.cr4.resize(1);
  const Message forced{false, 1, 1, 0};
  script.cr4[0][2] = Reception::of(forced);
  ScriptedAdversary adversary(script);
  const auto factory = scripted_factory({{0, {1}}, {1, {1}}});
  SimConfig config;
  config.rule = CollisionRule::CR4;
  config.start = StartRule::Synchronous;
  config.max_rounds = 1;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const SimResult result = run_broadcast(net, factory, adversary, config);
  const Reception rec =
      testing::reception_at(testing::decode_rounds(result.trace, 3)[0], 2);
  ASSERT_TRUE(rec.is_message());
  EXPECT_EQ(rec.message->origin, 1);
}

// --------------------------------------------------------------- Legality
//
// Every engine guard lives in the shared execution frame or in a kernel;
// each case runs through both engines and must throw std::logic_error from
// each.

void expect_both_engines_reject(const DualGraph& net,
                                const ProcessFactory& factory,
                                Adversary& adversary, const SimConfig& config) {
  EXPECT_THROW((void)run_broadcast(net, factory, adversary, config),
               std::logic_error)
      << "run_broadcast";
  EXPECT_THROW((void)run_broadcast_reference(net, factory, adversary, config),
               std::logic_error)
      << "run_broadcast_reference";
}

/// Sends `token` in round 1 whether or not it holds it.
class TokenSender final : public TokenProcess {
 public:
  TokenSender(ProcessId id, TokenId token) : TokenProcess(id), token_(token) {}
  TokenSender(const TokenSender&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    if (round != 1) return Action::silent();
    return Action::transmit(Message{token_, id(), round, 0});
  }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<TokenSender>(*this);
  }

 private:
  TokenId token_;
};

/// Process 1 sends `token` in round 1 (synchronous start wakes it); the
/// others never send.
void expect_send_rejected(const DualGraph& net, TokenId token,
                          const byz::ByzantinePlan* plan = nullptr) {
  const ProcessFactory factory = [token](ProcessId id, NodeId,
                                         std::uint64_t)
      -> std::unique_ptr<Process> {
    if (id == 1) return std::make_unique<TokenSender>(id, token);
    return std::make_unique<testing::Recorder>(id);
  };
  BenignAdversary adversary;
  SimConfig config;
  config.start = StartRule::Synchronous;
  config.max_rounds = 1;
  config.byzantine = plan;
  expect_both_engines_reject(net, factory, adversary, config);
}

TEST(AdversaryLegality, EnginesRejectIllegalReach) {
  // An adversary that fires a reliable edge as if it were unreliable must be
  // caught by the engine's validation.
  class Cheater : public Adversary {
   public:
    void choose_unreliable_reach(const AdversaryView&,
                                 std::span<const NodeId> senders,
                                 ReachSink& sink) override {
      if (!senders.empty()) sink.add(0, 1);  // 0-1 is reliable
    }
  };
  Cheater adversary;
  SimConfig config;
  config.max_rounds = 1;
  expect_both_engines_reject(shortcut_path(), scripted_factory({{0, {1}}}),
                             adversary, config);
}

TEST(AdversaryLegality, EnginesRejectReachOutsideTheNetwork) {
  class Cheater : public Adversary {
   public:
    void choose_unreliable_reach(const AdversaryView&,
                                 std::span<const NodeId> senders,
                                 ReachSink& sink) override {
      if (!senders.empty()) sink.add(0, 7);  // the network has 3 nodes
    }
  };
  Cheater adversary;
  SimConfig config;
  config.max_rounds = 1;
  expect_both_engines_reject(shortcut_path(), scripted_factory({{0, {1}}}),
                             adversary, config);
}

TEST(AdversaryLegality, EnginesRejectNonPermutationProcMapping) {
  class Cheater : public Adversary {
   public:
    std::vector<ProcessId> assign_processes(const DualGraph&) override {
      return {0, 0, 1};
    }
  };
  Cheater adversary;
  expect_both_engines_reject(shortcut_path(), scripted_factory({}), adversary,
                             SimConfig{});
}

TEST(AdversaryLegality, EnginesRejectBrokenFactories) {
  BenignAdversary adversary;
  const ProcessFactory null_factory =
      [](ProcessId id, NodeId, std::uint64_t) -> std::unique_ptr<Process> {
    if (id == 2) return nullptr;
    return std::make_unique<testing::Recorder>(id);
  };
  expect_both_engines_reject(shortcut_path(), null_factory, adversary,
                             SimConfig{});
  const ProcessFactory wrong_id =
      [](ProcessId id, NodeId, std::uint64_t) -> std::unique_ptr<Process> {
    return std::make_unique<testing::Recorder>(id == 2 ? 1 : id);
  };
  expect_both_engines_reject(shortcut_path(), wrong_id, adversary,
                             SimConfig{});
}

TEST(AdversaryLegality, EnginesRejectIllegalSends) {
  const DualGraph net = shortcut_path();
  // The broadcast token, which only the source holds before round 1.
  expect_send_rejected(net, kBroadcastToken);
  // A token id no source injected.
  expect_send_rejected(net, 7);
  // A forged id that node 1 never received (node 2 forges it).
  byz::ByzantinePlan plan(1);
  plan.add(2, byz::ByzBehavior::Forge);
  plan.bind(net, {}, 5);
  expect_send_rejected(net, plan.faults()[0].forged_token, &plan);
}

TEST(AdversaryLegality, EnginesRejectBadCr4Resolution) {
  class Cheater : public FullInterferenceAdversary {
   public:
    Reception resolve_cr4(const AdversaryView&, NodeId,
                          const std::vector<Message>&) override {
      return Reception::of(Message{true, 99, 0, 0});  // not an arrival
    }
  };
  const DualGraph net = make_classical(gen::clique(3), 0);
  Cheater adversary;
  const auto factory = scripted_factory({{0, {1}}, {1, {1}}});
  SimConfig config;
  config.rule = CollisionRule::CR4;
  config.start = StartRule::Synchronous;
  config.max_rounds = 1;
  expect_both_engines_reject(net, factory, adversary, config);
}

}  // namespace
}  // namespace dualrad
