// Remaining edge coverage: config validation, reception helpers, message
// semantics, factory misuse, and direct CR semantics in the interference
// model.

#include <gtest/gtest.h>

#include "adversary/basic_adversaries.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/strong_select.hpp"
#include "core/reference_engine.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "interference/interference.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

namespace dualrad {
namespace {

using testing::scripted_factory;

TEST(ModelEdges, ReceptionHelpers) {
  const Reception silence = Reception::silence();
  EXPECT_TRUE(silence.is_silence());
  EXPECT_FALSE(silence.has_token());
  const Reception top = Reception::collision();
  EXPECT_TRUE(top.is_collision());
  EXPECT_FALSE(top.has_token());
  const Message m{true, 3, 7, 9};
  const Reception msg = Reception::of(m);
  EXPECT_TRUE(msg.is_message());
  EXPECT_TRUE(msg.has_token());
  EXPECT_EQ(msg.message->origin, 3);
  const Message plain{false, 3, 7, 9};
  EXPECT_FALSE(Reception::of(plain).has_token());
}

TEST(ModelEdges, MessageValueEquality) {
  const Message a{true, 1, 2, 3};
  Message b = a;
  EXPECT_EQ(a, b);
  b.payload = 4;
  EXPECT_NE(a, b);
}

TEST(ModelEdges, EngineRejectsBadConfig) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimConfig config;
  config.max_rounds = 0;
  EXPECT_THROW(
      (void)run_broadcast(net, make_harmonic_factory(8), adversary, config),
      std::invalid_argument);
  SimConfig ok;
  EXPECT_THROW((void)run_broadcast(net, ProcessFactory{}, adversary, ok),
               std::invalid_argument);
}

TEST(ModelEdges, ReferenceEngineRejectsTelemetry) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  obs::RoundTelemetry telemetry;
  SimConfig config;
  config.telemetry = &telemetry;
  EXPECT_THROW((void)run_broadcast_reference(net, make_harmonic_factory(8),
                                             adversary, config),
               std::invalid_argument);
}

TEST(ModelEdges, FactoryRejectsWrongN) {
  const auto factory = make_strong_select_factory(16);
  EXPECT_THROW(factory(0, 17, 0), std::invalid_argument);
}

TEST(ModelEdges, DualGraphRequiresAtLeastTwoNodes) {
  EXPECT_THROW(DualGraph(CsrGraphBuilder(1).freeze(RowOrder::Emission),
                         CsrGraphBuilder(1).freeze(RowOrder::Emission), 0),
               std::invalid_argument);
}

TEST(ModelEdges, CollisionRuleNames) {
  EXPECT_EQ(to_string(CollisionRule::CR1), "CR1");
  EXPECT_EQ(to_string(CollisionRule::CR4), "CR4");
  EXPECT_EQ(to_string(StartRule::Synchronous), "sync-start");
  EXPECT_EQ(to_string(StartRule::Asynchronous), "async-start");
}

TEST(ModelEdges, TokenProcessRejectsDoubleActivation) {
  const auto factory = make_harmonic_factory(8);
  auto p = factory(1, 8, 0);
  p->on_activate(0, std::nullopt);
  EXPECT_THROW(p->on_activate(1, std::nullopt), std::logic_error);
}

TEST(ModelEdges, LayerOffsetsRejectEmptyLayers) {
  EXPECT_THROW(gen::layer_offsets({1, 0, 2}), std::invalid_argument);
}

TEST(InterferenceEdges, Cr2SenderHearsOwnDespiteInterference) {
  // Sender u with an interfering G_I neighbor still hears its own message
  // under CR2 (cannot sense the medium while sending).
  CsrGraphBuilder gi(gen::path(3));  // (G_T, G_I): G_I adds {0, 2}
  gi.add_undirected_edge(0, 2);
  const DualGraph net(gen::path(3), gi.freeze(RowOrder::Emission), 0);
  const auto factory = scripted_factory({{0, {1}}, {2, {1}}});
  SimConfig config;
  config.rule = CollisionRule::CR2;
  config.start = StartRule::Synchronous;
  config.max_rounds = 1;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const auto result = run_interference_broadcast(net, factory, config);
  const SparseRound round = testing::decode_rounds(result.trace, 3)[0];
  const Reception own0 = testing::reception_at(round, 0);
  ASSERT_TRUE(own0.is_message());
  EXPECT_EQ(own0.message->origin, 0);
  const Reception own2 = testing::reception_at(round, 2);
  ASSERT_TRUE(own2.is_message());
  EXPECT_EQ(own2.message->origin, 2);
  // Node 1 is reached by both (each over G_T): collision notification.
  EXPECT_TRUE(testing::reception_at(round, 1).is_collision());
}

TEST(InterferenceEdges, Cr3CollisionMasksAsSilence) {
  CsrGraphBuilder gi(gen::path(3));  // (G_T, G_I): G_I adds {0, 2}
  gi.add_undirected_edge(0, 2);
  const DualGraph net(gen::path(3), gi.freeze(RowOrder::Emission), 0);
  const auto factory = scripted_factory({{0, {1}}, {2, {1}}});
  SimConfig config;
  config.rule = CollisionRule::CR3;
  config.start = StartRule::Synchronous;
  config.max_rounds = 1;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const auto result = run_interference_broadcast(net, factory, config);
  EXPECT_TRUE(
      testing::reception_at(testing::decode_rounds(result.trace, 3)[0], 1)
          .is_silence());
}

TEST(InterferenceEdges, AsyncStartWakesOnGtDeliveryOnly) {
  // Node 2's only incoming message travels a G_I-only edge: it must not
  // wake (the message cannot be received).
  CsrGraphBuilder gi(gen::path(3));  // (G_T, G_I): G_I adds {0, 2}
  gi.add_undirected_edge(0, 2);
  const DualGraph net(gen::path(3), gi.freeze(RowOrder::Emission), 0);
  const auto factory = scripted_factory({{0, {1}}, {2, {2}}});
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Asynchronous;
  config.max_rounds = 3;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const auto result = run_interference_broadcast(net, factory, config);
  // Round 2: node 2 is still asleep, so its scripted send cannot happen.
  EXPECT_TRUE(testing::decode_rounds(result.trace, 3)[1].senders.empty());
}

TEST(ModelEdges, StrongSelectSourceBroadcastsEventually) {
  // The source participates even if nobody else ever sends.
  const NodeId n = 32;
  const auto factory = make_strong_select_factory(n);
  auto p = factory(7, n, 0);
  p->on_activate(0, Message{true, kInvalidProcess, 0, 0});
  bool sent = false;
  const auto schedule = make_strong_select_schedule(n);
  for (Round r = 1; r <= schedule->done_round_bound(0); ++r) {
    if (p->next_action(r).send) {
      sent = true;
      break;
    }
    p->on_receive(r, Reception::silence());
  }
  EXPECT_TRUE(sent);
}

TEST(ModelEdges, HarmonicRejectsBadOptions) {
  EXPECT_THROW((void)harmonic_T(32, {.T = 0, .eps = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(make_harmonic_factory(1), std::invalid_argument);
}

}  // namespace
}  // namespace dualrad
