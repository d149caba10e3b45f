#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/strong_select.hpp"
#include "core/audit.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace dualrad {
namespace {

SimResult run_traced(const DualGraph& net, const ProcessFactory& factory,
                     Adversary& adversary, CollisionRule rule) {
  SimConfig config;
  config.rule = rule;
  config.max_rounds = 2'000'000;
  config.trace = TraceLevel::Full;
  return run_broadcast(net, factory, adversary, config);
}

/// A two-round scripted execution on the classical path 0-1-2-3 (source 0,
/// synchronous start) with a Full trace. Round 1: node 0 sends the token, so
/// node 1 hears it as a sole arrival while nodes 2 and 3 hear nothing.
/// Round 2: nodes 0 and 2 send, so node 1 has two arrivals and node 3 a sole
/// one from node 2, which holds no token and sends a token-less message.
SimResult run_path_script(CollisionRule rule) {
  const DualGraph net = make_classical(gen::path(4), 0);
  BenignAdversary adversary;
  SimConfig config;
  config.rule = rule;
  config.start = StartRule::Synchronous;
  config.max_rounds = 2;
  config.trace = TraceLevel::Full;
  config.stop_on_completion = false;
  return run_broadcast(net,
                       testing::scripted_factory({{0, {1, 2}}, {2, {2}}}),
                       adversary, config);
}

/// Audit a tampered run_path_script result on its own network and rule.
audit::AuditReport audit_path_script(const SimResult& result,
                                     CollisionRule rule) {
  return audit::audit_execution(make_classical(gen::path(4), 0), result,
                                rule);
}

TEST(Audit, CleanExecutionsPass) {
  const DualGraph net = duals::gray_zone({.n = 32, .seed = 6});
  for (CollisionRule rule :
       {CollisionRule::CR1, CollisionRule::CR2, CollisionRule::CR3,
        CollisionRule::CR4}) {
    GreedyBlockerAdversary adversary;
    const SimResult result = run_traced(
        net, make_harmonic_factory(net.node_count()), adversary, rule);
    const auto report = audit::audit_execution(net, result, rule);
    EXPECT_TRUE(report.ok) << to_string(rule) << ": "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
  }
}

TEST(Audit, StrongSelectPasses) {
  const DualGraph net = duals::layered_complete_gprime(5, 3);
  BernoulliAdversary adversary(0.4, 3);
  const SimResult result =
      run_traced(net, make_strong_select_factory(net.node_count()), adversary,
                 CollisionRule::CR4);
  EXPECT_TRUE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, CompressedTraceAuditsTransparently) {
  // TraceLevel::Compressed decodes to the exact Full-mode records, so the
  // audit accepts it unchanged — same pass on clean executions, same
  // violation detection on forged results.
  const DualGraph net = duals::gray_zone({.n = 32, .seed = 6});
  for (CollisionRule rule :
       {CollisionRule::CR1, CollisionRule::CR3, CollisionRule::CR4}) {
    GreedyBlockerAdversary adversary;
    SimConfig config;
    config.rule = rule;
    config.max_rounds = 2'000'000;
    config.trace = TraceLevel::Compressed;
    SimResult result = run_broadcast(
        net, make_harmonic_factory(net.node_count()), adversary, config);
    EXPECT_TRUE(result.trace.rounds.empty());
    EXPECT_GT(result.trace.compressed_rounds(), 0u);
    const auto report = audit::audit_execution(net, result, rule);
    EXPECT_TRUE(report.ok) << to_string(rule) << ": "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
    // A forged coverage claim is still caught through the compressed trace.
    result.first_token[1] = 1;
    result.token_first[0][1] = 1;
    EXPECT_FALSE(audit::audit_execution(net, result, rule).ok);
  }
}

TEST(Audit, RequiresFullTrace) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimConfig config;
  config.max_rounds = 10'000;
  const SimResult result =
      run_broadcast(net, make_harmonic_factory(8), adversary, config);
  const auto report =
      audit::audit_execution(net, result, CollisionRule::CR4);
  EXPECT_FALSE(report.ok);
}

TEST(Audit, DetectsTamperedReach) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  ASSERT_TRUE(result.completed);
  // Tamper: claim a sender reached a node with no G' edge (self loop is
  // never an edge).
  ASSERT_FALSE(result.trace.rounds.empty());
  for (auto& record : result.trace.rounds) {
    if (!record.senders.empty()) {
      record.senders.front().reached.push_back(record.senders.front().node);
      break;
    }
  }
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, DetectsSkippedReliableEdge) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  for (auto& record : result.trace.rounds) {
    if (!record.senders.empty() && !record.senders.front().reached.empty()) {
      record.senders.front().reached.pop_back();
      break;
    }
  }
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, DetectsForgedFirstToken) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  result.first_token.back() = 1;  // receiver cannot have it that early
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, DetectsWrongRuleClaim) {
  // An execution under CR1 contains collision notifications, which are
  // illegal under CR4.
  Graph g = gen::clique(3);
  const DualGraph net = make_classical(std::move(g), 0);
  BenignAdversary adversary;
  const auto factory =
      testing::scripted_factory({{0, {1, 2}}, {1, {1}}, {2, {2}}});
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = 4;
  config.trace = TraceLevel::Full;
  config.stop_on_completion = false;
  const SimResult result = run_broadcast(net, factory, adversary, config);
  EXPECT_TRUE(audit::audit_execution(net, result, CollisionRule::CR1).ok);
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, ReportsOutOfRangeSenderWithoutIndexing) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  for (auto& record : result.trace.rounds) {
    if (!record.senders.empty()) {
      record.senders.front().node = 1000;
      const auto report =
          audit::audit_execution(net, result, CollisionRule::CR4);
      ASSERT_FALSE(report.violations.empty());
      EXPECT_EQ(report.violations.front(),
                "round " + std::to_string(record.round) +
                    " node 1000: sender out of range");
      return;
    }
  }
  FAIL() << "no round had a sender";
}

TEST(Audit, ReportsOutOfRangeReachWithoutIndexing) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  for (auto& record : result.trace.rounds) {
    if (!record.senders.empty()) {
      SenderRecord& sender = record.senders.front();
      sender.reached.push_back(100000);
      const auto report =
          audit::audit_execution(net, result, CollisionRule::CR4);
      EXPECT_EQ(report.violations,
                std::vector<std::string>{
                    "round " + std::to_string(record.round) + " node " +
                    std::to_string(sender.node) +
                    ": reached out-of-range node 100000"});
      return;
    }
  }
  FAIL() << "no round had a sender";
}

TEST(Audit, DecoderRejectsOutOfRangeIds) {
  const Message m{/*token=*/1, /*origin=*/0, /*round_tag=*/1, /*payload=*/0};
  const auto decode_error = [](const Trace& trace, NodeId n) -> std::string {
    SparseRound out;
    try {
      trace.decode_round(0, n, out);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const std::vector<NodeId> none;
  const std::vector<Reception> no_receptions;
  Trace sender;
  {
    CompressedRound round(sender, 1, 1);
    round.sender(8, m, none, none);
    round.receptions(none, no_receptions);
  }
  EXPECT_NE(decode_error(sender, 8).find("sender out of range"),
            std::string::npos);
  EXPECT_EQ(decode_error(sender, 9), "");

  Trace reach;
  {
    const std::vector<NodeId> far = {100000};
    CompressedRound round(reach, 1, 1);
    round.sender(0, m, far, none);
    round.receptions(none, no_receptions);
  }
  EXPECT_NE(decode_error(reach, 8).find("reach target out of range"),
            std::string::npos);
  EXPECT_EQ(decode_error(reach, 100001), "");
}

TEST(Audit, DetectsTruncatedRecord) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimConfig config;
  config.rule = CollisionRule::CR4;
  config.max_rounds = 400;
  config.stop_on_completion = false;
  config.trace = TraceLevel::Full;
  SimResult result =
      run_broadcast(net, make_harmonic_factory(8), adversary, config);
  ASSERT_EQ(result.trace.rounds.size(), 400u);
  RoundRecord& last = result.trace.rounds.back();
  ASSERT_FALSE(last.senders.empty());
  last.receptions.clear();
  const auto report = audit::audit_execution(net, result, CollisionRule::CR4);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front(),
            "round 400: record holds 0 receptions, want 8");
}

// One tamper per reception check: each pins that the audit still visits the
// node that fails it, and with the same text.
TEST(AuditTamper, SoleArrivalHeardAsSilence) {
  SimResult result = run_path_script(CollisionRule::CR3);
  ASSERT_TRUE(result.trace.rounds[0].receptions[1].is_message());
  result.trace.rounds[0].receptions[1] = Reception::silence();
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            (std::vector<std::string>{
                "round 1 node 1: heard silence despite a sole arrival",
                "token 1 first-reception mismatch at node 1: result says 1, "
                "trace says -1"}));
}

TEST(AuditTamper, SenderHeardSilence) {
  SimResult result = run_path_script(CollisionRule::CR3);
  result.trace.rounds[0].receptions[0] = Reception::silence();
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            std::vector<std::string>{"round 1 node 0: sender heard silence"});
}

TEST(AuditTamper, MessageThatDidNotArrive) {
  SimResult result = run_path_script(CollisionRule::CR3);
  ASSERT_TRUE(result.trace.rounds[0].receptions[3].is_silence());
  result.trace.rounds[0].receptions[3] =
      Reception::of(result.trace.rounds[0].senders[0].message);
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            (std::vector<std::string>{
                "round 1 node 3: received a message that did not arrive",
                "token 1 first-reception mismatch at node 3: result says -1, "
                "trace says 1"}));
}

TEST(AuditTamper, CollisionNotificationWithoutCollision) {
  SimResult result = run_path_script(CollisionRule::CR2);
  ASSERT_TRUE(result.trace.rounds[0].receptions[3].is_silence());
  result.trace.rounds[0].receptions[3] = Reception::collision();
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR2).violations,
            std::vector<std::string>{
                "round 1 node 3: collision notification without a collision"});
}

TEST(AuditTamper, NonSenderReceivedOneOfSeveral) {
  SimResult result = run_path_script(CollisionRule::CR3);
  const RoundRecord& round2 = result.trace.rounds[1];
  ASSERT_EQ(round2.senders.size(), 2u);
  ASSERT_TRUE(round2.receptions[1].is_silence());
  result.trace.rounds[1].receptions[1] =
      Reception::of(round2.senders[0].message);
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            std::vector<std::string>{
                "round 2 node 1: non-sender received one of several "
                "messages under CR3"});
}

TEST(AuditTamper, DuplicateReachEntries) {
  SimResult result = run_path_script(CollisionRule::CR3);
  std::vector<NodeId>& reached = result.trace.rounds[0].senders[0].reached;
  ASSERT_FALSE(reached.empty());
  reached.push_back(reached.front());
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            (std::vector<std::string>{
                "round 1 node 0: duplicate reach entries",
                "round 1 node 1: non-sender received one of several messages "
                "under CR3"}));
}

TEST(AuditTamper, TokenTransmittedWithoutHoldingIt) {
  SimResult result = run_path_script(CollisionRule::CR3);
  SenderRecord& sender = result.trace.rounds[1].senders[1];
  ASSERT_EQ(sender.node, 2);
  ASSERT_EQ(sender.message.token, kNoToken);
  sender.message.token = kBroadcastToken;
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            (std::vector<std::string>{
                "round 2 node 2: transmitted a token without holding it",
                "round 2 node 2: received a message that did not arrive",
                "round 2 node 3: received a message that did not arrive"}));
}

}  // namespace
}  // namespace dualrad
