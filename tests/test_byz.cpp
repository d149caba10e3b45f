#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "byz/adaptive.hpp"
#include "byz/cpa.hpp"
#include "byz/plan.hpp"
#include "campaign/contract.hpp"
#include "core/audit.hpp"
#include "core/reference_engine.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "test_util.hpp"

/// Unit suite for the Byzantine node-fault subsystem (src/byz/): placement
/// validation and incremental growth, deterministic forged-token ids, the
/// CPA-vs-uncertified-relay acceptance contrast on a hand-built f-locally-
/// bounded instance, the forged-token audit dimension through Full and
/// Compressed traces, the broadcast-contract integration, and engine/thread
/// equivalence of Byzantine executions.

namespace dualrad {
namespace {

/// The canonical CPA instance-in-miniature: source 0, correct relays 1 and
/// 2, sink 3, and one Byzantine candidate 4.
///
///       0 -> 1 -> 3        G in-neighbors of 3: {1, 2, 4} — exactly one
///       0 -> 2 -> 3        Byzantine (node 4), so the placement {4} is
///       0 -> 4 -> 3        valid for f = 1.
///
/// G' == G: no unreliable edges, so executions depend only on the process
/// coins and the fault plan.
DualGraph five_node_net() {
  CsrGraphBuilder g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 4);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(4, 3);
  return make_classical(g.freeze(RowOrder::Emission), 0);
}

SimConfig byz_config(const byz::ByzantinePlan& plan, Round max_rounds,
                     TraceLevel trace = TraceLevel::None) {
  SimConfig config;
  config.rule = CollisionRule::CR3;
  config.start = StartRule::Synchronous;
  config.max_rounds = max_rounds;
  config.seed = 11;
  config.trace = trace;
  config.byzantine = &plan;
  return config;
}

double metric_of(const SimResult& result, NodeId node, const char* name) {
  for (const ProcessMetricSample& m : result.process_metrics) {
    if (m.node == node && m.name == name) return m.value;
  }
  ADD_FAILURE() << "metric " << name << " missing at node " << node;
  return -1.0;
}

// ------------------------------------------------------- placement validity

TEST(ByzantinePlan, BindAcceptsValidPlacement) {
  const DualGraph net = five_node_net();
  byz::ByzantinePlan plan(1);
  plan.add(4, byz::ByzBehavior::Forge);
  plan.bind(net, {}, 99);
  ASSERT_TRUE(plan.bound());
  ASSERT_EQ(plan.faults().size(), 1u);
  EXPECT_TRUE(plan.is_byzantine(4));
  EXPECT_FALSE(plan.is_byzantine(3));
  EXPECT_GE(plan.faults()[0].forged_token, byz::kForgedTokenBase);
}

TEST(ByzantinePlan, BindRejectsIllFormedPlacements) {
  const DualGraph net = five_node_net();
  {
    byz::ByzantinePlan plan(1);  // out of range
    plan.add(5, byz::ByzBehavior::Silent);
    EXPECT_THROW(plan.bind(net, {}, 1), std::invalid_argument);
  }
  {
    byz::ByzantinePlan plan(1);  // duplicate fault node
    plan.add(4, byz::ByzBehavior::Silent);
    plan.add(4, byz::ByzBehavior::Forge);
    EXPECT_THROW(plan.bind(net, {}, 1), std::invalid_argument);
  }
  {
    byz::ByzantinePlan plan(1);  // the effective token source (net.source())
    plan.add(0, byz::ByzBehavior::Silent);
    EXPECT_THROW(plan.bind(net, {}, 1), std::invalid_argument);
  }
  {
    byz::ByzantinePlan plan(1);  // an explicit multi-token source
    plan.add(2, byz::ByzBehavior::Silent);
    EXPECT_THROW(plan.bind(net, {0, 2}, 1), std::invalid_argument);
  }
  {
    byz::ByzantinePlan plan(1);  // node 3 would have 2 Byzantine in-neighbors
    plan.add(1, byz::ByzBehavior::Silent);
    plan.add(2, byz::ByzBehavior::Silent);
    EXPECT_THROW(plan.bind(net, {}, 1), std::invalid_argument);
  }
  {
    byz::ByzantinePlan plan(2);  // ... which f = 2 admits
    plan.add(1, byz::ByzBehavior::Silent);
    plan.add(2, byz::ByzBehavior::Silent);
    EXPECT_NO_THROW(plan.bind(net, {}, 1));
  }
}

TEST(ByzantinePlan, TryCorruptEnforcesTheBoundIncrementally) {
  const DualGraph net = five_node_net();
  byz::ByzantinePlan plan(1);
  plan.add(4, byz::ByzBehavior::Silent);
  plan.bind(net, {}, 7);
  const std::uint64_t bound_version = plan.version();

  // Node 3 already has its one Byzantine in-neighbor; corrupting 1 or 2
  // would breach the bound, and inadmissible calls must not mutate.
  EXPECT_FALSE(plan.try_corrupt(1, byz::ByzBehavior::Silent, 2));
  EXPECT_FALSE(plan.try_corrupt(2, byz::ByzBehavior::Forge, 2));
  EXPECT_FALSE(plan.try_corrupt(4, byz::ByzBehavior::Silent, 2));  // already
  EXPECT_FALSE(plan.try_corrupt(0, byz::ByzBehavior::Silent, 2));  // source
  EXPECT_FALSE(plan.try_corrupt(9, byz::ByzBehavior::Silent, 2));  // range
  EXPECT_EQ(plan.faults().size(), 1u);
  EXPECT_EQ(plan.version(), bound_version);

  // Node 3 has no out-edges, so corrupting it burdens no correct node.
  EXPECT_TRUE(plan.try_corrupt(3, byz::ByzBehavior::Forge, 2));
  ASSERT_EQ(plan.faults().size(), 2u);
  EXPECT_TRUE(plan.is_byzantine(3));
  EXPECT_EQ(plan.faults()[1].active_from, 2);
  EXPECT_GE(plan.faults()[1].forged_token, byz::kForgedTokenBase);
  EXPECT_NE(plan.faults()[1].forged_token, plan.faults()[0].forged_token);

  // reset_adaptive rolls back to the bind-time baseline, repeatably.
  plan.reset_adaptive();
  EXPECT_EQ(plan.faults().size(), 1u);
  EXPECT_FALSE(plan.is_byzantine(3));
  EXPECT_TRUE(plan.try_corrupt(3, byz::ByzBehavior::Forge, 2));
  plan.reset_adaptive();
  EXPECT_EQ(plan.faults().size(), 1u);
}

TEST(ByzantinePlan, ForgedIdsAreDeterministicAndBanded) {
  const DualGraph net = five_node_net();
  byz::ByzantinePlan a(2), b(2), c(2);
  for (byz::ByzantinePlan* p : {&a, &b, &c}) {
    p->add(1, byz::ByzBehavior::Forge);
    p->add(2, byz::ByzBehavior::Forge);
  }
  a.bind(net, {}, 1234);
  b.bind(net, {}, 1234);
  c.bind(net, {}, 5678);
  EXPECT_EQ(a.faults(), b.faults());
  EXPECT_NE(a.faults()[0].forged_token, c.faults()[0].forged_token);
  for (const byz::ByzFault& f : a.faults()) {
    EXPECT_GE(f.forged_token, byz::kForgedTokenBase);
  }
  EXPECT_NE(a.faults()[0].forged_token, a.faults()[1].forged_token);
}

TEST(ByzantinePlan, RandomPlanIsDeterministicAndValid) {
  const DualGraph net = duals::layered_sparse(
      {.layers = 10, .width = 8, .fwd_degree = 3, .unreliable_degree = 2,
       .seed = 17});
  const byz::ByzantinePlan a =
      byz::make_random_plan(net, 1, 8, byz::ByzBehavior::Forge, {}, 42);
  const byz::ByzantinePlan b =
      byz::make_random_plan(net, 1, 8, byz::ByzBehavior::Forge, {}, 42);
  EXPECT_EQ(a.faults(), b.faults());
  ASSERT_GE(a.faults().size(), 1u);
  // Every correct node within the bound, recomputed from scratch.
  std::vector<int> byz_in(static_cast<std::size_t>(net.node_count()), 0);
  for (const byz::ByzFault& f : a.faults()) {
    EXPECT_NE(f.node, net.source());
    for (const NodeId v : net.g_csr().row(f.node)) {
      ++byz_in[static_cast<std::size_t>(v)];
    }
  }
  for (NodeId v = 0; v < net.node_count(); ++v) {
    if (a.is_byzantine(v)) continue;
    EXPECT_LE(byz_in[static_cast<std::size_t>(v)], a.f()) << "node " << v;
  }
}

// ------------------------------------------- CPA vs uncertified acceptance

TEST(CertifiedPropagation, ForgedTokenWinsAgainstUncertifiedRelay) {
  const DualGraph net = five_node_net();
  byz::ByzantinePlan plan(1);
  plan.add(4, byz::ByzBehavior::Forge);
  plan.bind(net, {}, 33);

  BenignAdversary adversary;
  const ProcessFactory relay =
      byz::make_uncertified_relay_factory(net.node_count(), {.relay_p = 1.0});
  const SimResult result =
      run_broadcast(net, relay, adversary, byz_config(plan, 16));

  // Round 1: only {0, forger 4} transmit, so node 3 hears the forged token
  // alone, adopts it verbatim, and relays it from round 2 — the win.
  ASSERT_EQ(result.forged_tokens.size(), 1u);
  const ForgedTokenRecord& rec = result.forged_tokens[0];
  EXPECT_EQ(rec.token, plan.faults()[0].forged_token);
  EXPECT_EQ(rec.forger, 4);
  EXPECT_TRUE(rec.won());
  EXPECT_EQ(rec.first_victim, 3);
  EXPECT_EQ(rec.first_victim_round, 2);
  EXPECT_EQ(rec.first_injected, 1);
  EXPECT_GE(rec.injections, 1u);
  EXPECT_GE(rec.victim_sends, 1u);
  EXPECT_GE(rec.receptions, 1u);
  EXPECT_EQ(metric_of(result, 3, "relay_token"),
            static_cast<double>(rec.token));
  // Forged deliveries never leak into legitimate coverage: node 3 is jammed
  // by the forger and must not count as covered.
  EXPECT_EQ(result.first_token[3], kNever);
  EXPECT_FALSE(result.completed);
}

TEST(CertifiedPropagation, CpaNeverAcceptsForgedUnderValidPlacement) {
  const DualGraph net = five_node_net();
  byz::ByzantinePlan plan(1);
  plan.add(4, byz::ByzBehavior::Forge);
  plan.bind(net, {}, 33);

  BenignAdversary adversary;
  const ProcessFactory cpa = byz::make_cpa_factory(
      net.node_count(), {.f = 1, .trusted_origins = {0}, .relay_p = 1.0});
  const SimResult result =
      run_broadcast(net, cpa, adversary, byz_config(plan, 64));

  // The forged token reaches node 3 (receptions > 0) but carries only one
  // possible confirming origin — the forger — and 1 < f + 1, so CPA never
  // accepts it, never relays it, and the token never wins.
  ASSERT_EQ(result.forged_tokens.size(), 1u);
  const ForgedTokenRecord& rec = result.forged_tokens[0];
  EXPECT_FALSE(rec.won());
  EXPECT_EQ(rec.first_victim, kInvalidNode);
  EXPECT_EQ(rec.victim_sends, 0u);
  EXPECT_GE(rec.receptions, 1u);
  for (const NodeId v : {0, 1, 2, 3}) {
    EXPECT_EQ(metric_of(result, v, "cpa_forged"), 0.0) << "node " << v;
  }
}

TEST(CertifiedPropagation, CpaAcceptsLegitimateTokenViaDistinctConfirmers) {
  // Silence the Byzantine node instead: node 3 is no longer jammed and must
  // certify token 1 from its two distinct correct confirmers 1 and 2.
  const DualGraph net = five_node_net();
  byz::ByzantinePlan plan(1);
  plan.add(4, byz::ByzBehavior::Silent);
  plan.bind(net, {}, 33);

  BenignAdversary adversary;
  const ProcessFactory cpa = byz::make_cpa_factory(
      net.node_count(), {.f = 1, .trusted_origins = {0}, .relay_p = 0.5});
  // Engine coverage is first *delivery*; acceptance at node 3 needs a second
  // distinct confirmer, so run a fixed horizon past completion.
  SimConfig config = byz_config(plan, 512);
  config.stop_on_completion = false;
  const SimResult result = run_broadcast(net, cpa, adversary, config);

  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.forged_tokens.empty());
  EXPECT_EQ(metric_of(result, 1, "cpa_accepted"), 1.0);  // trusted origin 0
  EXPECT_EQ(metric_of(result, 2, "cpa_accepted"), 1.0);
  EXPECT_EQ(metric_of(result, 3, "cpa_accepted"), 1.0);  // via {1, 2}
  EXPECT_EQ(metric_of(result, 3, "cpa_forged"), 0.0);
}

// ----------------------------------------------- audit + contract dimension

TEST(ByzAudit, ForgedWinSurfacesThroughTheTrace) {
  const DualGraph net = five_node_net();
  byz::ByzantinePlan plan(1);
  plan.add(4, byz::ByzBehavior::Forge);
  plan.bind(net, {}, 33);
  const ProcessFactory relay =
      byz::make_uncertified_relay_factory(net.node_count(), {.relay_p = 1.0});

  BenignAdversary adversary;
  const SimResult result = run_broadcast(
      net, relay, adversary, byz_config(plan, 16, TraceLevel::Compressed));
  const audit::AuditReport report =
      testing::audit_every_cut(net, result, CollisionRule::CR3);
  EXPECT_TRUE(report.ok)
      << (report.violations.empty() ? "" : report.violations.front());
  ASSERT_TRUE(report.forged_token_won());
  ASSERT_EQ(report.forged_wins.size(), 1u);
  EXPECT_NE(report.forged_wins[0].find("forged token"), std::string::npos);
  EXPECT_NE(report.forged_wins[0].find("node 3"), std::string::npos);
}

TEST(ByzAudit, CpaExecutionAuditsCleanWithNoWins) {
  const DualGraph net = five_node_net();
  byz::ByzantinePlan plan(1);
  plan.add(4, byz::ByzBehavior::Forge);
  plan.bind(net, {}, 33);
  const ProcessFactory cpa = byz::make_cpa_factory(
      net.node_count(), {.f = 1, .trusted_origins = {0}, .relay_p = 1.0});

  BenignAdversary adversary;
  const SimResult result = run_broadcast(
      net, cpa, adversary, byz_config(plan, 64, TraceLevel::Compressed));
  const audit::AuditReport report =
      testing::audit_every_cut(net, result, CollisionRule::CR3);
  EXPECT_TRUE(report.ok)
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_FALSE(report.forged_token_won());
}

TEST(ByzAudit, TamperedProvenanceFailsTheAudit) {
  const DualGraph net = five_node_net();
  byz::ByzantinePlan plan(1);
  plan.add(4, byz::ByzBehavior::Forge);
  plan.bind(net, {}, 33);
  const ProcessFactory relay =
      byz::make_uncertified_relay_factory(net.node_count(), {.relay_p = 1.0});
  BenignAdversary adversary;
  SimResult result = run_broadcast(
      net, relay, adversary, byz_config(plan, 16, TraceLevel::Compressed));
  ASSERT_EQ(result.forged_tokens.size(), 1u);
  result.forged_tokens[0].victim_sends += 1;  // claim one send too many
  const audit::AuditReport report =
      testing::audit_every_cut(net, result, CollisionRule::CR3);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations[0].find("victim_sends"), std::string::npos);
}

TEST(ByzAudit, ForgedRelayAcrossChunksAuditsAsOneChunk) {
  // The path 0-1-...-63 with the forger at node 63: uncertified relays
  // adopt the first token they hear and pass it on every round, so over 24
  // rounds the forged token moves one hop per round from node 63, and the
  // genuine one from node 0, without meeting. Cut in 2, 3 or 7 chunks,
  // nodes first hear the forged token in chunks after the first (those of
  // the last chunk relay it only there), and relay it in chunks after the
  // one that delivered it: deferred checks that the chunks before settle.
  const DualGraph net = make_classical(gen::path(64), 0);
  byz::ByzantinePlan plan(1);
  plan.add(63, byz::ByzBehavior::Forge);
  plan.bind(net, {}, 33);
  const ProcessFactory relay =
      byz::make_uncertified_relay_factory(net.node_count(), {.relay_p = 1.0});
  BenignAdversary adversary;
  SimResult result = run_broadcast(
      net, relay, adversary, byz_config(plan, 24, TraceLevel::Compressed));
  ASSERT_EQ(result.forged_tokens.size(), 1u);
  const ForgedTokenRecord& record = result.forged_tokens[0];
  ASSERT_EQ(record.first_victim, 62);
  ASSERT_GT(record.receptions, 16u);
  const audit::AuditReport clean =
      testing::audit_every_cut(net, result, CollisionRule::CR3);
  EXPECT_TRUE(clean.ok)
      << (clean.violations.empty() ? "" : clean.violations.front());
  EXPECT_EQ(clean.forged_wins.size(), 1u);

  // Drop node 61's receptions of the forged token before round 20: its
  // relays until then are sent without having received it, in chunks after
  // the first.
  const TokenId forged = record.token;
  testing::edit_rounds(
      result.trace, net.node_count(), [&](std::vector<SparseRound>& rounds) {
        for (SparseRound& round : rounds) {
          const Reception heard = testing::reception_at(round, 61);
          if (round.round < 20 && heard.has_token() &&
              heard.message->token == forged) {
            testing::set_reception(round, 61, Reception::silence());
          }
        }
      });
  const audit::AuditReport tampered =
      testing::audit_every_cut(net, result, CollisionRule::CR3);
  EXPECT_FALSE(tampered.ok);
  EXPECT_NE(std::find(tampered.violations.begin(), tampered.violations.end(),
                      "round 19 node 61: transmitted forged token " +
                          std::to_string(forged) +
                          " without having received it"),
            tampered.violations.end());
}

TEST(ByzContract, ForgedWinIsANoCreationViolation) {
  const DualGraph net = five_node_net();
  byz::ByzantinePlan plan(1);
  plan.add(4, byz::ByzBehavior::Forge);
  plan.bind(net, {}, 33);
  const ProcessFactory relay =
      byz::make_uncertified_relay_factory(net.node_count(), {.relay_p = 1.0});
  BenignAdversary adversary;
  const SimResult result =
      run_broadcast(net, relay, adversary, byz_config(plan, 16));

  campaign::Scenario scenario;
  scenario.name = "byz-unit";
  campaign::TrialRow row;
  row.scenario = scenario.name;
  row.completed = result.completed;
  const std::vector<std::string> violations =
      campaign::check_broadcast_contract(scenario, row, result);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("no-creation"), std::string::npos);
  EXPECT_NE(violations[0].find("forged token"), std::string::npos);
  EXPECT_NE(violations[0].find("node 3"), std::string::npos);

  // The CPA run on the same plan satisfies the contract.
  const ProcessFactory cpa = byz::make_cpa_factory(
      net.node_count(), {.f = 1, .trusted_origins = {0}, .relay_p = 1.0});
  BenignAdversary adversary2;
  const SimResult clean =
      run_broadcast(net, cpa, adversary2, byz_config(plan, 64));
  campaign::TrialRow clean_row;
  clean_row.scenario = scenario.name;
  clean_row.completed = clean.completed;
  EXPECT_TRUE(
      campaign::check_broadcast_contract(scenario, clean_row, clean).empty());
}

// --------------------------------------------------- adaptive + equivalence

TEST(AdaptiveByz, CorruptsTheFrontierWithinBudgetAndResets) {
  const DualGraph net = duals::layered_sparse(
      {.layers = 10, .width = 8, .fwd_degree = 3, .unreliable_degree = 2,
       .seed = 17});
  byz::ByzantinePlan plan(1);
  plan.bind(net, {}, 55);
  ASSERT_TRUE(plan.faults().empty());

  BernoulliAdversary inner(0.3, 77);
  byz::AdaptiveByzAdversary adaptive(
      inner, plan, {.budget = 3, .behavior = byz::ByzBehavior::Forge});
  const ProcessFactory cpa = byz::make_cpa_factory(
      net.node_count(), {.f = 1,
                         .trusted_origins = {0},
                         .relay_p = 0.5,
                         .active_rounds = 64,
                         .rebroadcast_period = 16});
  SimConfig config;
  config.rule = CollisionRule::CR3;
  config.start = StartRule::Asynchronous;
  config.max_rounds = 20'000;
  config.seed = 2025;
  config.byzantine = &plan;

  const SimResult first = run_broadcast(net, cpa, adaptive, config);
  const std::size_t placed = adaptive.corrupted();
  EXPECT_GE(placed, 1u);
  EXPECT_LE(placed, 3u);
  EXPECT_EQ(plan.faults().size(), placed);
  const std::vector<byz::ByzFault> grown = plan.faults();
  for (const byz::ByzFault& f : grown) {
    EXPECT_GE(f.active_from, 2);  // corruption lands the round after delivery
  }
  // CPA under an adaptively-grown (still f-locally-bounded) placement:
  // forged tokens fly but never win.
  for (const ForgedTokenRecord& rec : first.forged_tokens) {
    EXPECT_FALSE(rec.won()) << "token " << rec.token;
  }

  // A replay resets the plan and regrows the identical placement, so the
  // execution (including forged provenance) is reproducible.
  const SimResult second = run_broadcast(net, cpa, adaptive, config);
  EXPECT_EQ(plan.faults(), grown);
  EXPECT_EQ(first.forged_tokens, second.forged_tokens);
  EXPECT_EQ(first.rounds_executed, second.rounds_executed);
  EXPECT_EQ(first.total_sends, second.total_sends);
}

TEST(ByzEquivalence, FiveNodeForgeRunsIdenticallyEverywhere) {
  const DualGraph net = five_node_net();
  byz::ByzantinePlan plan(1);
  plan.add(4, byz::ByzBehavior::Forge);
  plan.bind(net, {}, 33);
  const ProcessFactory relay =
      byz::make_uncertified_relay_factory(net.node_count(), {.relay_p = 1.0});
  const SimConfig config = byz_config(plan, 16, TraceLevel::Compressed);

  BenignAdversary a1, a2, a3, a4;
  const SimResult serial = run_broadcast(net, relay, a1, config);
  const SimResult reference = run_broadcast_reference(net, relay, a2, config);
  EXPECT_EQ(serial.forged_tokens, reference.forged_tokens);
  EXPECT_EQ(serial.total_sends, reference.total_sends);
  EXPECT_EQ(serial.first_token, reference.first_token);
  SimConfig two = config;
  two.threads = 2;
  SimConfig four = config;
  four.threads = 4;
  const SimResult sharded2 = run_broadcast(net, relay, a3, two);
  const SimResult sharded4 = run_broadcast(net, relay, a4, four);
  EXPECT_EQ(serial.forged_tokens, sharded2.forged_tokens);
  EXPECT_EQ(serial.forged_tokens, sharded4.forged_tokens);
  ASSERT_GT(serial.trace.compressed_rounds(), 0u);
  EXPECT_EQ(serial.trace.blob, reference.trace.blob);
  EXPECT_EQ(serial.trace.blob, sharded2.trace.blob);
  EXPECT_EQ(serial.trace.blob, sharded4.trace.blob);
}

}  // namespace
}  // namespace dualrad
