#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "adversary/basic_adversaries.hpp"
#include "algorithms/decay.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "graph/dual_builders.hpp"
#include "mac/bmmb.hpp"
#include "mac/decay_mac.hpp"
#include "mac/mac_latency.hpp"

namespace dualrad {
namespace {

// --- k=1 regression: BMMB over DecayMac reproduces plain Decay ---------------

// With one token, BMMB's idle cycling re-broadcasts the token back to back,
// so the DecayMac transmission schedule is *identical* to plain Decay (same
// per-round coin stream, same probabilities, no gap between runs) for any
// run length. The whole execution — completion round, every first-reception
// round, every send — must therefore match.
void expect_matches_plain_decay(StartRule start, std::uint64_t seed) {
  const NodeId n = 33;
  const DualGraph net = duals::strip_unreliable(duals::bridge_network(n));
  SimConfig config;
  config.rule = CollisionRule::CR3;
  config.start = start;
  config.max_rounds = 100'000;
  config.seed = seed;

  BenignAdversary adversary;
  const SimResult plain =
      run_broadcast(net, make_decay_factory(n), adversary, config);
  ASSERT_TRUE(plain.completed);

  const SimResult layered =
      run_broadcast(net, mac::make_bmmb_factory(n), adversary, config);

  EXPECT_TRUE(layered.completed);
  EXPECT_EQ(layered.completion_round, plain.completion_round);
  EXPECT_EQ(layered.first_token, plain.first_token);
  EXPECT_EQ(layered.total_sends, plain.total_sends);
}

TEST(BmmbDecayRegression, MatchesPlainDecaySynchronousStart) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    expect_matches_plain_decay(StartRule::Synchronous, seed);
  }
}

TEST(BmmbDecayRegression, MatchesPlainDecayAsynchronousStart) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    expect_matches_plain_decay(StartRule::Asynchronous, seed);
  }
}

// --- multi-token machinery ---------------------------------------------------

TEST(MultiMessage, FourTokensCompleteOnLayeredBenign) {
  const DualGraph net = duals::layered_complete_gprime(6, 3);
  const NodeId n = net.node_count();
  SimConfig config;
  config.max_rounds = 200'000;
  config.token_sources = mac::spread_token_sources(net, 4);
  BenignAdversary adversary;
  const SimResult result =
      run_broadcast(net, mac::make_bmmb_factory(n), adversary, config);

  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.token_count(), 4);
  for (std::size_t t = 0; t < 4; ++t) {
    const auto src = static_cast<std::size_t>(config.token_sources[t]);
    EXPECT_EQ(result.token_first[t][src], 0) << "token " << t + 1;
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_NE(result.token_first[t][static_cast<std::size_t>(v)], kNever)
          << "token " << t + 1 << " node " << v;
    }
  }
  // The single-token view is the first token's coverage.
  EXPECT_EQ(result.first_token, result.token_first.front());
  // Completion is the last first-reception over all (token, node) pairs.
  Round last = 0;
  for (const auto& first : result.token_first) {
    for (Round r : first) last = std::max(last, r);
  }
  EXPECT_EQ(result.completion_round, last);
}

TEST(MultiMessage, SingleTokenResultKeepsLegacyShape) {
  const DualGraph net = duals::layered_complete_gprime(4, 3);
  BenignAdversary adversary;
  SimConfig config;
  config.max_rounds = 100'000;
  const SimResult result = run_broadcast(
      net, mac::make_bmmb_factory(net.node_count()), adversary, config);
  EXPECT_EQ(result.token_count(), 1);
  EXPECT_EQ(result.first_token, result.token_first.front());
}

TEST(MultiMessage, RejectsInvalidTokenSources) {
  const DualGraph net = duals::layered_complete_gprime(4, 3);
  BenignAdversary adversary;
  SimConfig config;
  config.token_sources = {0, 0};
  EXPECT_THROW((void)run_broadcast(net, mac::make_bmmb_factory(net.node_count()),
                                   adversary, config),
               std::invalid_argument);
  config.token_sources = {0, net.node_count()};
  EXPECT_THROW((void)run_broadcast(net, mac::make_bmmb_factory(net.node_count()),
                                   adversary, config),
               std::invalid_argument);
}

TEST(MultiMessage, SpreadSourcesAreDistinctAndStartAtTheSource) {
  const DualGraph net = duals::layered_complete_gprime(8, 4);
  for (TokenId k : {1, 4, 16}) {
    const std::vector<NodeId> sources = mac::spread_token_sources(net, k);
    ASSERT_EQ(sources.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(sources.front(), net.source());
    std::set<NodeId> distinct(sources.begin(), sources.end());
    EXPECT_EQ(distinct.size(), sources.size());
    for (NodeId s : sources) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, net.node_count());
    }
  }
}

// --- measured ack / progress latencies ---------------------------------------

TEST(MacLatency, AckAndProgressLatenciesAreMeasured) {
  const DualGraph net = duals::layered_complete_gprime(6, 3);
  const NodeId n = net.node_count();
  SimConfig config;
  config.max_rounds = 200'000;
  config.token_sources = mac::spread_token_sources(net, 4);
  BenignAdversary adversary;
  const SimResult result =
      run_broadcast(net, mac::make_bmmb_factory(n), adversary, config);
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(result.process_metrics.empty());

  const mac::MacLatencySummary latency = mac::measure_mac_latency(net, result);
  EXPECT_GT(latency.acks, 0u);
  // An immediately-active message acks exactly one run after bcast; queue
  // wait only adds to that.
  EXPECT_GE(latency.ack_max, static_cast<double>(mac::decay_mac_run_length(n)));
  EXPECT_GE(latency.ack_mean, static_cast<double>(mac::decay_mac_run_length(n)));
  EXPECT_GT(latency.prog_samples, 0u);
  EXPECT_GE(latency.prog_max, 1);
  EXPECT_GE(latency.prog_mean, 1.0);
  EXPECT_EQ(latency.unreached, 0u);
}

TEST(MacLatency, NonMacWorkloadsReportNoAcks) {
  const DualGraph net = duals::strip_unreliable(duals::bridge_network(9));
  BenignAdversary adversary;
  SimConfig config;
  config.rule = CollisionRule::CR3;
  config.start = StartRule::Synchronous;
  const SimResult result =
      run_broadcast(net, make_decay_factory(9), adversary, config);
  const mac::MacLatencySummary latency = mac::measure_mac_latency(net, result);
  EXPECT_EQ(latency.acks, 0u);
  EXPECT_EQ(latency.ack_max, -1.0);
  EXPECT_EQ(latency.ack_mean, -1.0);
}

// --- campaign integration ----------------------------------------------------

TEST(MacScenarios, CatalogueHasTheMultiMessageSuite) {
  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  const std::vector<campaign::Scenario> mac_scenarios = registry.match("mac");
  EXPECT_GE(mac_scenarios.size(), 6u);
  std::set<std::size_t> ks;
  bool layered = false, grayzone = false;
  for (const campaign::Scenario& s : mac_scenarios) {
    EXPECT_EQ(s.name.rfind("mac/", 0), 0u) << s.name;
    const std::size_t k = campaign::token_count(s);
    const std::string k_tag = "k=" + std::to_string(k);
    EXPECT_NE(s.name.find("/" + k_tag + "/"), std::string::npos) << s.name;
    EXPECT_NE(std::find(s.tags.begin(), s.tags.end(), k_tag), s.tags.end())
        << s.name;
    ks.insert(k);
    layered = layered || s.name.find("/layered/") != std::string::npos;
    grayzone = grayzone || s.name.find("/grayzone/") != std::string::npos;
  }
  EXPECT_TRUE(ks.contains(1));
  EXPECT_TRUE(ks.contains(4));
  EXPECT_TRUE(ks.contains(16));
  EXPECT_TRUE(layered);
  EXPECT_TRUE(grayzone);
}

// Acceptance: the byte-identity determinism contract holds with the mac/*
// scenarios in the catalogue, and the rows carry the right token counts.
TEST(MacScenarios, MacCampaignByteIdenticalAcrossWorkerCounts) {
  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  const std::vector<campaign::Scenario> scenarios = registry.match("mac");
  ASSERT_FALSE(scenarios.empty());
  std::string baseline;
  for (unsigned threads : {1u, 4u, 8u}) {
    campaign::CampaignConfig config;
    config.master_seed = 2026;
    config.threads = threads;
    config.trials_override = 1;
    const campaign::CampaignResult result =
        campaign::run_campaign(scenarios, config);
    const std::string jsonl = campaign::trials_to_jsonl(result.trials);
    if (threads == 1u) {
      baseline = jsonl;
      for (const campaign::TrialRow& row : result.trials) {
        const campaign::Scenario* spec = nullptr;
        for (const campaign::Scenario& s : scenarios) {
          if (s.name == row.scenario) spec = &s;
        }
        ASSERT_NE(spec, nullptr) << row.scenario;
        EXPECT_EQ(static_cast<std::size_t>(row.tokens),
                  campaign::token_count(*spec))
            << row.scenario;
      }
    } else {
      EXPECT_EQ(jsonl, baseline) << "threads=" << threads;
    }
  }
}

// The collector chains after observers attached before it (the campaign
// CLI's --audit and --fail-on-contract), so --mac-jsonl disables neither.
TEST(MacScenarios, LatencyCollectorChainsEarlierObservers) {
  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  const std::vector<campaign::Scenario> scenarios = registry.match("mac");
  campaign::CampaignConfig config;
  config.trials_override = 1;
  std::size_t observed = 0;
  config.observer = [&](const campaign::Scenario&, const campaign::TrialRow&,
                        const SimResult&) { ++observed; };
  mac::LatencyCollector collector(scenarios);
  collector.attach(config);
  const campaign::CampaignResult result =
      campaign::run_campaign(scenarios, config);
  EXPECT_EQ(observed, result.trials.size());
  EXPECT_EQ(collector.sorted_rows().size(), result.trials.size());
}

}  // namespace
}  // namespace dualrad
