#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "adversary/scripted_adversary.hpp"
#include "adversary/theorem2_adversary.hpp"
#include "algorithms/cms_oblivious.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/scheduled.hpp"
#include "algorithms/strong_select.hpp"
#include "algorithms/uniform_gossip.hpp"
#include "byz/cpa.hpp"
#include "byz/plan.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "core/reference_engine.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "mac/bmmb.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

/// The sparse CSR engine (run_broadcast) must be *bit-identical* to the
/// dense reference engine (run_broadcast_reference) — same SimResult down to
/// trace bytes and process metrics — for every network, algorithm,
/// adversary, collision rule, start rule, token count, AND thread count of
/// the sharded parallel round kernel (SimConfig::threads). These tests sweep
/// randomized small executions across the full model surface (each also
/// replayed under threads in {2, 4}) and then replay the entire builtin
/// campaign grid through both engines with the campaign's own trial seeds.

namespace dualrad {
namespace {

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.completion_round, b.completion_round) << label;
  EXPECT_EQ(a.rounds_executed, b.rounds_executed) << label;
  EXPECT_EQ(a.first_token, b.first_token) << label;
  EXPECT_EQ(a.token_first, b.token_first) << label;
  EXPECT_EQ(a.process_of_node, b.process_of_node) << label;
  EXPECT_EQ(a.total_sends, b.total_sends) << label;
  EXPECT_EQ(a.total_collision_events, b.total_collision_events) << label;
  EXPECT_EQ(a.forged_tokens, b.forged_tokens) << label;
  // Equal blobs mean equal rounds: the senders, their messages and reach
  // lists, and every reception — and so equal per-round sender and
  // collision counts.
  EXPECT_EQ(a.trace.level, b.trace.level) << label;
  EXPECT_EQ(a.trace.blob, b.trace.blob) << label;
  EXPECT_EQ(a.trace.blob_offsets, b.trace.blob_offsets) << label;
  ASSERT_EQ(a.process_metrics.size(), b.process_metrics.size()) << label;
  for (std::size_t i = 0; i < a.process_metrics.size(); ++i) {
    EXPECT_EQ(a.process_metrics[i].node, b.process_metrics[i].node) << label;
    EXPECT_EQ(a.process_metrics[i].pid, b.process_metrics[i].pid) << label;
    EXPECT_EQ(a.process_metrics[i].name, b.process_metrics[i].name) << label;
    EXPECT_EQ(a.process_metrics[i].value, b.process_metrics[i].value) << label;
  }
}

/// Run one spec through the production engine (serial), the production
/// engine under the sharded parallel kernel (threads in {2, 4}), and the
/// reference engine — each with its own fresh adversary — and require all
/// four SimResults identical.
void run_both(const DualGraph& net, const ProcessFactory& factory,
              const campaign::AdversaryFactory& adversary,
              const SimConfig& config, const std::string& label) {
  const auto adv_a = adversary(mix_seed(config.seed, 0xAD));
  const SimResult fast = run_broadcast(net, factory, *adv_a, config);
  for (const unsigned threads : {2u, 4u}) {
    SimConfig parallel = config;
    parallel.threads = threads;
    const auto adv_p = adversary(mix_seed(config.seed, 0xAD));
    const SimResult sharded = run_broadcast(net, factory, *adv_p, parallel);
    expect_identical(sharded, fast,
                     label + "/threads=" + std::to_string(threads));
  }
  const auto adv_b = adversary(mix_seed(config.seed, 0xAD));
  const SimResult reference =
      run_broadcast_reference(net, factory, *adv_b, config);
  expect_identical(fast, reference, label);
}

using AlgorithmFactory = ProcessFactory (*)(const DualGraph&);

ProcessFactory decay_algo(const DualGraph& net) {
  return make_decay_factory(net.node_count());
}
ProcessFactory harmonic_algo(const DualGraph& net) {
  return make_harmonic_factory(net.node_count(), {.eps = 0.2});
}
ProcessFactory gossip_algo(const DualGraph& net) {
  return make_uniform_gossip_factory(net.node_count());
}
ProcessFactory round_robin_algo(const DualGraph& net) {
  return make_round_robin_factory(net.node_count());
}
ProcessFactory strong_select_algo(const DualGraph& net) {
  return make_strong_select_factory(net.node_count());
}
ProcessFactory scheduled_algo(const DualGraph& net) {
  // A non-trivial TDMA schedule: period n + 3, ids rotated by stride 3, so
  // some ids own several slots per period and (for n not coprime with 3)
  // others own none — exercising both multi-slot hints and kNever plans.
  const NodeId n = net.node_count();
  std::vector<ProcessId> slots(static_cast<std::size_t>(n) + 3);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<ProcessId>((i * 3) % static_cast<std::size_t>(n));
  }
  return make_scheduled_factory(n, std::move(slots));
}
ProcessFactory cms_algo(const DualGraph& net) {
  return make_cms_oblivious_factory(
      net.node_count(),
      {.delta = static_cast<NodeId>(net.g_prime_csr().max_in_degree())});
}

TEST(EngineEquivalence, RandomSmallScenarios) {
  // Sweep: every collision rule x start rule, cycling through algorithms,
  // adversaries, and randomized small dual networks (n <= 64). Traced, so
  // divergence anywhere in delivery, reception, or accounting is caught.
  const std::vector<std::pair<const char*, AlgorithmFactory>> algorithms = {
      {"decay", decay_algo},
      {"harmonic", harmonic_algo},
      {"gossip", gossip_algo},
      {"round-robin", round_robin_algo},
      {"strong-select", strong_select_algo},
      {"scheduled", scheduled_algo},
      {"cms", cms_algo},
  };
  const std::vector<std::pair<const char*, campaign::AdversaryFactory>>
      adversaries = {
          {"benign", campaign::make_adversary_factory<BenignAdversary>()},
          {"full-interference",
           campaign::make_adversary_factory<FullInterferenceAdversary>(
               /*deliver_on_cr4=*/true)},
          {"bernoulli",
           campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.5)},
          {"greedy", campaign::make_adversary_factory<GreedyBlockerAdversary>()},
      };
  const std::vector<std::pair<const char*, DualGraph>> networks = {
      {"layered", duals::layered_complete_gprime(5, 4)},
      {"grayzone", duals::gray_zone({.n = 40, .seed = 9})},
      {"backbone", duals::backbone_plus_unreliable({.n = 64, .seed = 4})},
      {"layered-sparse",
       duals::layered_sparse(
           {.layers = 8, .width = 6, .fwd_degree = 2, .unreliable_degree = 1,
            .seed = 5})},
      {"grayzone-grid",
       duals::gray_zone_grid({.n = 48, .mean_degree = 6.0, .seed = 11})},
      {"bridge", duals::bridge_network(12)},
  };

  std::size_t combo = 0;
  for (const CollisionRule rule : {CollisionRule::CR1, CollisionRule::CR2,
                                   CollisionRule::CR3, CollisionRule::CR4}) {
    for (const StartRule start :
         {StartRule::Synchronous, StartRule::Asynchronous}) {
      for (std::size_t i = 0; i < 4; ++i, ++combo) {
        const auto& [algo_name, algo] = algorithms[combo % algorithms.size()];
        const auto& [adv_name, adversary] =
            adversaries[(combo / 2) % adversaries.size()];
        const auto& [net_name, net] = networks[(combo / 3) % networks.size()];
        SimConfig config;
        config.rule = rule;
        config.start = start;
        config.max_rounds = 30'000;
        config.seed = mix_seed(1234, combo);
        config.trace = TraceLevel::Compressed;
        run_both(net, algo(net), adversary, config,
                 std::string(algo_name) + "/" + net_name + "/" + adv_name +
                     "/" + to_string(rule) + "/" + to_string(start));
      }
    }
  }
}

TEST(EngineEquivalence, MultiTokenExecutions) {
  // k in {1, 4} tokens via BMMB-over-DecayMac — the layered MAC processes
  // use neither scheduling hint, so this exercises the engine's
  // per-round-polling fallback path with multi-token bookkeeping.
  const DualGraph layered = duals::layered_complete_gprime(6, 4);
  const DualGraph grayzone = duals::gray_zone({.n = 32, .seed = 6});
  for (const DualGraph* net : {&layered, &grayzone}) {
    for (const TokenId k : {TokenId{1}, TokenId{4}}) {
      for (const StartRule start :
           {StartRule::Synchronous, StartRule::Asynchronous}) {
        SimConfig config;
        config.start = start;
        config.max_rounds = 200'000;
        config.seed = mix_seed(77, static_cast<std::uint64_t>(k));
        config.trace = TraceLevel::Compressed;
        config.token_sources = mac::spread_token_sources(*net, k);
        run_both(*net, mac::make_bmmb_factory(net->node_count()),
                 campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.3),
                 config,
                 "bmmb/k=" + std::to_string(k) + "/" + to_string(start));
      }
    }
  }
}

TEST(EngineEquivalence, ProofRuleAndScriptedAdversaries) {
  // The remaining migrated implementations — the Theorem 2 fixed-rule
  // adversary (with its pinned proc mapping) and a scripted replay — must
  // round-trip both engines and the parallel kernel bit-identically too.
  {
    const NodeId n = 12;
    const DualGraph net = duals::bridge_network(n);
    // Owns the rule adversary and the pinned assignment in one object so a
    // campaign-style factory can mint fresh ones per engine run.
    class PinnedTheorem2 : public Theorem2Adversary {
     public:
      explicit PinnedTheorem2(NodeId n)
          : Theorem2Adversary(duals::bridge_layout(n)),
            map_(theorem2_assignment(n, 4)) {}
      std::vector<ProcessId> assign_processes(const DualGraph&) override {
        return map_;
      }

     private:
      std::vector<ProcessId> map_;
    };
    SimConfig config;
    config.rule = CollisionRule::CR1;
    config.start = StartRule::Synchronous;
    config.max_rounds = 5'000;
    config.seed = 31;
    config.trace = TraceLevel::Compressed;
    run_both(net, make_harmonic_factory(n, {.eps = 0.2}),
             [n](std::uint64_t) { return std::make_unique<PinnedTheorem2>(n); },
             config, "theorem2/bridge");
  }
  {
    const DualGraph net = duals::gray_zone({.n = 28, .seed = 15});
    // A random legal (G'-only) script, replayed identically per run.
    AdversaryScript script;
    script.reach.resize(64);
    StreamRng rng(0x5C12);
    for (auto& plan : script.reach) {
      for (NodeId u = 0; u < net.node_count(); ++u) {
        if (!rng.bernoulli(0.4)) continue;
        std::vector<NodeId> extras;
        for (const NodeId v : net.unreliable_out(u)) {
          if (rng.bernoulli(0.5)) extras.push_back(v);
        }
        if (!extras.empty()) plan[u] = std::move(extras);
      }
    }
    SimConfig config;
    config.rule = CollisionRule::CR3;
    config.start = StartRule::Asynchronous;
    config.max_rounds = 20'000;
    config.seed = 77;
    config.trace = TraceLevel::Compressed;
    run_both(net, make_decay_factory(net.node_count()),
             [&script](std::uint64_t) {
               return std::make_unique<ScriptedAdversary>(script);
             },
             config, "scripted/grayzone");
  }
}

TEST(EngineEquivalence, StopOnCompletionOffMatchesToo) {
  // Running past completion (termination experiments) must agree as well.
  const DualGraph net = duals::layered_complete_gprime(4, 3);
  SimConfig config;
  config.max_rounds = 2'000;
  config.stop_on_completion = false;
  config.seed = 5;
  config.trace = TraceLevel::Compressed;
  run_both(net, make_decay_factory(net.node_count()),
           campaign::make_adversary_factory<BenignAdversary>(), config,
           "decay/no-stop");
}

TEST(EngineEquivalence, BuiltinCampaignGridIsBitIdentical) {
  // Replay the builtin catalogue through both engines — and the parallel
  // kernel at 4 threads — with the campaign's own derived trial seeds
  // (master seed 1, trial 0 — exactly what run_campaign hands the
  // simulator), proving the production engine swap does not shift a single
  // campaign number. The 100k/1m "slow" points are too slow for the dense
  // engine; CI's release-bench job holds two of them (layered-1m/benign and
  // layered-100k/greedy) bit-identical across 1 and 4 kernel threads.
  // Everything else runs here.
  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  std::size_t checked = 0;
  for (const campaign::Scenario& s : registry.all()) {
    bool slow = false;
    for (const std::string& tag : s.tags) slow = slow || tag == "slow";
    if (slow) continue;
    // Scenarios with a custom trial runner (the byz/* family wraps the run
    // in a ByzantinePlan) are replayed by ByzantineExecutionsAreBitIdentical
    // and ByzCampaignExportsAreThreadInvariant instead.
    if (s.runner) continue;
    const DualGraph net = s.network();
    const ProcessFactory factory = s.algorithm(net);
    SimConfig config;
    config.rule = s.rule;
    config.start = s.start;
    config.max_rounds = s.max_rounds;
    config.seed = campaign::trial_seed(1, s.name, 0);
    config.token_sources = s.token_sources;
    const auto adv_a = s.adversary(mix_seed(config.seed, 0xAD));
    const auto adv_p = s.adversary(mix_seed(config.seed, 0xAD));
    const auto adv_b = s.adversary(mix_seed(config.seed, 0xAD));
    const SimResult fast = run_broadcast(net, factory, *adv_a, config);
    SimConfig parallel = config;
    parallel.threads = 4;
    const SimResult sharded = run_broadcast(net, factory, *adv_p, parallel);
    expect_identical(sharded, fast, s.name + "/threads=4");
    const SimResult reference =
        run_broadcast_reference(net, factory, *adv_b, config);
    expect_identical(fast, reference, s.name);
    ++checked;
  }
  EXPECT_GE(checked, 20u);
}

TEST(EngineEquivalence, ByzantineExecutionsAreBitIdentical) {
  // Byzantine node faults (src/byz/) run through the same hot paths —
  // silenced protocol sends, injected forged sends, forged-delivery masks —
  // and every byproduct including SimResult::forged_tokens must stay
  // bit-identical across both engines and the sharded kernel.
  const DualGraph layered = duals::layered_sparse(
      {.layers = 8, .width = 6, .fwd_degree = 3, .unreliable_degree = 2,
       .seed = 5});
  const DualGraph grayzone = duals::gray_zone({.n = 40, .seed = 9});
  const auto adversary =
      campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.4);
  for (const DualGraph* net : {&layered, &grayzone}) {
    const auto src = static_cast<ProcessId>(net->source());
    const ProcessFactory cpa = byz::make_cpa_factory(
        net->node_count(), {.f = 1,
                            .trusted_origins = {src},
                            .relay_p = 0.5,
                            .active_rounds = 64,
                            .rebroadcast_period = 16});
    const ProcessFactory relay = byz::make_uncertified_relay_factory(
        net->node_count(),
        {.relay_p = 0.5, .active_rounds = 64, .rebroadcast_period = 16});
    for (const byz::ByzBehavior behavior :
         {byz::ByzBehavior::Silent, byz::ByzBehavior::Forge}) {
      const byz::ByzantinePlan plan = byz::make_random_plan(
          *net, /*f=*/1, /*count=*/5, behavior, {}, 0xBEEF);
      ASSERT_GE(plan.faults().size(), 1u);
      SimConfig config;
      config.rule = CollisionRule::CR3;
      config.start = StartRule::Asynchronous;
      config.max_rounds = 20'000;
      config.seed = mix_seed(4711, static_cast<std::uint64_t>(behavior));
      config.trace = TraceLevel::Compressed;
      config.byzantine = &plan;
      const std::string tag = (net == &layered ? "layered" : "grayzone");
      const std::string mode =
          behavior == byz::ByzBehavior::Silent ? "silent" : "forge";
      run_both(*net, cpa, adversary, config, "byz/" + tag + "/cpa/" + mode);
      run_both(*net, relay, adversary, config,
               "byz/" + tag + "/relay/" + mode);
    }
  }
}

TEST(EngineEquivalence, ByzCampaignExportsAreThreadInvariant) {
  // The byz/* scenario family must export byte-identical JSONL/CSV for any
  // intra-trial thread count — the acceptance pin for the node-fault
  // subsystem riding the campaign engine's determinism contract.
  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  const std::vector<campaign::Scenario> scenarios =
      registry.match("byz/layered-1k");
  ASSERT_GE(scenarios.size(), 4u);
  std::string base_jsonl, base_csv;
  for (const unsigned threads_per_trial : {1u, 2u, 4u}) {
    campaign::CampaignConfig config;
    config.master_seed = 7;
    config.threads = 2;
    config.threads_per_trial = threads_per_trial;
    config.trials_override = 1;
    const campaign::CampaignResult result =
        campaign::run_campaign(scenarios, config);
    const std::string jsonl = campaign::trials_to_jsonl(result.trials, false);
    const std::string csv = campaign::trials_to_csv(result.trials, false);
    ASSERT_FALSE(jsonl.empty());
    if (threads_per_trial == 1u) {
      base_jsonl = jsonl;
      base_csv = csv;
    } else {
      EXPECT_EQ(jsonl, base_jsonl)
          << "threads_per_trial=" << threads_per_trial;
      EXPECT_EQ(csv, base_csv) << "threads_per_trial=" << threads_per_trial;
    }
  }
}

TEST(EngineEquivalence, TelemetryDoesNotPerturbResults) {
  // The telemetry layer is strictly out-of-band: attaching an
  // obs::RoundTelemetry must leave the SimResult bit-identical — serial and
  // sharded (threads in {1, 2, 4}), and equal to the reference engine (which
  // has no telemetry), with a trace so any perturbation anywhere in
  // delivery or accounting would surface.
  const DualGraph net = duals::gray_zone({.n = 40, .seed = 9});
  const ProcessFactory factory = make_decay_factory(net.node_count());
  const auto adversary =
      campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.5);
  for (const CollisionRule rule : {CollisionRule::CR2, CollisionRule::CR4}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      SimConfig config;
      config.rule = rule;
      config.start = StartRule::Asynchronous;
      config.max_rounds = 30'000;
      config.seed = 4242;
      config.trace = TraceLevel::Compressed;
      config.threads = threads;
      const auto adv_off = adversary(mix_seed(config.seed, 0xAD));
      const SimResult off = run_broadcast(net, factory, *adv_off, config);

      obs::RoundTelemetry telemetry(8);
      config.telemetry = &telemetry;
      const auto adv_on = adversary(mix_seed(config.seed, 0xAD));
      const SimResult on = run_broadcast(net, factory, *adv_on, config);
      const std::string label = "telemetry/" + std::string(to_string(rule)) +
                                "/threads=" + std::to_string(threads);
      expect_identical(on, off, label);
      EXPECT_EQ(telemetry.rounds_recorded(), off.rounds_executed) << label;

      const auto adv_ref = adversary(mix_seed(config.seed, 0xAD));
      SimConfig ref_config = config;
      ref_config.telemetry = nullptr;
      const SimResult ref =
          run_broadcast_reference(net, factory, *adv_ref, ref_config);
      expect_identical(ref, off, label + "/reference");
    }
  }
}

TEST(EngineEquivalence, TraceIsWellFormed) {
  // Every traced round decodes: rounds numbered 1..R, senders, reach lists
  // and receptions ascending and in range, silence never stored, and the
  // senders summing to total_sends. Re-encoding the decoded rounds gives the
  // blob back byte for byte, and the blob is bit-identical across engines
  // and thread counts (run_both).
  const DualGraph net = duals::gray_zone({.n = 40, .seed = 9});
  const NodeId n = net.node_count();
  const ProcessFactory factory = make_decay_factory(n);
  const auto adversary =
      campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.4);
  for (const CollisionRule rule :
       {CollisionRule::CR1, CollisionRule::CR2, CollisionRule::CR4}) {
    SimConfig config;
    config.rule = rule;
    config.start = StartRule::Asynchronous;
    config.max_rounds = 30'000;
    config.seed = 99;
    config.trace = TraceLevel::Compressed;
    const auto adv = adversary(mix_seed(config.seed, 0xAD));
    const SimResult result = run_broadcast(net, factory, *adv, config);
    const std::string label = "trace/" + std::string(to_string(rule));

    const std::vector<SparseRound> rounds =
        testing::decode_rounds(result.trace, n);
    ASSERT_EQ(rounds.size(), static_cast<std::size_t>(result.rounds_executed))
        << label;
    std::uint64_t sends = 0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      const SparseRound& round = rounds[i];
      EXPECT_EQ(round.round, static_cast<Round>(i + 1)) << label;
      NodeId prev = -1;
      for (const SparseRound::Sender& s : round.senders) {
        EXPECT_GT(s.node, prev) << label;
        prev = s.node;
        for (const NodeId v : round.reach(s)) {
          EXPECT_TRUE(net.g_prime_csr().contains(s.node, v)) << label;
        }
      }
      sends += round.senders.size();
      prev = -1;
      for (const SparseRound::Heard& h : round.receptions) {
        EXPECT_GT(h.node, prev) << label;
        EXPECT_FALSE(h.reception.is_silence()) << label;
        prev = h.node;
      }
    }
    EXPECT_EQ(sends, result.total_sends) << label;

    Trace reencoded;
    testing::encode_rounds(reencoded, rounds);
    EXPECT_EQ(reencoded.blob, result.trace.blob) << label;
    EXPECT_EQ(reencoded.blob_offsets, result.trace.blob_offsets) << label;

    run_both(net, factory, adversary, config, label);
  }
}

}  // namespace
}  // namespace dualrad
