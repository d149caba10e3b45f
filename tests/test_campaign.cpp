#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "campaign/registry.hpp"
#include "core/rng.hpp"
#include "graph/dual_builders.hpp"
#include "serve/checkpoint.hpp"

namespace dualrad::campaign {
namespace {

Scenario cheap_scenario(const std::string& name) {
  Scenario s;
  s.name = name;
  s.network = [] { return duals::layered_complete_gprime(4, 3); };
  s.algorithm = [](const DualGraph& net) {
    return make_harmonic_factory(net.node_count(), {.eps = 0.2});
  };
  s.adversary = make_seeded_adversary_factory<BernoulliAdversary>(0.4);
  s.max_rounds = 500'000;
  s.trials = 4;
  return s;
}

std::vector<Scenario> cheap_campaign() {
  std::vector<Scenario> scenarios;
  scenarios.push_back(cheap_scenario("test/harmonic/bernoulli"));
  Scenario greedy = cheap_scenario("test/harmonic/greedy");
  greedy.adversary = make_adversary_factory<GreedyBlockerAdversary>();
  scenarios.push_back(greedy);
  Scenario rr = cheap_scenario("test/round-robin/benign");
  rr.algorithm = [](const DualGraph& net) {
    return make_round_robin_factory(net.node_count());
  };
  rr.adversary = make_adversary_factory<BenignAdversary>();
  rr.trials = 2;
  scenarios.push_back(rr);
  return scenarios;
}

/// Ad-hoc runs spelled as scenario specs, three trials each.
std::vector<Scenario> spec_campaign() {
  std::vector<Scenario> scenarios;
  for (const char* spec :
       {"adhoc/grayzone:n=24:seed=7/harmonic/bernoulli:0.5/cr3/sync",
        "adhoc/bridge:n=16/strong-select/greedy/cr4/async",
        "adhoc/backbone:n=24:seed=11/decay/full-interference/cr1/async"}) {
    scenarios.push_back(parse_spec(spec));
    scenarios.back().trials = 3;
  }
  return scenarios;
}

// --- engine determinism ------------------------------------------------------

TEST(CampaignEngine, JsonlByteIdenticalAcrossWorkerCounts) {
  for (const std::vector<Scenario>& scenarios :
       {cheap_campaign(), spec_campaign()}) {
    std::string baseline_trials, baseline_summaries;
    for (unsigned threads : {1u, 4u, 8u}) {
      CampaignConfig config;
      config.master_seed = 99;
      config.threads = threads;
      const CampaignResult result = run_campaign(scenarios, config);
      const std::string trials = trials_to_jsonl(result.trials);
      const std::string summaries = summaries_to_jsonl(result.summaries);
      if (threads == 1) {
        baseline_trials = trials;
        baseline_summaries = summaries;
        EXPECT_FALSE(trials.empty());
      } else {
        EXPECT_EQ(trials, baseline_trials) << "threads=" << threads;
        EXPECT_EQ(summaries, baseline_summaries) << "threads=" << threads;
      }
    }
  }
}

// The sharded parallel round kernel inside a trial (SimConfig::threads via
// CampaignConfig::threads_per_trial) must not move a byte of campaign
// output either — its shard merge is deterministic and every observable is
// per-node independent.
TEST(CampaignEngine, JsonlByteIdenticalAcrossThreadsPerTrial) {
  for (const std::vector<Scenario>& scenarios :
       {cheap_campaign(), spec_campaign()}) {
    std::string baseline_trials, baseline_summaries;
    for (unsigned threads_per_trial : {1u, 4u}) {
      CampaignConfig config;
      config.master_seed = 123;
      config.threads = 2;
      config.threads_per_trial = threads_per_trial;
      const CampaignResult result = run_campaign(scenarios, config);
      const std::string trials = trials_to_jsonl(result.trials);
      const std::string summaries = summaries_to_jsonl(result.summaries);
      const std::string trials_csv = trials_to_csv(result.trials);
      if (threads_per_trial == 1) {
        baseline_trials = trials + trials_csv;
        baseline_summaries = summaries;
        EXPECT_FALSE(trials.empty());
      } else {
        EXPECT_EQ(trials + trials_csv, baseline_trials)
            << "threads_per_trial=" << threads_per_trial;
        EXPECT_EQ(summaries, baseline_summaries)
            << "threads_per_trial=" << threads_per_trial;
      }
    }
  }
}

TEST(CampaignEngine, RowOrderIsScenarioThenTrial) {
  const CampaignResult result = run_campaign(cheap_campaign(), {});
  ASSERT_EQ(result.trials.size(), 4u + 4u + 2u);
  std::size_t i = 0;
  for (const char* name : {"test/harmonic/bernoulli", "test/harmonic/greedy",
                           "test/round-robin/benign"}) {
    for (std::uint32_t t = 0;
         i < result.trials.size() && result.trials[i].scenario == name;
         ++t, ++i) {
      EXPECT_EQ(result.trials[i].trial, t);
    }
  }
  EXPECT_EQ(i, result.trials.size());
}

TEST(CampaignEngine, TrialSeedsAreDerivedStreams) {
  const CampaignResult result = run_campaign(cheap_campaign(), {});
  std::set<std::uint64_t> seeds;
  for (const TrialRow& row : result.trials) {
    EXPECT_EQ(row.seed, trial_seed(1, row.scenario, row.trial));
    seeds.insert(row.seed);
  }
  EXPECT_EQ(seeds.size(), result.trials.size()) << "trial seeds must differ";
  // A scenario's stream does not depend on which other scenarios run.
  EXPECT_EQ(trial_seed(1, "test/harmonic/greedy", 0),
            trial_seed(1, "test/harmonic/greedy", 0));
  EXPECT_NE(trial_seed(1, "test/harmonic/greedy", 0),
            trial_seed(2, "test/harmonic/greedy", 0));
}

TEST(CampaignEngine, MasterSeedChangesRandomizedResults) {
  const std::vector<Scenario> scenarios = {cheap_scenario("test/seeded")};
  CampaignConfig a, b;
  a.master_seed = 1;
  b.master_seed = 2;
  const std::string ja = trials_to_jsonl(run_campaign(scenarios, a).trials);
  const std::string jb = trials_to_jsonl(run_campaign(scenarios, b).trials);
  EXPECT_NE(ja, jb);
}

// Each trial must get a *fresh* adversary: one instance, one execution.
TEST(CampaignEngine, AdversaryFactoryCalledOncePerTrial) {
  // Campaign worker threads construct and start adversaries concurrently.
  struct Counters {
    std::atomic<int> constructed{0};
    std::atomic<int> reused{0};  // instances whose on_execution_start ran twice
  };
  struct CountingAdversary : BenignAdversary {
    explicit CountingAdversary(Counters* c) : counters(c) { ++c->constructed; }
    void on_execution_start(const DualGraph& net) override {
      BenignAdversary::on_execution_start(net);
      if (++starts > 1) ++counters->reused;
    }
    Counters* counters;
    int starts = 0;
  };

  Counters counters;
  Scenario s = cheap_scenario("test/fresh-adversary");
  s.trials = 6;
  s.adversary = [&counters](std::uint64_t) {
    return std::make_unique<CountingAdversary>(&counters);
  };
  (void)run_campaign({s}, {});
  EXPECT_EQ(counters.constructed, 6);
  EXPECT_EQ(counters.reused, 0);
}

TEST(CampaignEngine, TrialsOverrideAndSummaryAccounting) {
  CampaignConfig config;
  config.trials_override = 2;
  const CampaignResult result = run_campaign(cheap_campaign(), config);
  EXPECT_EQ(result.trials.size(), 3u * 2u);
  ASSERT_EQ(result.summaries.size(), 3u);
  for (const ScenarioSummary& summary : result.summaries) {
    EXPECT_EQ(summary.trials, 2u);
    EXPECT_EQ(summary.rounds.count + summary.failures, summary.trials);
  }
  EXPECT_NE(find_summary(result, "test/harmonic/greedy"), nullptr);
  EXPECT_EQ(find_summary(result, "no/such/scenario"), nullptr);
}

TEST(CampaignEngine, ObserverSeesEveryTrialWithFullSimResult) {
  Scenario s = cheap_scenario("test/observed");
  s.trials = 3;
  CampaignConfig config;
  config.threads = 4;
  std::set<std::uint32_t> seen;
  config.observer = [&seen](const Scenario& scenario, const TrialRow& row,
                            const SimResult& result) {
    EXPECT_EQ(scenario.name, "test/observed");
    EXPECT_EQ(result.completed, row.completed);
    EXPECT_FALSE(result.first_token.empty());
    seen.insert(row.trial);
  };
  (void)run_campaign({s}, config);
  EXPECT_EQ(seen.size(), 3u);
}

// Duplicate names would share a seed stream and collide in find_summary;
// the engine rejects them even when the caller bypassed a registry.
TEST(CampaignEngine, RejectsDuplicateScenarioNames) {
  const std::vector<Scenario> scenarios = {cheap_scenario("test/twin"),
                                           cheap_scenario("test/twin")};
  EXPECT_THROW((void)run_campaign(scenarios, {}), std::invalid_argument);
}

TEST(CampaignEngine, TrialExceptionsPropagate) {
  Scenario s = cheap_scenario("test/throwing");
  s.adversary = [](std::uint64_t) -> std::unique_ptr<Adversary> {
    throw std::runtime_error("adversary construction failed");
  };
  EXPECT_THROW((void)run_campaign({s}, {}), std::runtime_error);
}

// --- registry ----------------------------------------------------------------

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  ScenarioRegistry registry;
  registry.add(cheap_scenario("test/unique"));
  EXPECT_THROW(registry.add(cheap_scenario("test/unique")),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ScenarioRegistry, RejectsInvalidNamesAndMissingBuilders) {
  ScenarioRegistry registry;
  EXPECT_THROW(registry.add(cheap_scenario("")), std::invalid_argument);
  EXPECT_THROW(registry.add(cheap_scenario("has space")),
               std::invalid_argument);
  EXPECT_THROW(registry.add(cheap_scenario("has\"quote")),
               std::invalid_argument);
  Scenario no_adversary = cheap_scenario("test/no-adversary");
  no_adversary.adversary = nullptr;
  EXPECT_THROW(registry.add(no_adversary), std::invalid_argument);
}

TEST(ScenarioRegistry, MatchFiltersByNameAndTag) {
  ScenarioRegistry registry;
  Scenario a = cheap_scenario("test/alpha");
  a.tags = {"quick"};
  Scenario b = cheap_scenario("test/beta");
  b.tags = {"slow"};
  registry.add(a);
  registry.add(b);
  EXPECT_EQ(registry.match("").size(), 2u);
  EXPECT_EQ(registry.match("alpha").size(), 1u);
  EXPECT_EQ(registry.match("slow").size(), 1u);
  EXPECT_EQ(registry.match("slow").front().name, "test/beta");
  EXPECT_TRUE(registry.match("nope").empty());
  EXPECT_EQ(registry.at("test/alpha").name, "test/alpha");
  EXPECT_THROW((void)registry.at("test/gamma"), std::invalid_argument);
}

TEST(BuiltinScenarios, CatalogueHasAtLeastTwelveValidScenarios) {
  const ScenarioRegistry registry = builtin_registry();
  EXPECT_GE(registry.size(), 12u);
  for (const Scenario& s : registry.all()) {
    EXPECT_TRUE(is_valid_scenario_name(s.name)) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.network)) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.algorithm)) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.adversary)) << s.name;
  }
}

TEST(BuiltinScenarios, QuickSubsetRunsToCompletion) {
  const ScenarioRegistry registry = builtin_registry();
  CampaignConfig config;
  config.trials_override = 1;
  const CampaignResult result = run_campaign(registry.match("quick"), config);
  ASSERT_GE(result.summaries.size(), 4u);
  for (const ScenarioSummary& summary : result.summaries) {
    EXPECT_EQ(summary.failures, 0u) << summary.scenario;
  }
}

/// FNV-1a of `text` as 16 hex digits.
std::string hex_digest(std::string_view text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(text)));
  return buf;
}

// The catalogue, pinned in registration order. Per builtin: a digest of
// what it declares (name, trials, rule, start, round cap, tags, token
// sources, and whether a runner replaces the default trial body) and, for
// every builtin not tagged slow, a digest of its trial-0 JSONL row at master
// seed 42, run with the cap lowered to min(cap, 2000) so the test stays
// quick. One token at the network source is the default whether the list
// is empty or names that node, so both digest as "source".
TEST(BuiltinScenarios, CatalogueIsPinned) {
  struct Pin {
    const char* name;
    const char* declared;
    const char* trial0;  ///< empty for the slow builtins
  };
  const Pin pins[] = {
      {"classical/round-robin/bridge/benign", "817167bbec9278ef",
       "5f296049eda3e414"},
      {"classical/decay/bridge/benign", "24ccc70fa031f090",
       "c03b4c9a42763b52"},
      {"classical/gossip/clique/benign", "54409fa7eab60de3",
       "622095f58fb08971"},
      {"dual/round-robin/layered/full-interference", "002805b8961ad0a3",
       "f0969f145ec3495e"},
      {"dual/strong-select/layered/greedy", "e6125284af3a336b",
       "59033bcf73f945f0"},
      {"dual/strong-select/layered/bernoulli:0.5", "e6b33d73a5e67593",
       "46b61e21421c02b9"},
      {"dual/strong-select/grayzone/greedy", "b1144b438a4baa66",
       "51938fd20e4702a1"},
      {"dual/cms/layered/greedy", "baf17ba203e3280b",
       "886cea309e28fa57"},
      {"dual/harmonic/layered/greedy", "49bf6daccae00393",
       "932dcae0915d52b1"},
      {"dual/harmonic/layered/full-interference", "e3cc0dbd8b6a3365",
       "db1798d82508915b"},
      {"dual/harmonic/grayzone/bernoulli:0.3", "5e67554fcaa9d388",
       "fb6b8769412187b8"},
      {"dual/harmonic/backbone/bernoulli:0.5", "9f2bcc03bab993e2",
       "ecfdc7f5acae9653"},
      {"dual/gossip/layered/bernoulli:0.5", "06d604965519745e",
       "4b5c2f97c195745e"},
      {"dual/decay/layered/greedy", "43b2d83732d4ea98",
       "be602c88db1a62fa"},
      {"scale/decay/layered-1k/benign", "c368a370da720c91",
       "0a8b487c273fd881"},
      {"scale/decay/layered-1k/bernoulli:0.1", "8067624f385c24a5",
       "a547a5a3b2b0b2c9"},
      {"scale/decay/layered-1k/greedy", "ed7324a122270a7a",
       "16a768d855f66783"},
      {"scale/decay/layered-10k/benign", "c7cb50592c649c68",
       "1ead12677b050217"},
      {"scale/decay/layered-10k/bernoulli:0.1", "d365424fb7c0b640",
       "9245717899ef1f30"},
      {"scale/decay/layered-10k/greedy", "61ea27a6747284a3",
       "a1b0902fa9519e58"},
      {"scale/decay/layered-100k/benign", "20707dd39cd36698",
       ""},
      {"scale/decay/layered-100k/bernoulli:0.1", "01887e2d287c04b4",
       ""},
      {"scale/decay/layered-100k/greedy", "ff9015fcc0c88335",
       ""},
      {"scale/decay/layered-1m/benign", "1121e958165ead24",
       ""},
      {"scale/decay/layered-1m/bernoulli:0.1", "3a075dd7f749dacc",
       ""},
      {"scale/decay/layered-1m/greedy", "c8e3571b01fd0a73",
       ""},
      {"scale/decay/grayzone-1k/benign", "aa8bac0d0240cef6",
       "be195b46e3bb04e1"},
      {"scale/decay/grayzone-1k/bernoulli:0.1", "df95db1f0f9f22cc",
       "119bb8ed7b716afa"},
      {"scale/decay/grayzone-1k/greedy", "7bba19ad8cfe8695",
       "3a76fbc9c7a8eb26"},
      {"scale/decay/grayzone-10k/benign", "5ae696a5c4084fe9",
       "6d13c163fb232643"},
      {"scale/decay/grayzone-10k/bernoulli:0.1", "ebfb4ee7733e5f87",
       "b1fc2f78d577f135"},
      {"scale/decay/grayzone-10k/greedy", "5a9b7ce71b94a95e",
       "3bd5fc97dfdec2c2"},
      {"scale/decay/grayzone-100k/benign", "27819bfc3db2051d",
       ""},
      {"scale/decay/grayzone-100k/bernoulli:0.1", "0f9aa59328a537b7",
       ""},
      {"scale/decay/grayzone-100k/greedy", "1e7530ef818fb7b8",
       ""},
      {"scale/decay/grayzone-1m/benign", "a8d5b76731760e0f",
       ""},
      {"scale/decay/grayzone-1m/bernoulli:0.1", "d5b2d3c92a95bc49",
       ""},
      {"scale/decay/grayzone-1m/greedy", "caa459ec507e6970",
       ""},
      {"mac/bmmb-decay/layered/k=1/benign", "86ef5dc643d45d77",
       "e9c95ad5cc7ad834"},
      {"mac/bmmb-decay/layered/k=4/benign", "e5ab13c6690533f5",
       "23c4e269938ca78f"},
      {"mac/bmmb-decay/layered/k=16/bernoulli:0.5", "187d2bd1c004d3f2",
       "a6624f67ee9848cc"},
      {"mac/bmmb-decay/layered/k=4/greedy", "03c3af20c259b9be",
       "620ac21b8b4f069c"},
      {"mac/bmmb-decay/grayzone/k=4/bernoulli:0.3", "2c34c6ed951f1b5d",
       "2529804864beaee4"},
      {"mac/bmmb-decay/grayzone/k=16/benign", "12bdc1ca20194480",
       "71a4151d2e91e3a0"},
      {"byz/layered-1k/cpa/f=1-silent", "55e11edb6dd5ec71",
       "a5597369a5613abf"},
      {"byz/layered-1k/cpa/f=1-forge", "bce7f3e49fd11f0d",
       "b087fd49f7c498bf"},
      {"byz/layered-1k/decay/f=1-silent", "a808add8d88733c9",
       "2f82ef205e60d196"},
      {"byz/layered-1k/decay/f=1-forge", "a66b2228288aeab5",
       "2ccf9c1664892bd2"},
      {"byz/layered-1k/cpa/f=2-forge", "50900c2198f2e8b0",
       "8d4c97b54d54b0d0"},
      {"byz/layered-1k/decay/f=2-forge", "63f2136e39409cd8",
       "2f71bb70fa534466"},
      {"byz/grayzone-1k/cpa/f=1-forge", "3a321eb48bb33f28",
       "55136569f1bad218"},
      {"byz/grayzone-1k/decay/f=1-forge", "f83efaa230d38080",
       "eb4370d43e72815e"},
      {"byz/grayzone-1k/cpa/f=2-silent", "ec0ea99b38d6a019",
       "dd95d81715f962d0"},
      {"byz/layered-10k/cpa/f=1-forge", "fef2100f21d2c798",
       "6661cf6ee2831441"},
      {"byz/layered-10k/decay/f=1-forge", "5afaa16d7f260848",
       "1a06a137f29c9394"},
      {"byz/layered-10k/cpa/f=1-adaptive", "5c2da71982b9a393",
       "143b4a1d72cc06fe"},
      {"byz/grayzone-10k/cpa/f=2-forge", "93406a40ebb86d22",
       "d7b839f0ea9f5104"},
      {"byz/layered-100k/cpa/f=1-forge", "e719f2fe835fb312",
       ""},
      {"byz/grayzone-100k/cpa/f=2-silent", "d25e6031d66f5856",
       ""},
  };
  const ScenarioRegistry registry = builtin_registry();
  ASSERT_EQ(registry.size(), std::size(pins));
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const Scenario& s = registry.all()[i];
    std::string declared = s.name + "|" + std::to_string(s.trials) + "|" +
                           to_string(s.rule) + "|" + to_string(s.start) +
                           "|" + std::to_string(s.max_rounds) + "|";
    for (const std::string& tag : s.tags) declared += tag + ",";
    const bool one_source =
        s.token_sources.empty() ||
        (s.token_sources.size() == 1 &&
         s.token_sources.front() == s.network().source());
    declared += one_source ? "|source" : "|";
    for (const NodeId v : s.token_sources) {
      if (!one_source) declared += std::to_string(v) + ",";
    }
    declared += s.runner ? "|runner" : "|default";

    std::string trial0;
    if (std::find(s.tags.begin(), s.tags.end(), "slow") == s.tags.end()) {
      Scenario capped = s;
      capped.max_rounds = std::min<Round>(s.max_rounds, 2000);
      trial0 =
          hex_digest(trials_to_jsonl({TrialExecutor(capped, 42).run(0).row}));
    }
    EXPECT_EQ(s.name, pins[i].name);
    EXPECT_EQ(hex_digest(declared), pins[i].declared) << s.name;
    EXPECT_EQ(trial0, pins[i].trial0) << s.name;
  }
}

// --- scenario specs ----------------------------------------------------------

// One spec per network family; together the rows use every algorithm,
// adversary, collision rule, start rule and optional field the grammar
// accepts. Every spec parses to a scenario named by the spec itself, builds
// the network it names, and runs one trial: to completion without byz:
// faults (a placement may keep nodes from ever accepting the token), and
// with the forgers' tokens on record under forge faults.
TEST(ScenarioSpec, EverySingleRunValueParsesAndRuns) {
  struct Row {
    const char* spec;
    NodeId nodes;
    CollisionRule rule;
    StartRule start;
    std::int32_t tokens;
    Round max_rounds;
  };
  const Row rows[] = {
      {"adhoc/bridge:n=16/round-robin/benign/cr1/sync", 16, CollisionRule::CR1,
       StartRule::Synchronous, 1, 10'000'000},
      {"adhoc/layered:layers=4:width=3/strong-select/greedy/cr2/async", 10,
       CollisionRule::CR2, StartRule::Asynchronous, 1, 10'000'000},
      {"adhoc/grayzone:n=24:seed=7/harmonic/bernoulli:0.5/cr3/sync", 24,
       CollisionRule::CR3, StartRule::Synchronous, 1, 10'000'000},
      {"adhoc/backbone:n=24:seed=11/decay/full-interference/cr4/async", 24,
       CollisionRule::CR4, StartRule::Asynchronous, 1, 10'000'000},
      {"adhoc/theorem11:n=17/cms/benign/cr3/async", 17, CollisionRule::CR3,
       StartRule::Asynchronous, 1, 10'000'000},
      {"adhoc/theorem12:n=17/strong-select-forever/greedy/cr4/sync", 17,
       CollisionRule::CR4, StartRule::Synchronous, 1, 10'000'000},
      {"adhoc/clique:n=16/gossip/bernoulli:0.1/cr2/async", 16,
       CollisionRule::CR2, StartRule::Asynchronous, 1, 10'000'000},
      {"adhoc/classical-bridge:n=16/decay-windowed/benign/cr3/sync/"
       "cap=100000",
       16, CollisionRule::CR3, StartRule::Synchronous, 1, 100'000},
      {"adhoc/scale-layered:layers=5:width=4/cpa:f=1/benign/cr3/async/"
       "byz:f=1:silent/cap=2000",
       21, CollisionRule::CR3, StartRule::Asynchronous, 1, 2'000},
      {"adhoc/scale-grayzone:n=64/relay/bernoulli:0.25/cr4/sync/"
       "byz:f=1:adaptive/cap=2000",
       64, CollisionRule::CR4, StartRule::Synchronous, 1, 2'000},
      {"adhoc/layered:layers=4:width=3/bmmb/greedy/cr1/sync/tokens=3/"
       "cap=50000",
       10, CollisionRule::CR1, StartRule::Synchronous, 3, 50'000},
      {"adhoc/scale-grayzone:n=64/cpa:f=2/full-interference/cr2/async/"
       "tokens=2/byz:f=2:forge/cap=3000",
       64, CollisionRule::CR2, StartRule::Asynchronous, 2, 3'000},
  };
  std::set<std::string> fields[6];
  for (const Row& row : rows) {
    const std::string_view spec = row.spec;
    const Scenario scenario = parse_spec(spec);
    EXPECT_EQ(scenario.name, spec);
    EXPECT_EQ(scenario.rule, row.rule) << spec;
    EXPECT_EQ(scenario.start, row.start) << spec;
    EXPECT_EQ(scenario.max_rounds, row.max_rounds) << spec;
    EXPECT_EQ(scenario.trials, 1u) << spec;
    EXPECT_EQ(scenario.network().node_count(), row.nodes) << spec;
    const bool byz = spec.find("/byz:") != std::string_view::npos;
    EXPECT_EQ(static_cast<bool>(scenario.runner), byz) << spec;
    const TrialExecutor::Outcome trial = TrialExecutor(scenario, 5).run(0);
    EXPECT_EQ(trial.row.tokens, row.tokens) << spec;
    if (byz) {
      EXPECT_EQ(trial.sim.forged_tokens.empty(),
                spec.find(":silent") != std::string_view::npos)
          << spec;
    } else {
      EXPECT_TRUE(trial.row.completed) << spec;
    }

    std::string_view rest = spec;
    rest.remove_prefix(kSpecPrefix.size());
    for (std::size_t i = 0; !rest.empty(); ++i) {
      const std::size_t slash = rest.find('/');
      const std::string_view field = rest.substr(0, slash);
      // The required fields by their text before any ':'; the optional
      // ones, after them, by their name.
      fields[std::min<std::size_t>(i, 5)].insert(std::string(
          field.substr(0, field.find_first_of(i < 5 ? ":" : ":="))));
      rest = slash == std::string_view::npos ? "" : rest.substr(slash + 1);
    }
  }
  EXPECT_EQ(fields[0].size(), 10u);  // networks
  EXPECT_EQ(fields[1].size(), 11u);  // algorithms
  EXPECT_EQ(fields[2].size(), 4u);   // adversaries
  EXPECT_EQ(fields[3].size(), 4u);   // collision rules
  EXPECT_EQ(fields[4].size(), 2u);   // start rules
  EXPECT_EQ(fields[5].size(), 3u);   // optional fields
}

TEST(ScenarioSpec, MalformedSpecsThrow) {
  for (const char* spec : {
           "adhoc/ring:n=8/harmonic/greedy/cr4/async",       // unknown family
           "adhoc/bridge:n=16/harmonic/greedy/cr4",          // missing field
           "adhoc/bridge:n=16/harmonic/greedy/cr4/async/x",  // extra field
           "adhoc/bridge:n=064/harmonic/greedy/cr4/async",
           "adhoc/bridge:n=-5/harmonic/greedy/cr4/async",
           "adhoc/bridge:n=+5/harmonic/greedy/cr4/async",
           "adhoc/bridge:n=16abc/harmonic/greedy/cr4/async",
           "adhoc/bridge:n=4294967296/harmonic/greedy/cr4/async",
           "adhoc/bridge:n=/harmonic/greedy/cr4/async",
           "adhoc/bridge/harmonic/greedy/cr4/async",              // no n
           "adhoc/bridge:n=16:seed=1/harmonic/greedy/cr4/async",  // extra arg
           "adhoc/grayzone:n=64/harmonic/greedy/cr4/async",       // no seed
           "adhoc/grayzone:seed=7:n=64/harmonic/greedy/cr4/async",  // order
           "adhoc/bridge:n=16/harmonic/bernoulli:1.5/cr4/async",
           "adhoc/bridge:n=16/harmonic/bernoulli:0.50/cr4/async",
           "adhoc/bridge:n=16/harmonic/bernoulli:.5/cr4/async",
           "adhoc/bridge:n=16/harmonic/bernoulli:1.0/cr4/async",
           "adhoc/bridge:n=16/harmonic/bernoulli:5e-1/cr4/async",
           "adhoc/bridge:n=16/harmonic/bernoulli:-0/cr4/async",
           "adhoc/bridge:n=16/harmonic/bernoulli:+0.5/cr4/async",
           "adhoc/bridge:n=16/Harmonic/greedy/cr4/async",
           "adhoc/bridge:n=16/harmonic/full/cr4/async",
           "adhoc/bridge:n=16/harmonic/greedy/cr5/async",
           "adhoc/bridge:n=16/harmonic/greedy/cr4/bogus",
           "bridge:n=16/harmonic/greedy/cr4/async",  // no adhoc/ prefix
           "adhoc/classical-bridge:n=16:seed=1/decay/benign/cr3/sync",
           "adhoc/scale-grayzone:n=64:seed=7/decay/benign/cr3/async",
           "adhoc/scale-layered:layers=5/decay/benign/cr3/async",
           // Windowed Decay and the adaptive fault take no arguments.
           "adhoc/bridge:n=16/decay:active=0:period=32/greedy/cr4/async",
           "adhoc/bridge:n=16/decay-windowed:active=2/greedy/cr4/async",
           "adhoc/bridge:n=16/cpa:f=0/greedy/cr4/async",
           "adhoc/bridge:n=16/cpa/greedy/cr4/async",
           "adhoc/bridge:n=16/bmmb/greedy/cr4/async/tokens=1",
           "adhoc/bridge:n=16/bmmb/greedy/cr4/async/tokens=0",
           "adhoc/bridge:n=16/bmmb/greedy/cr4/async/tokens=04",
           "adhoc/bridge:n=16/bmmb/greedy/cr4/async/tokens=17",  // > n
           "adhoc/bridge:n=16/harmonic/greedy/cr4/async/cap=10000000",
           "adhoc/bridge:n=16/harmonic/greedy/cr4/async/cap=0",
           "adhoc/bridge:n=16/relay/greedy/cr4/async/byz:f=1:bogus",
           "adhoc/bridge:n=16/relay/greedy/cr4/async/byz:f=1:adaptive=0",
           "adhoc/bridge:n=16/relay/greedy/cr4/async/byz:f=1:adaptive=4",
           "adhoc/bridge:n=16/relay/greedy/cr4/async/byz:f=0:forge",
           "adhoc/bridge:n=16/relay/greedy/cr4/async/byz:f=1",
           "adhoc/bridge:n=16/relay/greedy/cr4/async/byz:forge:f=1",
           "adhoc/bridge:n=16/relay/greedy/cr4/async/cap=100/byz:f=1:forge",
           "adhoc/bridge:n=16/bmmb/greedy/cr4/async/cap=100/tokens=2",
           "adhoc/bridge:n=16/harmonic/greedy/cr4/async/cap=100/cap=100",
           "adhoc/bridge:n=16/bmmb/greedy/cr4/async/tokens=2/tokens=2",
           "adhoc/bridge:n=16/harmonic/greedy/cr4/async/cap=100/x",
       }) {
    EXPECT_THROW((void)parse_spec(spec), std::invalid_argument) << spec;
    if (std::string_view(spec).starts_with(kSpecPrefix)) {
      EXPECT_THROW((void)select_scenarios(builtin_registry(), spec),
                   std::invalid_argument)
          << spec;
    }
  }
}

// tokens=K builds the network to place its sources, but only after every
// field has passed its checks: the cap=0 below is reported, not the bridge
// builder's n >= 3 precondition.
TEST(ScenarioSpec, FieldsAreCheckedBeforeTokensBuildTheNetwork) {
  try {
    (void)parse_spec("adhoc/bridge:n=2/bmmb/benign/cr4/async/tokens=2/cap=0");
    ADD_FAILURE() << "cap=0 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string_view(e.what()).find("cap=N"), std::string_view::npos)
        << e.what();
  }
  EXPECT_THROW(
      (void)parse_spec("adhoc/bridge:n=2/bmmb/benign/cr4/async/tokens=2"),
      std::invalid_argument);
}

// A spec filter selects exactly its scenario; any other filter is the
// registry's substring match, and no builtin name looks like a spec.
TEST(ScenarioSpec, SelectionNamesExactlyTheSpec) {
  const ScenarioRegistry registry = builtin_registry();
  const std::string spec = "adhoc/clique:n=16/gossip/benign/cr3/sync";
  const std::vector<Scenario> selected = select_scenarios(registry, spec);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected.front().name, spec);
  for (const char* filter : {"", "quick", "dual/harmonic", "adhoc"}) {
    std::vector<std::string> want, got;
    for (const Scenario& s : registry.match(filter)) want.push_back(s.name);
    for (const Scenario& s : select_scenarios(registry, filter)) {
      got.push_back(s.name);
    }
    EXPECT_EQ(got, want) << filter;
  }
  for (const Scenario& s : registry.all()) {
    EXPECT_FALSE(s.name.starts_with(kSpecPrefix)) << s.name;
  }
}

// The spec of a builtin's tuple runs the builtin's execution exactly.
TEST(ScenarioSpec, SpecRunsLikeTheBuiltinItSpells) {
  const Scenario spec = parse_spec(
      "adhoc/layered:layers=8:width=4/harmonic/greedy/cr4/async/"
      "cap=20000000");
  const Scenario builtin =
      builtin_registry().at("dual/harmonic/layered/greedy");
  EXPECT_EQ(spec.rule, builtin.rule);
  EXPECT_EQ(spec.start, builtin.start);
  EXPECT_EQ(spec.max_rounds, builtin.max_rounds);

  SimConfig config;
  config.rule = CollisionRule::CR4;
  config.start = StartRule::Asynchronous;
  config.max_rounds = 20'000'000;
  config.seed = 77;
  config.trace = TraceLevel::Compressed;
  const auto run = [&](const Scenario& s) {
    const DualGraph net = s.network();
    const std::unique_ptr<Adversary> adversary = s.adversary(config.seed);
    return run_broadcast(net, s.algorithm(net), *adversary, config);
  };
  const SimResult a = run(spec);
  const SimResult b = run(builtin);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.completion_round, b.completion_round);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.first_token, b.first_token);
  EXPECT_EQ(a.token_first, b.token_first);
  EXPECT_EQ(a.process_of_node, b.process_of_node);
  EXPECT_EQ(a.total_sends, b.total_sends);
  EXPECT_EQ(a.total_collision_events, b.total_collision_events);
  EXPECT_FALSE(a.trace.blob.empty());
  EXPECT_EQ(a.trace.blob, b.trace.blob);
  EXPECT_EQ(a.trace.blob_offsets, b.trace.blob_offsets);
}

// --- export round trips ------------------------------------------------------

TEST(CampaignExport, JsonlRoundTripsTrialRows) {
  const CampaignResult result = run_campaign(cheap_campaign(), {});
  const std::string jsonl = trials_to_jsonl(result.trials);
  EXPECT_EQ(trials_from_jsonl(jsonl), result.trials);
}

TEST(CampaignExport, TrialsCsvIsGolden) {
  const std::string header =
      "scenario,trial,seed,completed,rounds,rounds_executed,sends,"
      "collisions,tokens";
  // An incomplete trial: rounds is kNever (-1), completed is 0.
  TrialRow failed;
  failed.scenario = "test/failed";
  failed.trial = 7;
  failed.seed = 0xFFFF'FFFF'FFFF'FFFFULL;
  failed.rounds_executed = 100'000;
  failed.sends = 123;
  failed.collisions = 45;
  // A multi-token trial, exported untimed (no wall_us column) and timed.
  TrialRow mac;
  mac.scenario = "test/mac";
  mac.trial = 2;
  mac.seed = 99;
  mac.completed = true;
  mac.rounds = 1234;
  mac.rounds_executed = 1234;
  mac.sends = 500;
  mac.collisions = 7;
  mac.tokens = 16;
  mac.wall_us = 98765;
  EXPECT_EQ(trials_to_csv({failed, mac}),
            header +
                "\ntest/failed,7,18446744073709551615,0,-1,100000,123,45,1\n"
                "test/mac,2,99,1,1234,1234,500,7,16\n");
  EXPECT_EQ(trials_to_csv({mac}, /*include_timing=*/true),
            header + ",wall_us\ntest/mac,2,99,1,1234,1234,500,7,16,98765\n");
}

TEST(CampaignExport, RoundTripsIncompleteTrials) {
  // kNever (= -1) rounds of an uncompleted trial must survive both formats.
  std::vector<TrialRow> rows(1);
  rows[0].scenario = "test/failed";
  rows[0].trial = 7;
  rows[0].seed = 0xFFFF'FFFF'FFFF'FFFFULL;
  rows[0].completed = false;
  rows[0].rounds = kNever;
  rows[0].rounds_executed = 100'000;
  rows[0].sends = 123;
  rows[0].collisions = 45;
  EXPECT_EQ(trials_from_jsonl(trials_to_jsonl(rows)), rows);
  const std::vector<TrialRow> parsed = trials_from_jsonl(trials_to_jsonl(rows));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].rounds, kNever);
}

TEST(CampaignExport, RoundTripsMultiTokenAndTimedTrials) {
  std::vector<TrialRow> rows(1);
  rows[0].scenario = "test/mac";
  rows[0].trial = 2;
  rows[0].seed = 99;
  rows[0].completed = true;
  rows[0].rounds = 1234;
  rows[0].rounds_executed = 1234;
  rows[0].sends = 500;
  rows[0].collisions = 7;
  rows[0].tokens = 16;
  rows[0].wall_us = 98765;
  // With timing the full row round-trips.
  EXPECT_EQ(trials_from_jsonl(trials_to_jsonl(rows, /*include_timing=*/true)),
            rows);
  // Without timing, wall_us is deliberately dropped (determinism contract);
  // everything else survives.
  std::vector<TrialRow> untimed = rows;
  untimed[0].wall_us = -1;
  EXPECT_EQ(trials_from_jsonl(trials_to_jsonl(rows)), untimed);
}

TEST(CampaignExport, EmptyCampaignsExportAndParseCleanly) {
  // No scenarios at all: the engine returns an empty result...
  const CampaignResult result = run_campaign({}, {});
  EXPECT_TRUE(result.trials.empty());
  EXPECT_TRUE(result.summaries.empty());
  // ...JSONL is the empty string and parses back to zero rows instead of
  // garbage, and CSV is header-only.
  EXPECT_EQ(trials_to_jsonl(result.trials), "");
  EXPECT_TRUE(trials_from_jsonl("").empty());
  EXPECT_EQ(trials_to_csv(result.trials),
            "scenario,trial,seed,completed,rounds,rounds_executed,sends,"
            "collisions,tokens\n");
  EXPECT_EQ(summaries_to_jsonl(result.summaries), "");
}

TEST(CampaignExport, LegacyExportsWithoutTokensStillParse) {
  // Files written before the tokens / wall_us columns existed.
  const std::vector<TrialRow> jsonl_rows = trials_from_jsonl(
      "{\"scenario\":\"old/row\",\"trial\":0,\"seed\":5,\"completed\":true,"
      "\"rounds\":10,\"rounds_executed\":10,\"sends\":3,\"collisions\":0}\n");
  ASSERT_EQ(jsonl_rows.size(), 1u);
  EXPECT_EQ(jsonl_rows[0].tokens, 1);
  EXPECT_EQ(jsonl_rows[0].wall_us, -1);
}

TEST(CampaignExport, ParsersRejectMalformedInput) {
  EXPECT_THROW((void)trials_from_jsonl("{\"scenario\":\"x\"}\n"),
               std::invalid_argument);
}

TEST(CampaignExport, ParsersRejectTruncatedAndNonNumericRows) {
  // A JSONL line cut off mid-object must throw, not yield a garbage row.
  const std::string good =
      "{\"scenario\":\"test/x\",\"trial\":0,\"seed\":5,\"completed\":true,"
      "\"rounds\":10,\"rounds_executed\":10,\"sends\":3,\"collisions\":0,"
      "\"tokens\":1}";
  EXPECT_EQ(trials_from_jsonl(good + "\n").size(), 1u);
  EXPECT_THROW((void)trials_from_jsonl(good.substr(0, good.size() / 2) + "\n"),
               std::invalid_argument);
  // A non-numeric field must throw.
  EXPECT_THROW(
      (void)trials_from_jsonl(
          "{\"scenario\":\"test/x\",\"trial\":zero,\"seed\":5,"
          "\"completed\":true,\"rounds\":10,\"rounds_executed\":10,"
          "\"sends\":3,\"collisions\":0,\"tokens\":1}\n"),
      std::invalid_argument);
}

TEST(CampaignEngine, WallTimeMeasuredOnlyOnRequest) {
  const std::vector<Scenario> scenarios = {cheap_scenario("test/timed")};
  CampaignConfig off;
  const CampaignResult untimed = run_campaign(scenarios, off);
  for (const TrialRow& row : untimed.trials) EXPECT_EQ(row.wall_us, -1);
  EXPECT_EQ(untimed.summaries.front().mean_wall_ms, -1.0);

  CampaignConfig on;
  on.measure_wall_time = true;
  const CampaignResult timed = run_campaign(scenarios, on);
  for (const TrialRow& row : timed.trials) EXPECT_GE(row.wall_us, 0);
  EXPECT_GE(timed.summaries.front().mean_wall_ms, 0.0);

  // Timing sits OUTSIDE the determinism contract: the default exports of a
  // timed run are byte-identical to an untimed run's.
  EXPECT_EQ(trials_to_jsonl(timed.trials), trials_to_jsonl(untimed.trials));
  EXPECT_EQ(trials_to_csv(timed.trials), trials_to_csv(untimed.trials));
}

TEST(CampaignEngine, TimedSummaryAveragesOnlyTrialsThatRan) {
  // Journaled rows carry no wall time (-1). A fully resumed timed run has no
  // mean; a partly resumed one averages only the trials it ran.
  const std::vector<Scenario> scenarios = {cheap_scenario("test/timed")};
  const CampaignResult journaled = run_campaign(scenarios, {});
  const std::string journal = ::testing::TempDir() + "dualrad_timed_resume_" +
                              std::to_string(::getpid());
  const auto write_journal = [&](std::size_t rows) {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < rows; ++i) {
      out << serve::journal_line(journaled.trials[i]);
    }
  };
  CampaignConfig config;
  config.measure_wall_time = true;
  config.journal_path = journal;
  config.resume = true;
  write_journal(journaled.trials.size());
  EXPECT_EQ(run_campaign(scenarios, config).summaries.front().mean_wall_ms,
            -1.0);

  const std::size_t half = 2;
  write_journal(half);
  const CampaignResult partial = run_campaign(scenarios, config);
  std::remove(journal.c_str());
  double ran_us = 0.0;
  std::size_t ran = 0;
  for (const TrialRow& row : partial.trials) {
    if (row.wall_us < 0) continue;
    ran_us += static_cast<double>(row.wall_us);
    ++ran;
  }
  ASSERT_EQ(ran, partial.trials.size() - half);
  EXPECT_DOUBLE_EQ(partial.summaries.front().mean_wall_ms,
                   ran_us / 1000.0 / static_cast<double>(ran));
}

TEST(CampaignExport, TelemetryRowsRoundTripThroughJsonl) {
  CampaignConfig config;
  config.collect_telemetry = true;
  const CampaignResult result = run_campaign(cheap_campaign(), config);
  ASSERT_EQ(result.telemetry.size(), result.trials.size());
  // Every row carries wall time and mirrors its trial's aggregates.
  for (std::size_t i = 0; i < result.telemetry.size(); ++i) {
    const TelemetryRow& row = result.telemetry[i];
    EXPECT_EQ(row.scenario, result.trials[i].scenario);
    EXPECT_EQ(row.trial, result.trials[i].trial);
    EXPECT_GE(row.wall_us, 0);
    EXPECT_EQ(row.senders,
              static_cast<std::uint64_t>(result.trials[i].sends));
    EXPECT_EQ(row.collisions,
              static_cast<std::uint64_t>(result.trials[i].collisions));
  }
  const std::string jsonl = telemetry_to_jsonl(result.telemetry);
  EXPECT_EQ(telemetry_from_jsonl(jsonl), result.telemetry);
}

TEST(CampaignExport, TelemetryParserAcceptsLegacyTimingOnlyRows) {
  // Rows written by a plain wall-time export (no counter columns) still
  // parse; the missing counters default to zero.
  const std::vector<TelemetryRow> rows = telemetry_from_jsonl(
      "{\"scenario\":\"old/timed\",\"trial\":3,\"wall_us\":4200}\n"
      "{\"scenario\":\"old/untimed\",\"trial\":0}\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].scenario, "old/timed");
  EXPECT_EQ(rows[0].trial, 3u);
  EXPECT_EQ(rows[0].wall_us, 4200);
  EXPECT_EQ(rows[0].deliveries, 0u);
  EXPECT_EQ(rows[0].poll_ns, 0u);
  EXPECT_EQ(rows[1].wall_us, -1);
  EXPECT_THROW((void)telemetry_from_jsonl("{\"trial\":0}\n"),
               std::invalid_argument);
}

TEST(CampaignEngine, TelemetryCollectionKeepsDefaultExportsByteIdentical) {
  // Telemetry, like wall time, lives OUTSIDE the determinism contract: the
  // canonical trial/summary exports of an instrumented run match an
  // uninstrumented run byte for byte.
  const std::vector<Scenario> scenarios = cheap_campaign();
  CampaignConfig off;
  off.master_seed = 77;
  const CampaignResult plain = run_campaign(scenarios, off);
  EXPECT_TRUE(plain.telemetry.empty());

  CampaignConfig on;
  on.master_seed = 77;
  on.collect_telemetry = true;
  on.threads = 4;
  const CampaignResult instrumented = run_campaign(scenarios, on);
  EXPECT_EQ(trials_to_jsonl(instrumented.trials),
            trials_to_jsonl(plain.trials));
  EXPECT_EQ(trials_to_csv(instrumented.trials), trials_to_csv(plain.trials));
  EXPECT_EQ(summaries_to_jsonl(instrumented.summaries),
            summaries_to_jsonl(plain.summaries));
}

TEST(CampaignEngine, HeartbeatCampaignRunsClean) {
  // A sub-second campaign with a long heartbeat period: the reporter thread
  // must start, idle, and shut down without emitting or deadlocking.
  CampaignConfig config;
  config.heartbeat_secs = 3600;
  config.threads = 2;
  const CampaignResult result = run_campaign(cheap_campaign(), config);
  EXPECT_EQ(result.trials.size(), 10u);
}

TEST(CampaignExport, SummariesSerializeFailuresAsMinusOne) {
  ScenarioSummary all_failed;
  all_failed.scenario = "test/all-failed";
  all_failed.trials = 3;
  all_failed.failures = 3;
  const std::string jsonl = summaries_to_jsonl({all_failed});
  EXPECT_NE(jsonl.find("\"mean_rounds\":-1"), std::string::npos);
  const std::string csv = summaries_to_csv({all_failed});
  EXPECT_NE(csv.find("test/all-failed,3,3,-1"), std::string::npos);
}

}  // namespace
}  // namespace dualrad::campaign
