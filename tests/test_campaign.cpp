#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string_view>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "campaign/registry.hpp"
#include "graph/dual_builders.hpp"

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

// --- scenario specs ----------------------------------------------------------

// One spec per network family; together the rows use every algorithm,
// adversary, collision rule and start rule the grammar accepts. Every spec
// parses to a scenario named by the spec itself, builds the network it
// names, and runs one trial to completion.
TEST(ScenarioSpec, EverySingleRunValueParsesAndRuns) {
  struct Row {
    const char* spec;
    NodeId nodes;
    CollisionRule rule;
    StartRule start;
  };
  const Row rows[] = {
      {"adhoc/bridge:n=16/round-robin/benign/cr1/sync", 16, CollisionRule::CR1,
       StartRule::Synchronous},
      {"adhoc/layered:layers=4:width=3/strong-select/greedy/cr2/async", 10,
       CollisionRule::CR2, StartRule::Asynchronous},
      {"adhoc/grayzone:n=24:seed=7/harmonic/bernoulli:0.5/cr3/sync", 24,
       CollisionRule::CR3, StartRule::Synchronous},
      {"adhoc/backbone:n=24:seed=11/decay/full-interference/cr4/async", 24,
       CollisionRule::CR4, StartRule::Asynchronous},
      {"adhoc/theorem11:n=17/cms/benign/cr3/async", 17, CollisionRule::CR3,
       StartRule::Asynchronous},
      {"adhoc/theorem12:n=17/strong-select-forever/greedy/cr4/sync", 17,
       CollisionRule::CR4, StartRule::Synchronous},
      {"adhoc/clique:n=16/gossip/bernoulli:0.1/cr2/async", 16,
       CollisionRule::CR2, StartRule::Asynchronous},
  };
  std::set<std::string> fields[5];
  for (const Row& row : rows) {
    const Scenario scenario = parse_spec(row.spec);
    EXPECT_EQ(scenario.name, row.spec);
    EXPECT_EQ(scenario.rule, row.rule) << row.spec;
    EXPECT_EQ(scenario.start, row.start) << row.spec;
    EXPECT_EQ(scenario.trials, 1u) << row.spec;
    EXPECT_EQ(scenario.network().node_count(), row.nodes) << row.spec;
    const TrialExecutor executor(scenario, 5);
    EXPECT_TRUE(executor.run(0).row.completed) << row.spec;

    std::string_view rest = row.spec;
    rest.remove_prefix(kSpecPrefix.size());
    for (std::set<std::string>& field : fields) {
      const std::size_t slash = rest.find('/');
      field.insert(std::string(rest.substr(0, rest.find_first_of(":/"))));
      rest = slash == std::string_view::npos ? "" : rest.substr(slash + 1);
    }
  }
  EXPECT_EQ(fields[0].size(), 7u);  // networks
  EXPECT_EQ(fields[1].size(), 7u);  // algorithms
  EXPECT_EQ(fields[2].size(), 4u);  // adversaries
  EXPECT_EQ(fields[3].size(), 4u);  // collision rules
  EXPECT_EQ(fields[4].size(), 2u);  // start rules
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
       }) {
    EXPECT_THROW((void)parse_spec(spec), std::invalid_argument) << spec;
    if (std::string_view(spec).starts_with(kSpecPrefix)) {
      EXPECT_THROW((void)select_scenarios(builtin_registry(), spec),
                   std::invalid_argument)
          << spec;
    }
  }
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
  const Scenario spec =
      parse_spec("adhoc/layered:layers=8:width=4/harmonic/greedy/cr4/async");
  const Scenario builtin =
      builtin_registry().at("dual/harmonic/layered/greedy");
  EXPECT_EQ(spec.rule, builtin.rule);
  EXPECT_EQ(spec.start, builtin.start);

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

TEST(CampaignExport, CsvRoundTripsTrialRows) {
  const CampaignResult result = run_campaign(cheap_campaign(), {});
  const std::string csv = trials_to_csv(result.trials);
  EXPECT_EQ(trials_from_csv(csv), result.trials);
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
  EXPECT_EQ(trials_from_csv(trials_to_csv(rows)), rows);
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
  EXPECT_EQ(trials_from_csv(trials_to_csv(rows, /*include_timing=*/true)),
            rows);
  // Without timing, wall_us is deliberately dropped (determinism contract);
  // everything else survives.
  std::vector<TrialRow> untimed = rows;
  untimed[0].wall_us = -1;
  EXPECT_EQ(trials_from_jsonl(trials_to_jsonl(rows)), untimed);
  EXPECT_EQ(trials_from_csv(trials_to_csv(rows)), untimed);
}

TEST(CampaignExport, EmptyCampaignsExportAndParseCleanly) {
  // No scenarios at all: the engine returns an empty result...
  const CampaignResult result = run_campaign({}, {});
  EXPECT_TRUE(result.trials.empty());
  EXPECT_TRUE(result.summaries.empty());
  // ...JSONL is the empty string, CSV is header-only, and both parse back
  // to zero rows instead of garbage.
  EXPECT_EQ(trials_to_jsonl(result.trials), "");
  EXPECT_TRUE(trials_from_jsonl("").empty());
  const std::string csv = trials_to_csv(result.trials);
  EXPECT_EQ(csv,
            "scenario,trial,seed,completed,rounds,rounds_executed,sends,"
            "collisions,tokens\n");
  EXPECT_TRUE(trials_from_csv(csv).empty());
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
  const std::vector<TrialRow> csv_rows = trials_from_csv(
      "scenario,trial,seed,completed,rounds,rounds_executed,sends,"
      "collisions\nold/row,0,5,1,10,10,3,0\n");
  ASSERT_EQ(csv_rows.size(), 1u);
  EXPECT_EQ(csv_rows[0].tokens, 1);
  EXPECT_EQ(csv_rows[0].wall_us, -1);
}

TEST(CampaignExport, ParsersRejectMalformedInput) {
  EXPECT_THROW((void)trials_from_jsonl("{\"scenario\":\"x\"}\n"),
               std::invalid_argument);
  EXPECT_THROW((void)trials_from_csv("not,the,header\n1,2,3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)trials_from_csv(
                   "scenario,trial,seed,completed,rounds,rounds_executed,"
                   "sends,collisions\na,0,1,1,2\n"),
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
  // Non-numeric fields must throw in both formats.
  EXPECT_THROW(
      (void)trials_from_jsonl(
          "{\"scenario\":\"test/x\",\"trial\":zero,\"seed\":5,"
          "\"completed\":true,\"rounds\":10,\"rounds_executed\":10,"
          "\"sends\":3,\"collisions\":0,\"tokens\":1}\n"),
      std::invalid_argument);
  EXPECT_THROW((void)trials_from_csv(
                   "scenario,trial,seed,completed,rounds,rounds_executed,"
                   "sends,collisions,tokens\ntest/x,0,5,1,ten,10,3,0,1\n"),
               std::invalid_argument);
  // A row with more cells than the header announced is malformed too.
  EXPECT_THROW((void)trials_from_csv(
                   "scenario,trial,seed,completed,rounds,rounds_executed,"
                   "sends,collisions,tokens\ntest/x,0,5,1,10,10,3,0,1,42\n"),
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
