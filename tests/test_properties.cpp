// Deeper property sweeps: schedule geometry invariants for Strong Select
// across many n, Theorem 12 against additional deterministic algorithms,
// empirical send-rate checks for the randomized algorithms, and clone
// equivalence (the contract the lower-bound builders rely on).

#include <gtest/gtest.h>

#include <cmath>

#include "adversary/basic_adversaries.hpp"
#include "algorithms/cms_oblivious.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/scheduled.hpp"
#include "algorithms/strong_select.hpp"
#include "algorithms/uniform_gossip.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "lowerbound/theorem12.hpp"
#include "selectors/ssf.hpp"

namespace dualrad {
namespace {

// ------------------------------------------- schedule geometry properties

class ScheduleGeometry : public ::testing::TestWithParam<NodeId> {};

TEST_P(ScheduleGeometry, EveryRoundBelongsToExactlyOneFamilySlot) {
  const NodeId n = GetParam();
  const auto schedule = make_strong_select_schedule(n);
  const Round L = schedule->epoch_length();
  // Per epoch, family s owns exactly 2^{s-1} rounds; slots increase by one
  // per owned round, never skipping.
  std::vector<Round> last_slot(static_cast<std::size_t>(schedule->s_max()) + 1,
                               -1);
  for (Round r = 1; r <= 4 * L; ++r) {
    const auto slot = schedule->slot_of_round(r);
    ASSERT_GE(slot.s, 1);
    ASSERT_LE(slot.s, schedule->s_max());
    EXPECT_EQ(slot.index, last_slot[static_cast<std::size_t>(slot.s)] + 1)
        << "family " << slot.s << " at round " << r;
    last_slot[static_cast<std::size_t>(slot.s)] = slot.index;
  }
  for (int s = 1; s <= schedule->s_max(); ++s) {
    EXPECT_EQ(last_slot[static_cast<std::size_t>(s)] + 1,
              4 * (Round{1} << (s - 1)));
  }
}

TEST_P(ScheduleGeometry, FamiliesAreStronglySelectiveSampled) {
  const NodeId n = GetParam();
  const auto schedule = make_strong_select_schedule(n);
  for (int s = 1; s <= schedule->s_max(); ++s) {
    const auto k = static_cast<NodeId>(
        std::min<Round>(Round{1} << s, static_cast<Round>(n)));
    EXPECT_EQ(sample_violations(schedule->family(s), k, 150,
                                static_cast<std::uint64_t>(n) * 31 + s),
              0u)
        << "family " << s << " n " << n;
  }
}

TEST_P(ScheduleGeometry, ParticipationWindowsDisjointPerToken) {
  const NodeId n = GetParam();
  const auto schedule = make_strong_select_schedule(n);
  for (const Round token : {Round{0}, Round{13}, Round{200}}) {
    for (int s = 1; s <= schedule->s_max(); ++s) {
      const Round start = schedule->participation_start(token, s);
      // The window [start, start + ell) starts at or after the first slot
      // following the token round.
      EXPECT_GE(start, schedule->slots_before(token, s));
      EXPECT_EQ(start % schedule->ell(s), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManyN, ScheduleGeometry,
                         ::testing::Values(8, 16, 31, 64, 100, 256, 777, 1024));

// --------------------------------------------- Theorem 12, more algorithms

TEST(Theorem12More, CmsObliviousForcedPastBound) {
  const NodeId n = 17;
  const DualGraph net = duals::theorem12_network(n);
  const auto delta = static_cast<NodeId>(net.g_prime_csr().max_in_degree());
  const auto result = lowerbound::run_theorem12(
      n, make_cms_oblivious_factory(n, {.delta = delta}));
  ASSERT_TRUE(result.valid);
  if (!result.stalled) {
    EXPECT_GE(result.total_rounds, result.guaranteed_bound);
    EXPECT_LT(result.covered_processes, n);
  }
}

TEST(Theorem12More, TdmaScheduleIsAlsoForced) {
  // Even a "perfect" id-ordered TDMA schedule is deterministic, so the
  // construction defeats it: the adversary controls the proc mapping, so
  // schedule position gives no node an exemption.
  const NodeId n = 17;
  std::vector<ProcessId> slots(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) slots[static_cast<std::size_t>(i)] = i;
  const auto result =
      lowerbound::run_theorem12(n, make_scheduled_factory(n, slots));
  ASSERT_TRUE(result.valid);
  if (!result.stalled) {
    EXPECT_GE(result.total_rounds, result.guaranteed_bound);
  }
}

TEST(Theorem12More, StrongSelectReplayIsLegal) {
  const NodeId n = 17;
  lowerbound::Theorem12Options options;
  options.build_script = true;
  const auto result =
      lowerbound::run_theorem12(n, make_strong_select_factory(n), options);
  ASSERT_TRUE(result.valid);
  if (result.stalled) GTEST_SKIP() << "stalled: nothing to replay";
  const DualGraph net = duals::theorem12_network(n);
  ScriptedAdversary adversary(result.script);
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = result.total_rounds;
  config.stop_on_completion = false;
  const SimResult sim = run_broadcast(net, make_strong_select_factory(n),
                                      adversary, config);
  EXPECT_FALSE(sim.completed);
}

// --------------------------------------------------- empirical send rates

TEST(SendRates, HarmonicMatchesSchedule) {
  // A lone process with the token from round 0: over rounds in probability
  // step k the empirical send frequency should be ~1/(k+1).
  const NodeId n = 64;
  const Round T = 200;
  const auto factory = make_harmonic_factory(n, {.T = T});
  auto p = factory(1, n, 12345);
  p->on_activate(0, Message{true, 0, 0, 0});
  for (int step = 0; step < 4; ++step) {
    int sends = 0;
    for (Round r = step * T + 1; r <= (step + 1) * T; ++r) {
      if (p->next_action(r).send) ++sends;
      p->on_receive(r, Reception::silence());
    }
    const double expect = 1.0 / (step + 1);
    EXPECT_NEAR(static_cast<double>(sends) / static_cast<double>(T), expect,
                0.12)
        << "step " << step;
  }
}

TEST(SendRates, UniformGossipFrequency) {
  const NodeId n = 32;
  const auto factory = make_uniform_gossip_factory(n, {.p = 0.2});
  auto p = factory(3, n, 777);
  p->on_activate(0, Message{true, 0, 0, 0});
  int sends = 0;
  const int rounds = 5000;
  for (Round r = 1; r <= rounds; ++r) {
    if (p->next_action(r).send) ++sends;
    p->on_receive(r, Reception::silence());
  }
  EXPECT_NEAR(static_cast<double>(sends) / rounds, 0.2, 0.02);
}

// ------------------------------------------------------ clone equivalence

class CloneEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(CloneEquivalence, CloneBehavesIdentically) {
  const std::string algo = GetParam();
  const NodeId n = 32;
  ProcessFactory factory;
  if (algo == "strong_select") {
    factory = make_strong_select_factory(n);
  } else if (algo == "harmonic") {
    factory = make_harmonic_factory(n, {.T = 4});
  } else if (algo == "gossip") {
    factory = make_uniform_gossip_factory(n);
  } else {
    factory = make_cms_oblivious_factory(n, {.delta = 4});
  }
  auto original = factory(5, n, 42);
  original->on_activate(0, std::nullopt);
  // Drive through a prefix with mixed receptions, clone, then verify both
  // copies evolve identically for a long suffix.
  const CounterRng mixer(9);
  for (Round r = 1; r <= 20; ++r) {
    (void)original->next_action(r);
    const Reception rec = mixer.bernoulli(0.3, r)
                              ? Reception::of(Message{true, 2, r, 0})
                              : Reception::silence();
    original->on_receive(r, rec);
  }
  auto copy = original->clone();
  ASSERT_EQ(copy->id(), original->id());
  for (Round r = 21; r <= 500; ++r) {
    const Action a = original->next_action(r);
    const Action b = copy->next_action(r);
    ASSERT_EQ(a.send, b.send) << algo << " diverged at round " << r;
    if (a.send) {
      ASSERT_EQ(a.message, b.message);
    }
    const Reception rec = mixer.bernoulli(0.1, r)
                              ? Reception::collision()
                              : Reception::silence();
    original->on_receive(r, rec);
    copy->on_receive(r, rec);
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, CloneEquivalence,
                         ::testing::Values("strong_select", "harmonic",
                                           "gossip", "cms"));

// ---------------------------------------- edge-case simulator behaviors

TEST(EdgeCases, TwoNodeNetwork) {
  const DualGraph net = make_classical(gen::path(2), 0);
  BenignAdversary adversary;
  SimConfig config;
  config.max_rounds = 100;
  const SimResult result =
      run_broadcast(net, make_round_robin_factory(2), adversary, config);
  EXPECT_TRUE(result.completed);
  EXPECT_LE(result.completion_round, 2);
}

TEST(EdgeCases, MaxRoundsOne) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimConfig config;
  config.max_rounds = 1;
  const SimResult result =
      run_broadcast(net, make_harmonic_factory(8), adversary, config);
  EXPECT_EQ(result.rounds_executed, 1);
}

TEST(EdgeCases, RunToMaxRoundsAfterCompletion) {
  const DualGraph net = duals::bridge_network(8);
  FullInterferenceAdversary adversary;
  SimConfig config;
  config.max_rounds = 50;
  config.stop_on_completion = false;
  const SimResult result =
      run_broadcast(net, make_harmonic_factory(8), adversary, config);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds_executed, 50);
  EXPECT_EQ(result.completion_round, 1);  // full interference: round 1
}

TEST(EdgeCases, SourceChoiceRespected) {
  const DualGraph net(gen::path(4), gen::path(4), 3);  // source at the end
  BenignAdversary adversary;
  SimConfig config;
  config.max_rounds = 1000;
  const SimResult result =
      run_broadcast(net, make_round_robin_factory(4), adversary, config);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.first_token[3], 0);
}

}  // namespace
}  // namespace dualrad
