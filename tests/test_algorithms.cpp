#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <tuple>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/cms_oblivious.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/scheduled.hpp"
#include "algorithms/strong_select.hpp"
#include "algorithms/uniform_gossip.hpp"
#include "byz/cpa.hpp"
#include "byz/plan.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "selectors/kautz_singleton.hpp"
#include "test_util.hpp"

namespace dualrad {
namespace {

// ----------------------------------------------- Strong Select schedule math

TEST(StrongSelectSchedule, EpochGeometry) {
  const auto schedule = make_strong_select_schedule(256);
  // s_max = log2(sqrt(256 / 8)) = log2(sqrt(32)) = 2 (floor).
  EXPECT_EQ(schedule->s_max(), 2);
  EXPECT_EQ(schedule->epoch_length(), 3);
  // Round 1 -> F_1 slot 0; rounds 2,3 -> F_2 slots 0,1; round 4 -> F_1
  // slot 1 (second epoch)...
  EXPECT_EQ(schedule->slot_of_round(1).s, 1);
  EXPECT_EQ(schedule->slot_of_round(1).index, 0);
  EXPECT_EQ(schedule->slot_of_round(2).s, 2);
  EXPECT_EQ(schedule->slot_of_round(2).index, 0);
  EXPECT_EQ(schedule->slot_of_round(3).s, 2);
  EXPECT_EQ(schedule->slot_of_round(3).index, 1);
  EXPECT_EQ(schedule->slot_of_round(4).s, 1);
  EXPECT_EQ(schedule->slot_of_round(4).index, 1);
  EXPECT_EQ(schedule->slot_of_round(5).s, 2);
  EXPECT_EQ(schedule->slot_of_round(5).index, 2);
}

TEST(StrongSelectSchedule, PerEpochSlotCounts) {
  const auto schedule = make_strong_select_schedule(4096);
  const int s_max = schedule->s_max();
  ASSERT_GE(s_max, 3);
  const Round L = schedule->epoch_length();
  EXPECT_EQ(L, (Round{1} << s_max) - 1);
  // In rounds [1, L], family s gets exactly 2^{s-1} slots.
  for (int s = 1; s <= s_max; ++s) {
    EXPECT_EQ(schedule->slots_before(L, s), Round{1} << (s - 1)) << s;
  }
  // Slot indices are consistent with slots_before.
  for (Round r = 1; r <= 3 * L; ++r) {
    const auto slot = schedule->slot_of_round(r);
    EXPECT_EQ(slot.index, schedule->slots_before(r - 1, slot.s)) << r;
  }
}

TEST(StrongSelectSchedule, LargestFamilyIsRoundRobin) {
  const auto schedule = make_strong_select_schedule(128);
  const auto& top = schedule->family(schedule->s_max());
  EXPECT_EQ(top.size(), 128u);
  for (std::size_t i = 0; i < top.size(); ++i) {
    ASSERT_EQ(top.set(i).size(), 1u);
    EXPECT_EQ(top.set(i).front(), static_cast<NodeId>(i));
  }
}

TEST(StrongSelectSchedule, ParticipationStartIsAligned) {
  const auto schedule = make_strong_select_schedule(1024);
  for (int s = 1; s <= schedule->s_max(); ++s) {
    const Round l = schedule->ell(s);
    for (Round t : {Round{0}, Round{5}, Round{97}, Round{1000}}) {
      const Round start = schedule->participation_start(t, s);
      EXPECT_EQ(start % l, 0) << "family " << s << " token round " << t;
      EXPECT_GE(start, schedule->slots_before(t, s));
      EXPECT_LT(start, schedule->slots_before(t, s) + l);
    }
  }
}

TEST(StrongSelectSchedule, IterationRoundsMatchDefinition) {
  const auto schedule = make_strong_select_schedule(4096);
  for (int s = 1; s <= schedule->s_max(); ++s) {
    const Round per_epoch = Round{1} << (s - 1);
    const Round expect =
        (schedule->ell(s) + per_epoch - 1) / per_epoch * schedule->epoch_length();
    EXPECT_EQ(schedule->iteration_rounds(s), expect);
  }
}

// ------------------------------------------- Strong Select process behavior

TEST(StrongSelect, SilentUntilTokenArrives) {
  const NodeId n = 64;
  const auto factory = make_strong_select_factory(n);
  auto p = factory(5, n, 0);
  p->on_activate(0, std::nullopt);
  for (Round r = 1; r <= 50; ++r) {
    EXPECT_FALSE(p->next_action(r).send);
    p->on_receive(r, Reception::silence());
  }
}

TEST(StrongSelect, ParticipatesExactlyOncePerFamily) {
  const NodeId n = 64;
  const auto schedule = make_strong_select_schedule(n);
  const auto factory = make_strong_select_factory(n);
  auto p = factory(7, n, 0);
  p->on_activate(0, std::nullopt);
  const Round token_round = 3;
  std::vector<Round> send_count(static_cast<std::size_t>(schedule->s_max()) + 1,
                                0);
  const Round horizon = schedule->done_round_bound(token_round) + 64;
  for (Round r = 1; r <= horizon; ++r) {
    const Reception rec =
        r == token_round
            ? Reception::of(Message{true, 0, r, 0})
            : Reception::silence();
    if (r > token_round) {
      const Action a = p->next_action(r);
      if (a.send) {
        ++send_count[static_cast<std::size_t>(schedule->slot_of_round(r).s)];
      }
    }
    p->on_receive(r, rec);
  }
  // Sends in family s = number of sets of F_s containing id 7 in one
  // iteration: exactly |sets_containing(7)|.
  for (int s = 1; s <= schedule->s_max(); ++s) {
    EXPECT_EQ(send_count[static_cast<std::size_t>(s)],
              static_cast<Round>(schedule->family(s).sets_containing(7).size()))
        << "family " << s;
  }
  // And after the horizon the process is silent forever (spot check).
  for (Round r = horizon + 1; r <= horizon + 200; ++r) {
    EXPECT_FALSE(p->next_action(r).send);
    p->on_receive(r, Reception::silence());
  }
}

TEST(StrongSelect, ForeverVariantKeepsSending) {
  const NodeId n = 64;
  StrongSelectOptions options;
  options.participate_forever = true;
  const auto schedule = make_strong_select_schedule(n, options);
  const auto factory = make_strong_select_factory(n, options);
  auto p = factory(7, n, 0);
  p->on_activate(0, Message{true, 0, 0, 0});  // source-like: token at round 0
  Round sends_late = 0;
  const Round horizon = schedule->done_round_bound(0) + 64;
  for (Round r = 1; r <= horizon + 3000; ++r) {
    if (r > horizon && p->next_action(r).send) ++sends_late;
    p->on_receive(r, Reception::silence());
  }
  EXPECT_GT(sends_late, 0);
}

TEST(StrongSelect, NextActionIsIdempotent) {
  const NodeId n = 32;
  const auto factory = make_strong_select_factory(n);
  auto p = factory(3, n, 0);
  p->on_activate(0, Message{true, 0, 0, 0});
  for (Round r = 1; r <= 200; ++r) {
    const Action a1 = p->next_action(r);
    const Action a2 = p->next_action(r);
    EXPECT_EQ(a1.send, a2.send);
    p->on_receive(r, Reception::silence());
  }
}

// ------------------------------------------------------- Harmonic behavior

TEST(Harmonic, ProbabilitySchedule) {
  const Round T = 4;
  EXPECT_EQ(harmonic_probability(0, kNever, T), 0.0);
  EXPECT_EQ(harmonic_probability(3, 5, T), 0.0);  // t <= t_v
  // First T rounds after receipt: probability 1.
  for (Round t = 6; t <= 9; ++t) {
    EXPECT_DOUBLE_EQ(harmonic_probability(t, 5, T), 1.0) << t;
  }
  for (Round t = 10; t <= 13; ++t) {
    EXPECT_DOUBLE_EQ(harmonic_probability(t, 5, T), 0.5) << t;
  }
  EXPECT_DOUBLE_EQ(harmonic_probability(14, 5, T), 1.0 / 3.0);
}

TEST(Harmonic, DefaultTMatchesPaperFormula) {
  const NodeId n = 100;
  HarmonicOptions options;
  options.eps = 0.01;
  const Round expect = static_cast<Round>(
      std::ceil(12.0 * std::log(100.0 / 0.01)));
  EXPECT_EQ(harmonic_T(n, options), expect);
}

TEST(Harmonic, SendsWithProbabilityOneInitially) {
  const NodeId n = 32;
  const auto factory = make_harmonic_factory(n, {.T = 5});
  auto p = factory(1, n, 42);
  p->on_activate(0, Message{true, 0, 0, 0});
  for (Round r = 1; r <= 5; ++r) {
    EXPECT_TRUE(p->next_action(r).send) << r;
    p->on_receive(r, Reception::silence());
  }
}

TEST(Harmonic, NextActionIsIdempotentDespiteRandomness) {
  const NodeId n = 32;
  const auto factory = make_harmonic_factory(n, {.T = 2});
  auto p = factory(1, n, 42);
  p->on_activate(0, Message{true, 0, 0, 0});
  for (Round r = 1; r <= 100; ++r) {
    EXPECT_EQ(p->next_action(r).send, p->next_action(r).send);
    p->on_receive(r, Reception::silence());
  }
}

TEST(Harmonic, RoundBoundFormula) {
  // 2 n T H(n) for n = 4, T = 10: H(4) = 25/12; bound = ceil(2*4*10*25/12).
  EXPECT_EQ(harmonic_round_bound(4, 10), static_cast<Round>(
      std::ceil(80.0 * 25.0 / 12.0)));
}

// ------------------------------------------------------------ Decay / RR

TEST(Decay, PhaseLength) {
  EXPECT_EQ(decay_phase_length(16), 5);
  EXPECT_EQ(decay_phase_length(17), 6);
  EXPECT_EQ(decay_phase_length(16, {.phase_length = 3}), 3);
}

TEST(Decay, SendsDeterministicallyAtPhaseStart) {
  // Offset 0 has probability 2^0 = 1: informed nodes always send there.
  const NodeId n = 16;
  const auto factory = make_decay_factory(n);
  auto p = factory(2, n, 99);
  p->on_activate(0, Message{true, 0, 0, 0});
  const Round phase = decay_phase_length(n);
  bool sent_at_phase_start = false;
  for (Round r = 1; r <= phase + 1; ++r) {
    if ((r - 1) % phase == 0 && p->next_action(r).send) {
      sent_at_phase_start = true;
    }
    p->on_receive(r, Reception::silence());
  }
  EXPECT_TRUE(sent_at_phase_start);
}

TEST(RoundRobin, SendsOnlyOnOwnSlot) {
  const NodeId n = 8;
  const auto factory = make_round_robin_factory(n);
  auto p = factory(3, n, 0);
  p->on_activate(0, Message{true, 0, 0, 0});
  for (Round r = 1; r <= 40; ++r) {
    EXPECT_EQ(p->next_action(r).send, r % n == 3) << r;
    p->on_receive(r, Reception::silence());
  }
}

TEST(RoundRobin, UninformedNeverSends) {
  const NodeId n = 8;
  const auto factory = make_round_robin_factory(n);
  auto p = factory(3, n, 0);
  p->on_activate(0, std::nullopt);
  for (Round r = 1; r <= 24; ++r) {
    EXPECT_FALSE(p->next_action(r).send);
    p->on_receive(r, Reception::silence());
  }
}

TEST(CmsOblivious, RejectsFamilyOverAnotherUniverse) {
  // A provider's family must cover exactly the n process ids: over 7 ids,
  // process 7 would have no slots; over 9, slots would name a process that
  // does not exist. Both are rejected when the factory is built, not
  // mid-execution.
  for (const NodeId universe : {7, 9}) {
    const CmsObliviousOptions options{
        .delta = 2, .provider = [universe](NodeId, NodeId k) {
          return kautz_singleton_ssf(universe, k);
        }};
    EXPECT_THROW((void)make_cms_oblivious_factory(8, options),
                 std::invalid_argument)
        << "universe " << universe;
  }
}

// -------------------------------------------- completion sweeps (TEST_P)

struct SweepParam {
  std::string algorithm;
  std::string network;
  CollisionRule rule;
  StartRule start;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  return p.algorithm + "_" + p.network + "_" + to_string(p.rule) + "_" +
         (p.start == StartRule::Synchronous ? "sync" : "async");
}

DualGraph make_network(const std::string& name) {
  if (name == "bridge") return duals::bridge_network(24);
  if (name == "layered") return duals::layered_complete_gprime(5, 4);
  if (name == "grayzone") {
    return duals::gray_zone({.n = 32, .r_reliable = 0.25, .r_gray = 0.6,
                             .seed = 4});
  }
  if (name == "backbone") {
    return duals::backbone_plus_unreliable(
        {.n = 32, .p_reliable = 0.05, .p_unreliable = 0.3, .seed = 4});
  }
  if (name == "classicalClique") return make_classical(gen::clique(24), 0);
  throw std::invalid_argument("unknown network " + name);
}

ProcessFactory make_algorithm(const std::string& name, NodeId n) {
  if (name == "strongSelect") return make_strong_select_factory(n);
  if (name == "harmonic") return make_harmonic_factory(n, {.eps = 0.05});
  if (name == "roundRobin") return make_round_robin_factory(n);
  if (name == "decay") return make_decay_factory(n);
  throw std::invalid_argument("unknown algorithm " + name);
}

class BroadcastCompletes : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BroadcastCompletes, AgainstAllBasicAdversaries) {
  const auto& param = GetParam();
  const DualGraph net = make_network(param.network);
  const ProcessFactory factory = make_algorithm(param.algorithm,
                                                net.node_count());
  BenignAdversary benign;
  FullInterferenceAdversary full;
  BernoulliAdversary bernoulli(0.4, 77);
  GreedyBlockerAdversary greedy;
  Adversary* adversaries[] = {&benign, &full, &bernoulli, &greedy};
  for (Adversary* adversary : adversaries) {
    SimConfig config;
    config.rule = param.rule;
    config.start = param.start;
    config.max_rounds = 3'000'000;
    config.seed = 13;
    const SimResult result = run_broadcast(net, factory, *adversary, config);
    EXPECT_TRUE(result.completed)
        << param.algorithm << " on " << param.network;
    // Everyone got the token, in order of a valid broadcast:
    for (Round r : result.first_token) EXPECT_NE(r, kNever);
  }
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (const char* algorithm : {"strongSelect", "harmonic"}) {
    for (const char* network :
         {"bridge", "layered", "grayzone", "backbone", "classicalClique"}) {
      // The paper's upper bounds: CR4 + async (weakest); also check CR1 +
      // sync (strongest) since guarantees only improve.
      params.push_back({algorithm, network, CollisionRule::CR4,
                        StartRule::Asynchronous});
      params.push_back({algorithm, network, CollisionRule::CR1,
                        StartRule::Synchronous});
    }
  }
  // Baselines complete too (round robin everywhere; decay only classical —
  // in dual graphs it has no guarantee but runs; we only sweep classical).
  for (const char* network : {"bridge", "layered", "classicalClique"}) {
    params.push_back({"roundRobin", network, CollisionRule::CR4,
                      StartRule::Asynchronous});
  }
  params.push_back({"decay", "classicalClique", CollisionRule::CR4,
                    StartRule::Asynchronous});
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BroadcastCompletes,
                         ::testing::ValuesIn(sweep_params()), param_name);

// ------------------------------------------------ Lemma 15 busy-round audit

TEST(Harmonic, BusyRoundsBoundedByNTHn) {
  // Lemma 15: for any wake-up pattern, busy rounds (sum of sending
  // probabilities >= 1) number at most n * T * H(n). Audit real executions.
  const DualGraph net = duals::layered_complete_gprime(6, 4);
  GreedyBlockerAdversary adversary;
  SimConfig config;
  config.max_rounds = 2'000'000;
  const ProcessFactory factory = make_harmonic_factory(net.node_count());
  const SimResult result = run_broadcast(net, factory, adversary, config);
  ASSERT_TRUE(result.completed);

  const Round t_used = harmonic_T(net.node_count(), {});
  Round busy = 0;
  for (Round t = 1; t <= result.completion_round; ++t) {
    double total = 0;
    for (NodeId v = 0; v < net.node_count(); ++v) {
      total += harmonic_probability(
          t, result.first_token[static_cast<std::size_t>(v)], t_used);
    }
    if (total >= 1.0) ++busy;
  }
  EXPECT_LE(busy, harmonic_round_bound(net.node_count(), t_used) / 2);
}

// --------------------------------------------- scheduling-hint soundness

/// The Process::next_send_round contract: walking the hints from any round
/// must probe every round at which next_action would transmit, assuming no
/// intervening state transition. (Over-promising is legal — the engine just
/// re-asks — so the hint walk must cover, not equal, the true send set.)
void expect_hints_cover_sends(const Process& proc, Round from, Round window,
                              const std::string& label) {
  std::set<Round> sends;
  for (Round r = from; r < from + window; ++r) {
    if (proc.next_action(r).send) sends.insert(r);  // idempotent probe
  }
  std::set<Round> probed;
  for (Round r = from;;) {
    const Round hint = proc.next_send_round(r);
    ASSERT_TRUE(hint == kNever || hint >= r)
        << label << ": hint " << hint << " before from " << r;
    if (hint == kNever || hint >= from + window) break;
    probed.insert(hint);
    r = hint + 1;
  }
  for (const Round s : sends) {
    EXPECT_TRUE(probed.contains(s))
        << label << ": hint walk from " << from << " skipped send round " << s;
  }
}

/// silence_transparent() claims silence receptions are no-ops: feeding one
/// must leave the observable schedule (actions and hints) unchanged.
void expect_silence_transparent(const Process& proc, Round at, Round window,
                                const std::string& label) {
  if (!proc.silence_transparent()) return;
  const auto muted = proc.clone();
  muted->on_receive(at, Reception::silence());
  for (Round r = at + 1; r < at + 1 + window; ++r) {
    const Action a = proc.next_action(r);
    const Action b = muted->next_action(r);
    EXPECT_EQ(a.send, b.send) << label << " round " << r;
    if (a.send && b.send) {
      EXPECT_EQ(a.message, b.message) << label;
    }
  }
  EXPECT_EQ(proc.next_send_round(at + 1), muted->next_send_round(at + 1))
      << label;
}

/// Property harness: drive processes of every algorithm through randomized
/// histories — activation with or without the token, token arrival at a
/// random later round, collision and silence receptions in between — and
/// after every transition check hint soundness over a lookahead window.
void check_hint_soundness(const std::string& name,
                          const ProcessFactory& factory, NodeId n,
                          std::uint64_t seed) {
  StreamRng rng(seed);
  constexpr Round kWindow = 160;
  for (int history = 0; history < 10; ++history) {
    const auto id = static_cast<ProcessId>(
        rng.below(static_cast<std::uint64_t>(n)));
    const std::string label = name + "/id=" + std::to_string(id) +
                              "/history=" + std::to_string(history);
    const auto proc =
        factory(id, n, mix_seed(seed, static_cast<std::uint64_t>(id)));

    // Uninformed hint must already be sound (typically kNever).
    const bool source_like = rng.bernoulli(0.3);
    const Round wake = source_like
                           ? 0
                           : static_cast<Round>(1 + rng.below(7));
    const Message token_msg{/*token=*/true, /*origin=*/0,
                            /*round_tag=*/wake, /*payload=*/1};
    if (source_like) {
      proc->on_activate(0, token_msg);  // the source: token from round 0
    } else {
      proc->on_activate(wake, std::nullopt);  // sync start, no token yet
    }
    Round now = wake + 1;
    expect_hints_cover_sends(*proc, now, kWindow, label + "/awake");
    expect_silence_transparent(*proc, now, kWindow / 2, label + "/awake");

    // A few receptions: collisions and silences (no-ops for token state),
    // then the token, then more noise — re-verifying after each.
    for (int step = 0; step < 4; ++step) {
      now += static_cast<Round>(1 + rng.below(9));
      const std::uint64_t kind = rng.below(3);
      Reception rec = Reception::silence();
      if (kind == 0) {
        rec = Reception::collision();
      } else if (kind == 1) {
        rec = Reception::of(Message{/*token=*/true, /*origin=*/1,
                                    /*round_tag=*/now, /*payload=*/2});
      }
      proc->on_receive(now, rec);
      expect_hints_cover_sends(*proc, now + 1, kWindow,
                               label + "/step=" + std::to_string(step));
      expect_silence_transparent(*proc, now + 1, kWindow / 2,
                                 label + "/step=" + std::to_string(step));
      // Also from a later round than the transition (memo fast paths).
      const Round later = now + 1 + static_cast<Round>(rng.below(40));
      expect_hints_cover_sends(*proc, later, kWindow / 2,
                               label + "/later=" + std::to_string(step));
    }
  }
}

TEST(SchedulingHints, SoundForEveryAlgorithmOverRandomHistories) {
  constexpr NodeId n = 24;
  std::vector<ProcessId> schedule(static_cast<std::size_t>(n) + 5);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule[i] = static_cast<ProcessId>((i * 5) % static_cast<std::size_t>(n));
  }
  const std::vector<std::pair<std::string, ProcessFactory>> factories = {
      {"round-robin", make_round_robin_factory(n)},
      {"scheduled", make_scheduled_factory(n, schedule)},
      {"harmonic", make_harmonic_factory(n, {.eps = 0.2})},
      {"cms-oblivious", make_cms_oblivious_factory(n, {.delta = 5})},
      {"decay", make_decay_factory(n)},
      {"decay-windowed",
       make_decay_factory(n, {.active_phases = 2, .rebroadcast_period = 8})},
      {"decay-windowed-final",
       make_decay_factory(n, {.active_phases = 1, .rebroadcast_period = 0})},
      {"strong-select", make_strong_select_factory(n)},
      {"strong-select-forever",
       make_strong_select_factory(n, {.participate_forever = true})},
      {"gossip", make_uniform_gossip_factory(n)},
      {"gossip-dense", make_uniform_gossip_factory(n, {.p = 0.35})},
      {"cpa-windowed",
       byz::make_cpa_factory(n, {.trusted_origins = {0},
                                 .active_rounds = 12,
                                 .rebroadcast_period = 8})},
      {"cpa-forever", byz::make_cpa_factory(n, {.trusted_origins = {0}})},
      {"relay-windowed",
       byz::make_uncertified_relay_factory(
           n, {.active_rounds = 12, .rebroadcast_period = 8})},
  };
  std::uint64_t seed = 0x9E55;
  for (const auto& [name, factory] : factories) {
    check_hint_soundness(name, factory, n, seed++);
  }
}

TEST(SchedulingHints, GossipHintScanIsCapped) {
  // A vanishing p must not make one hint call scan ~1/p coins: after the
  // cap the hint conservatively names the first unscanned round (legal —
  // the engine re-asks there) instead of hunting for the exact hit.
  const auto factory = make_uniform_gossip_factory(8, {.p = 1e-9});
  const auto proc = factory(3, 8, 99);
  proc->on_activate(0, Message{/*token=*/true, /*origin=*/0,
                               /*round_tag=*/0, /*payload=*/1});
  const Round hint = proc->next_send_round(1);
  ASSERT_GE(hint, 1);
  EXPECT_LE(hint, 5000);  // one chunk, not a ~10^9 scan
  // Soundness of the capped answer: every skipped round is truly silent.
  for (Round r = 1; r < hint; r += 997) {
    EXPECT_FALSE(proc->next_action(r).send) << r;
  }
}

TEST(SchedulingHints, StrongSelectEpochWalkIsExact) {
  // The strong-select hint is a closed-form epoch walk, so beyond the
  // soundness contract (cover every send) it should be *exact*: every round
  // the walk probes is a genuine send. Use an n whose geometry has several
  // SSF families (n = 600 gives s_max = 3: F_1, F_2, and the round-robin
  // tail), so the walk crosses real epoch structure in both participation
  // modes.
  constexpr NodeId n = 600;
  constexpr Round kWindow = 4000;
  for (const bool forever : {false, true}) {
    const auto factory =
        make_strong_select_factory(n, {.participate_forever = forever});
    StreamRng rng(0xE90C + static_cast<std::uint64_t>(forever));
    for (int trial = 0; trial < 6; ++trial) {
      const auto id = static_cast<ProcessId>(
          rng.below(static_cast<std::uint64_t>(n)));
      const auto proc = factory(id, n, 0);
      const Round token_round = static_cast<Round>(rng.below(50));
      const Message token_msg{/*token=*/true, /*origin=*/0,
                              /*round_tag=*/token_round, /*payload=*/1};
      if (token_round == 0) {
        proc->on_activate(0, token_msg);
      } else {
        proc->on_activate(0, std::nullopt);
        proc->on_receive(token_round, Reception::of(token_msg));
      }
      const std::string label = std::string("forever=") +
                                (forever ? "1" : "0") +
                                "/id=" + std::to_string(id) +
                                "/t=" + std::to_string(token_round);
      std::set<Round> sends;
      for (Round r = token_round + 1; r < token_round + 1 + kWindow; ++r) {
        if (proc->next_action(r).send) sends.insert(r);
      }
      std::set<Round> probed;
      for (Round r = token_round + 1;;) {
        const Round hint = proc->next_send_round(r);
        if (hint == kNever || hint >= token_round + 1 + kWindow) break;
        EXPECT_TRUE(proc->next_action(hint).send)
            << label << ": walk probed silent round " << hint;
        probed.insert(hint);
        r = hint + 1;
      }
      EXPECT_EQ(probed, sends) << label;
      if (!forever) {
        // Once every family's single iteration is over, the plan is kNever.
        const auto schedule = make_strong_select_schedule(n);
        EXPECT_EQ(proc->next_send_round(
                      schedule->done_round_bound(token_round) + 1),
                  kNever)
            << label;
      }
    }
  }
}

TEST(SchedulingHints, CoinScheduleHintsAreExact) {
  // Every counter-coin hint is an exact scan of the coins the poll draws
  // (coin_schedule.hpp), so beyond soundness each hinted round is a real
  // send, through duty-cycle gaps and beacons. Gossip is dense here: a
  // small p would hit its scan cap, which over-promises by design.
  constexpr NodeId n = 24;
  constexpr Round kWindow = 3000;
  const std::vector<std::pair<std::string, ProcessFactory>> factories = {
      {"decay", make_decay_factory(n)},
      {"decay-windowed",
       make_decay_factory(n, {.active_phases = 2, .rebroadcast_period = 8})},
      {"harmonic", make_harmonic_factory(n, {.eps = 0.2})},
      {"gossip-dense", make_uniform_gossip_factory(n, {.p = 0.35})},
      {"cpa", byz::make_cpa_factory(n, {.trusted_origins = {0},
                                        .active_rounds = 64,
                                        .rebroadcast_period = 16})},
      {"relay", byz::make_uncertified_relay_factory(
                    n, {.active_rounds = 64, .rebroadcast_period = 16})},
  };
  StreamRng rng(0xC01);
  for (const auto& [name, factory] : factories) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto id = static_cast<ProcessId>(
          rng.below(static_cast<std::uint64_t>(n)));
      const auto proc = factory(id, n, mix_seed(0xC01, rng.below(1000)));
      const auto token_round = static_cast<Round>(rng.below(50));
      const Message token_msg{/*token=*/true, /*origin=*/0,
                              /*round_tag=*/token_round, /*payload=*/1};
      if (token_round == 0) {
        proc->on_activate(0, token_msg);
      } else {
        proc->on_activate(0, std::nullopt);
        proc->on_receive(token_round, Reception::of(token_msg));
      }
      const std::string label = name + "/id=" + std::to_string(id) +
                                "/t=" + std::to_string(token_round);
      std::set<Round> sends;
      for (Round r = token_round + 1; r < token_round + 1 + kWindow; ++r) {
        if (proc->next_action(r).send) sends.insert(r);
      }
      std::set<Round> probed;
      for (Round r = token_round + 1;;) {
        const Round hint = proc->next_send_round(r);
        if (hint == kNever || hint >= token_round + 1 + kWindow) break;
        ASSERT_GE(hint, r) << label;
        EXPECT_TRUE(proc->next_action(hint).send)
            << label << ": hint named silent round " << hint;
        probed.insert(hint);
        r = hint + 1;
      }
      EXPECT_FALSE(sends.empty()) << label;
      EXPECT_EQ(probed, sends) << label;
    }
  }
}

// ------------------------------------------------- pinned executions

TEST(SendSchedules, OneExecutionPerScheduleIsPinned) {
  // Engine equivalence cannot see a schedule drift (both engines run the
  // same processes), so one small execution per send schedule is pinned by
  // digest (test_util.hpp), recorded before Decay, Harmonic, gossip and the
  // relays shared one coin schedule and CMS ran on the TDMA schedule. Each
  // runs a fixed 400 rounds (600 for the relays), so duty-cycle beacons and
  // late coins are covered. CPA and the relay run two tokens under forging
  // faults, so CPA accepts two tokens and its relay pick (salt 1) is pinned
  // too.
  const DualGraph net = duals::layered_sparse(
      {.layers = 8, .width = 6, .fwd_degree = 3, .unreliable_degree = 2,
       .seed = 5});
  const NodeId n = net.node_count();
  std::vector<ProcessId> slots(static_cast<std::size_t>(n) + 3);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<ProcessId>((i * 3) % static_cast<std::size_t>(n));
  }
  const std::vector<NodeId> sources = {net.source(), n - 1};
  const byz::ByzantinePlan plan = byz::make_random_plan(
      net, /*f=*/1, /*count=*/3, byz::ByzBehavior::Forge, sources, 0xF0E);
  ASSERT_EQ(plan.faults().size(), 3u);
  struct Case {
    const char* name;
    ProcessFactory factory;
    bool faulty;
    const char* digest;
  };
  const Case cases[] = {
      {"round-robin", make_round_robin_factory(n), false,
       "63509318cd102903/89/352"},
      {"scheduled", make_scheduled_factory(n, slots), false,
       "202b48987fbd4c25/80/376"},
      {"cms",
       make_cms_oblivious_factory(
           n, {.delta = static_cast<NodeId>(
                   net.g_prime_csr().max_in_degree())}),
       false, "5274c03dbcf14814/41/400"},
      {"decay", make_decay_factory(n), false, "afff03af8bfc81bc/17/5354"},
      {"decay-windowed",
       make_decay_factory(n, {.active_phases = 2, .rebroadcast_period = 8}),
       false, "057852f0fe6a4d20/16/815"},
      {"harmonic", make_harmonic_factory(n, {.eps = 0.2}), false,
       "64f555a5a5106425/157/7733"},
      {"gossip", make_uniform_gossip_factory(n), false,
       "9d11d50ae262a456/182/289"},
      {"cpa",
       byz::make_cpa_factory(n, {.f = 1,
                                 .trusted_origins = sources,
                                 .relay_p = 0.5,
                                 .active_rounds = 64,
                                 .rebroadcast_period = 16}),
       true, "476e01ef1cc5e994/-1/3259"},
      {"relay",
       byz::make_uncertified_relay_factory(
           n, {.relay_p = 0.5, .active_rounds = 64, .rebroadcast_period = 16}),
       true, "ffc38a63ea911128/-1/4040"},
  };
  for (const Case& c : cases) {
    BernoulliAdversary adversary(0.3, 77);
    SimConfig config;
    config.rule = CollisionRule::CR3;
    config.start = StartRule::Asynchronous;
    config.max_rounds = c.faulty ? 600 : 400;
    config.stop_on_completion = false;
    config.seed = 2024;
    config.trace = TraceLevel::Compressed;
    if (c.faulty) {
      config.byzantine = &plan;
      config.token_sources = sources;
    }
    EXPECT_EQ(testing::digest(run_broadcast(net, c.factory, adversary, config)),
              c.digest)
        << c.name;
  }
}

}  // namespace
}  // namespace dualrad
