#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/strong_select.hpp"
#include "algorithms/uniform_gossip.hpp"
#include "core/simulator.hpp"
#include "graph/algorithms.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "lowerbound/theorem11_network.hpp"
#include "test_util.hpp"

namespace dualrad {
namespace {

/// A legal but erratic adversary: fires random subsets of unreliable edges
/// and resolves CR4 to random legal outcomes. Used for failure-injection
/// sweeps: algorithms must tolerate *any* legal adversary.
class FuzzAdversary : public Adversary {
 public:
  explicit FuzzAdversary(std::uint64_t seed) : rng_(seed) {}

  void choose_unreliable_reach(const AdversaryView& view,
                               std::span<const NodeId> senders,
                               ReachSink& sink) override {
    for (std::size_t i = 0; i < senders.size(); ++i) {
      for (NodeId v : view.unreliable->row(senders[i])) {
        // Heavily biased coin that changes flavor every few rounds.
        const double p = (view.round / 7) % 3 == 0   ? 0.9
                         : (view.round / 7) % 3 == 1 ? 0.1
                                                     : 0.5;
        if (rng_.bernoulli(p)) sink.add(i, v);
      }
    }
  }

  Reception resolve_cr4(const AdversaryView&, NodeId,
                        const std::vector<Message>& arrivals) override {
    const auto roll = rng_.below(arrivals.size() + 1);
    if (roll == arrivals.size()) return Reception::silence();
    return Reception::of(arrivals[static_cast<std::size_t>(roll)]);
  }

 private:
  StreamRng rng_;
};

/// Audit a trace against the model's delivery rules.
void audit_trace(const DualGraph& net, const SimResult& result) {
  std::vector<Round> token_seen(static_cast<std::size_t>(net.node_count()),
                                kNever);
  token_seen[static_cast<std::size_t>(net.source())] = 0;
  for (const SparseRound& record :
       testing::decode_rounds(result.trace, net.node_count())) {
    for (const auto& sender : record.senders) {
      // Every reached node is a G'-out-neighbor...
      const auto reach = record.reach(sender);
      std::set<NodeId> reached(reach.begin(), reach.end());
      EXPECT_EQ(reached.size(), reach.size()) << "duplicate reach";
      for (NodeId v : reach) {
        EXPECT_TRUE(net.g_prime_csr().contains(sender.node, v))
            << sender.node << "->" << v;
      }
      // ...and all G-out-neighbors are reached.
      for (NodeId v : net.g_csr().row(sender.node)) {
        EXPECT_TRUE(reached.contains(v))
            << "reliable edge skipped: " << sender.node << "->" << v;
      }
      // Token honesty: nobody transmits the token before holding it.
      if (sender.message.token) {
        EXPECT_NE(token_seen[static_cast<std::size_t>(sender.node)], kNever);
      }
    }
    // Token causality: a token reception requires a token sender that
    // reached this node in this round.
    for (NodeId v = 0; v < net.node_count(); ++v) {
      const Reception rec = testing::reception_at(record, v);
      if (!rec.has_token()) continue;
      const bool justified = std::any_of(
          record.senders.begin(), record.senders.end(),
          [&](const SparseRound::Sender& s) {
            const auto reach = record.reach(s);
            return s.message.token &&
                   (s.node == v ||
                    std::find(reach.begin(), reach.end(), v) != reach.end());
          });
      EXPECT_TRUE(justified) << "round " << record.round << " node " << v;
      auto& seen = token_seen[static_cast<std::size_t>(v)];
      if (seen == kNever) seen = record.round;
    }
  }
  // first_token matches the audit's reconstruction.
  for (NodeId v = 0; v < net.node_count(); ++v) {
    EXPECT_EQ(result.first_token[static_cast<std::size_t>(v)],
              token_seen[static_cast<std::size_t>(v)])
        << v;
  }
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, TraceInvariantsHoldUnderErraticAdversary) {
  const std::uint64_t seed = GetParam();
  const DualGraph net = duals::backbone_plus_unreliable(
      {.n = 24, .p_reliable = 0.08, .p_unreliable = 0.25, .seed = seed});
  for (const CollisionRule rule :
       {CollisionRule::CR1, CollisionRule::CR4}) {
    FuzzAdversary adversary(seed * 7 + 1);
    SimConfig config;
    config.rule = rule;
    config.start = StartRule::Asynchronous;
    config.max_rounds = 500'000;
    config.seed = seed;
    config.trace = TraceLevel::Compressed;
    const ProcessFactory factory =
        make_harmonic_factory(net.node_count(), {.T = 8});
    const SimResult result = run_broadcast(net, factory, adversary, config);
    EXPECT_TRUE(result.completed);
    audit_trace(net, result);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Integration, StrongSelectTraceAudit) {
  const DualGraph net = duals::layered_complete_gprime(5, 3);
  GreedyBlockerAdversary adversary;
  SimConfig config;
  config.max_rounds = 500'000;
  config.trace = TraceLevel::Compressed;
  const SimResult result = run_broadcast(
      net, make_strong_select_factory(net.node_count()), adversary, config);
  ASSERT_TRUE(result.completed);
  audit_trace(net, result);
}

TEST(Integration, SameSeedSameExecution) {
  const DualGraph net = duals::gray_zone({.n = 40, .seed = 3});
  const ProcessFactory factory = make_harmonic_factory(net.node_count());
  SimConfig config;
  config.max_rounds = 1'000'000;
  config.seed = 99;
  BernoulliAdversary a1(0.3, 5), a2(0.3, 5);
  const SimResult r1 = run_broadcast(net, factory, a1, config);
  const SimResult r2 = run_broadcast(net, factory, a2, config);
  EXPECT_EQ(r1.completion_round, r2.completion_round);
  EXPECT_EQ(r1.first_token, r2.first_token);
  EXPECT_EQ(r1.total_sends, r2.total_sends);
}

TEST(Integration, DifferentSeedsDiffer) {
  const DualGraph net = duals::gray_zone({.n = 40, .seed = 3});
  const ProcessFactory factory = make_harmonic_factory(net.node_count());
  SimConfig c1, c2;
  c1.max_rounds = c2.max_rounds = 1'000'000;
  c1.seed = 1;
  c2.seed = 2;
  BenignAdversary benign;
  const SimResult r1 = run_broadcast(net, factory, benign, c1);
  const SimResult r2 = run_broadcast(net, factory, benign, c2);
  EXPECT_NE(r1.total_sends, r2.total_sends);
}

TEST(Integration, DeterministicAlgorithmIgnoresSeed) {
  const DualGraph net = duals::bridge_network(16);
  const ProcessFactory factory = make_strong_select_factory(16);
  SimConfig c1, c2;
  c1.max_rounds = c2.max_rounds = 1'000'000;
  c1.seed = 1;
  c2.seed = 424242;
  GreedyBlockerAdversary g1, g2;
  const SimResult r1 = run_broadcast(net, factory, g1, c1);
  const SimResult r2 = run_broadcast(net, factory, g2, c2);
  EXPECT_EQ(r1.completion_round, r2.completion_round);
  EXPECT_EQ(r1.first_token, r2.first_token);
}

TEST(Integration, UniformGossipCompletesOnBridge) {
  const NodeId n = 20;
  const DualGraph net = duals::bridge_network(n);
  GreedyBlockerAdversary adversary;
  SimConfig config;
  config.max_rounds = 2'000'000;
  const SimResult result = run_broadcast(
      net, make_uniform_gossip_factory(n), adversary, config);
  EXPECT_TRUE(result.completed);
}

TEST(Integration, HarmonicWithinPaperBound) {
  // Theorem 18: with T = ceil(12 ln(n/eps)), completion within 2 n T H(n)
  // w.p. >= 1 - eps. Check across seeds with eps = 0.1: allow at most 2/12
  // misses of the *bound* (still expect completion).
  const DualGraph net = duals::layered_complete_gprime(8, 4);
  const NodeId n = net.node_count();
  const Round bound = harmonic_round_bound(n, harmonic_T(n, {.eps = 0.1}));
  int over_bound = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GreedyBlockerAdversary adversary;
    SimConfig config;
    config.max_rounds = 4 * bound;
    config.seed = seed;
    const SimResult result = run_broadcast(
        net, make_harmonic_factory(n, {.eps = 0.1}), adversary, config);
    ASSERT_TRUE(result.completed) << "seed " << seed;
    if (result.completion_round > bound) ++over_bound;
  }
  EXPECT_LE(over_bound, 2);
}

TEST(Integration, StrongSelectTerminationBound) {
  // Every node stops sending by done_round_bound(token round): after the
  // last first_token plus that horizon, no sends occur.
  const DualGraph net = duals::bridge_network(16);
  const auto schedule = make_strong_select_schedule(16);
  GreedyBlockerAdversary adversary;
  SimConfig config;
  config.max_rounds = schedule->done_round_bound(2'000) + 2'000;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const SimResult result = run_broadcast(net, make_strong_select_factory(16),
                                         adversary, config);
  ASSERT_TRUE(result.completed);
  Round last_token = 0;
  for (Round r : result.first_token) last_token = std::max(last_token, r);
  const Round horizon = schedule->done_round_bound(last_token);
  SparseRound round;
  for (std::size_t r = static_cast<std::size_t>(horizon);
       r < result.trace.compressed_rounds(); ++r) {
    result.trace.decode_round(r, net.node_count(), round);
    EXPECT_TRUE(round.senders.empty()) << "round " << (r + 1);
  }
}

TEST(Integration, Theorem11NetworkBroadcastCompletes) {
  const DualGraph net = lowerbound::theorem11_network(64);
  GreedyBlockerAdversary adversary;
  SimConfig config;
  config.max_rounds = 5'000'000;
  const SimResult ss = run_broadcast(
      net, make_strong_select_factory(net.node_count()), adversary, config);
  EXPECT_TRUE(ss.completed);
  const SimResult rr = run_broadcast(
      net, make_round_robin_factory(net.node_count()), adversary, config);
  EXPECT_TRUE(rr.completed);
}

TEST(Integration, AsyncStartNeverBeatsOracleDistance) {
  // first_token[v] >= BFS distance in G' from the source (no causal
  // shortcut exists, even with adversary help).
  const DualGraph net = duals::gray_zone({.n = 48, .seed = 6});
  FullInterferenceAdversary adversary(true);
  SimConfig config;
  config.max_rounds = 2'000'000;
  const SimResult result = run_broadcast(
      net, make_harmonic_factory(net.node_count()), adversary, config);
  ASSERT_TRUE(result.completed);
  const auto dist = graphalg::bfs_distances(net.g_prime_csr(), net.source());
  for (NodeId v = 0; v < net.node_count(); ++v) {
    EXPECT_GE(result.first_token[static_cast<std::size_t>(v)],
              dist[static_cast<std::size_t>(v)])
        << v;
  }
}

}  // namespace
}  // namespace dualrad
