#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "adversary/scripted_adversary.hpp"
#include "adversary/theorem2_adversary.hpp"
#include "algorithms/decay.hpp"
#include "byz/plan.hpp"
#include "core/reference_engine.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"

/// Conformance suite for the sparse batch adversary API (core/adversary.hpp):
/// ReachSink mechanics, and a property harness asserting that every shipped
/// adversary writes only *legal* reach choices — rows parallel to the
/// senders span, G'-only out-neighbors of the slot's sender, no duplicates —
/// when fuzzed over randomized dual networks, sender sets, and coverage
/// histories. A second harness pins the AdversaryView v2 delta plumbing:
/// accumulating newly_covered spans reproduces the dense covered array,
/// identically in both engines and for every thread count.

namespace dualrad {
namespace {

// ------------------------------------------------------------- ReachSink

TEST(ReachSink, RowsAreParallelToSlots) {
  ReachSink sink;
  sink.begin_round(4);
  sink.add(0, 7);
  sink.add(0, 9);
  sink.add(2, 3);
  sink.add_span(3, std::vector<NodeId>{1, 2, 5});
  sink.seal();
  EXPECT_EQ(sink.slot_count(), 4u);
  EXPECT_EQ(sink.total(), 6u);
  EXPECT_EQ(std::vector<NodeId>(sink.extras(0).begin(), sink.extras(0).end()),
            (std::vector<NodeId>{7, 9}));
  EXPECT_TRUE(sink.extras(1).empty());
  EXPECT_EQ(std::vector<NodeId>(sink.extras(2).begin(), sink.extras(2).end()),
            (std::vector<NodeId>{3}));
  EXPECT_EQ(std::vector<NodeId>(sink.extras(3).begin(), sink.extras(3).end()),
            (std::vector<NodeId>{1, 2, 5}));
}

TEST(ReachSink, EnforcesNondecreasingSlotOrder) {
  ReachSink sink;
  sink.begin_round(3);
  sink.add(1, 4);
  EXPECT_THROW(sink.add(0, 5), std::logic_error);  // decreasing slot
  sink.add(1, 6);                                  // same slot is fine
  sink.add(2, 7);
  sink.seal();
  EXPECT_EQ(sink.total(), 3u);
}

TEST(ReachSink, RejectsOutOfRangeAndSealMisuse) {
  ReachSink sink;
  sink.begin_round(2);
  EXPECT_THROW(sink.add(2, 0), std::logic_error);   // slot out of range
  EXPECT_THROW((void)sink.extras(0), std::logic_error);  // read before seal
  sink.add(0, 1);
  sink.seal();
  EXPECT_THROW(sink.add(1, 2), std::logic_error);   // write after seal
  EXPECT_THROW((void)sink.extras(2), std::logic_error);  // slot out of range
  // Empty rounds seal cleanly.
  sink.begin_round(0);
  sink.seal();
  EXPECT_EQ(sink.total(), 0u);
}

TEST(ReachSink, ReusedAcrossRoundsWithoutStaleRows) {
  ReachSink sink;
  sink.begin_round(3);
  sink.add(0, 10);
  sink.add(2, 11);
  sink.seal();
  // Next round shrinks the slot space; nothing from round 1 may survive.
  sink.begin_round(2);
  sink.add(1, 4);
  sink.seal();
  EXPECT_EQ(sink.slot_count(), 2u);
  EXPECT_TRUE(sink.extras(0).empty());
  EXPECT_EQ(std::vector<NodeId>(sink.extras(1).begin(), sink.extras(1).end()),
            (std::vector<NodeId>{4}));
}

// --------------------------------------------------- legality conformance

/// Every row written through the sink must be legal for the model: parallel
/// to `senders`, G'-only out-neighbors of the slot's sender, no duplicates.
void expect_legal_rows(const DualGraph& net, const std::vector<NodeId>& senders,
                       const ReachSink& sink, const std::string& label) {
  ASSERT_EQ(sink.slot_count(), senders.size()) << label;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    std::set<NodeId> seen;
    for (const NodeId v : sink.extras(i)) {
      EXPECT_TRUE(net.g_prime_csr().contains(senders[i], v))
          << label << ": " << senders[i] << "->" << v << " not in G'";
      EXPECT_FALSE(net.g_csr().contains(senders[i], v))
          << label << ": " << senders[i] << "->" << v << " is reliable";
      EXPECT_TRUE(seen.insert(v).second)
          << label << ": duplicate extra " << senders[i] << "->" << v;
    }
  }
}

/// Drive one adversary through randomized rounds: random ascending sender
/// sets, an evolving coverage state fed back through newly_covered and
/// on_round_end — the shape of a real execution, minus the processes.
void fuzz_adversary(const std::string& name, Adversary& adversary,
                    const DualGraph& net, std::uint64_t seed) {
  adversary.on_execution_start(net);
  const NodeId n = net.node_count();
  StreamRng rng(seed);
  std::vector<ProcessId> mapping(static_cast<std::size_t>(n));
  std::iota(mapping.begin(), mapping.end(), 0);
  NodeFlags covered(static_cast<std::size_t>(n), 0);
  covered[static_cast<std::size_t>(net.source())] = 1;
  std::vector<NodeId> delta{net.source()};
  ReachSink sink;
  std::vector<NodeId> senders;
  for (Round round = 1; round <= 32; ++round) {
    senders.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (rng.bernoulli(0.25)) senders.push_back(v);  // ascending by build
    }
    AdversaryView view =
        AdversaryView::of(net, mapping, covered, delta, round);
    sink.begin_round(senders.size());
    adversary.choose_unreliable_reach(view, senders, sink);
    sink.seal();
    expect_legal_rows(net, senders, sink,
                      name + "/seed=" + std::to_string(seed) +
                          "/round=" + std::to_string(round));
    // Advance coverage at random and close the round like the engines do.
    delta.clear();
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (!covered[uv] && rng.bernoulli(0.08)) {
        covered[uv] = 1;
        delta.push_back(v);
      }
    }
    view.newly_covered = delta;
    adversary.on_round_end(view);
  }
}

TEST(AdversaryConformance, ShippedAdversariesWriteOnlyLegalReach) {
  const std::vector<std::pair<const char*, DualGraph>> networks = {
      {"bridge", duals::bridge_network(14)},
      {"grayzone", duals::gray_zone({.n = 40, .seed = 9})},
      {"backbone", duals::backbone_plus_unreliable({.n = 48, .seed = 4})},
      {"layered-sparse",
       duals::layered_sparse({.layers = 8, .width = 6, .fwd_degree = 2,
                              .unreliable_degree = 2, .seed = 5})},
  };
  std::uint64_t seed = 0xC04F;
  for (const auto& [net_name, net] : networks) {
    BenignAdversary benign;
    fuzz_adversary(std::string("benign/") + net_name, benign, net, seed++);
    FullInterferenceAdversary full(/*deliver_on_cr4=*/true);
    fuzz_adversary(std::string("full/") + net_name, full, net, seed++);
    BernoulliAdversary bernoulli(0.5, seed);
    fuzz_adversary(std::string("bernoulli/") + net_name, bernoulli, net,
                   seed++);
    GreedyBlockerAdversary greedy;
    fuzz_adversary(std::string("greedy/") + net_name, greedy, net, seed++);
  }
  // The proof-rule adversaries live on their own topologies.
  {
    const NodeId n = 14;
    const DualGraph net = duals::bridge_network(n);
    Theorem2Adversary rules(duals::bridge_layout(n));
    FixedAssignmentAdversary pinned(theorem2_assignment(n, 3), rules);
    fuzz_adversary("theorem2/bridge", pinned, net, seed++);
  }
  {
    // A scripted adversary replaying a random legal (G'-only) script.
    const DualGraph net = duals::gray_zone({.n = 32, .seed = 11});
    StreamRng rng(0x5C21);
    AdversaryScript script;
    script.reach.resize(24);
    for (auto& plan : script.reach) {
      for (NodeId u = 0; u < net.node_count(); ++u) {
        if (!rng.bernoulli(0.3)) continue;
        std::vector<NodeId> extras;
        for (const NodeId v : net.unreliable_out(u)) {
          if (rng.bernoulli(0.5)) extras.push_back(v);
        }
        if (!extras.empty()) plan[u] = std::move(extras);
      }
    }
    ScriptedAdversary scripted(std::move(script));
    fuzz_adversary("scripted/grayzone", scripted, net, seed++);
  }
}

TEST(AdversaryConformance, GreedyFrontierMatchesDenseOracle) {
  // The frontier rewrite must make exactly the decisions the dense O(n)
  // formulation makes: jam v iff v is uncovered, not a sender, expects
  // exactly one reliable arrival, and no earlier sender already jammed it —
  // rows in sender order, targets in unreliable-row order.
  const std::vector<DualGraph> networks = {
      duals::gray_zone({.n = 48, .seed = 21}),
      duals::layered_sparse({.layers = 10, .width = 5, .fwd_degree = 2,
                             .unreliable_degree = 2, .seed = 3}),
      duals::backbone_plus_unreliable({.n = 40, .seed = 8}),
  };
  StreamRng rng(0x6EED);
  for (const DualGraph& net : networks) {
    const NodeId n = net.node_count();
    const auto un = static_cast<std::size_t>(n);
    GreedyBlockerAdversary greedy;
    greedy.on_execution_start(net);
    std::vector<ProcessId> mapping(un);
    std::iota(mapping.begin(), mapping.end(), 0);
    NodeFlags covered(un, 0);
    ReachSink sink;
    for (Round round = 1; round <= 24; ++round) {
      for (NodeId v = 0; v < n; ++v) {
        const auto uv = static_cast<std::size_t>(v);
        if (!covered[uv] && rng.bernoulli(0.1)) covered[uv] = 1;
      }
      std::vector<NodeId> senders;
      for (NodeId v = 0; v < n; ++v) {
        if (rng.bernoulli(0.3)) senders.push_back(v);
      }
      const AdversaryView view =
          AdversaryView::of(net, mapping, covered, {}, round);
      sink.begin_round(senders.size());
      greedy.choose_unreliable_reach(view, senders, sink);
      sink.seal();

      // Dense oracle (the pre-rewrite algorithm, verbatim).
      std::vector<int> reliable_arrivals(un, 0);
      std::vector<bool> is_sender(un, false);
      for (const NodeId u : senders) {
        is_sender[static_cast<std::size_t>(u)] = true;
        ++reliable_arrivals[static_cast<std::size_t>(u)];
        for (const NodeId v : net.g_csr().row(u)) {
          ++reliable_arrivals[static_cast<std::size_t>(v)];
        }
      }
      std::vector<std::vector<NodeId>> expected(senders.size());
      if (senders.size() >= 2) {
        std::vector<int> planned(un, 0);
        for (std::size_t i = 0; i < senders.size(); ++i) {
          for (const NodeId v : net.unreliable_out(senders[i])) {
            const auto uv = static_cast<std::size_t>(v);
            if (covered[uv] || is_sender[uv]) continue;
            if (reliable_arrivals[uv] == 1 && planned[uv] == 0) {
              expected[i].push_back(v);
              planned[uv] = 1;
            }
          }
        }
      }
      for (std::size_t i = 0; i < senders.size(); ++i) {
        EXPECT_EQ(std::vector<NodeId>(sink.extras(i).begin(),
                                      sink.extras(i).end()),
                  expected[i])
            << "round " << round << " sender " << senders[i];
      }
    }
  }
}

// ------------------------------------------------- delta / on_round_end

/// Wraps a Bernoulli inner adversary and checks, every round, that the
/// incremental newly_covered spans reconstruct the dense covered array
/// exactly: sorted, duplicate-free deltas whose accumulation equals the
/// flags both at choose time and across on_round_end calls. Also logs the
/// deltas so engine/thread runs can be compared bit-for-bit.
class DeltaTrackingAdversary : public Adversary {
 public:
  explicit DeltaTrackingAdversary(std::uint64_t seed) : inner_(0.4, seed) {}

  std::vector<std::vector<NodeId>> log;

  void on_execution_start(const DualGraph& net) override {
    inner_.on_execution_start(net);
    acc_.assign(static_cast<std::size_t>(net.node_count()), 0);
    log.clear();
    primed_ = false;
  }

  void choose_unreliable_reach(const AdversaryView& view,
                               std::span<const NodeId> senders,
                               ReachSink& sink) override {
    if (!primed_) {
      apply(view.newly_covered);  // round 1: the environment's sources
      primed_ = true;
    }
    EXPECT_EQ(acc_, *view.covered)
        << "delta accumulation diverged from dense flags at round "
        << view.round;
    inner_.choose_unreliable_reach(view, senders, sink);
  }

  Reception resolve_cr4(const AdversaryView& view, NodeId node,
                        const std::vector<Message>& arrivals) override {
    return inner_.resolve_cr4(view, node, arrivals);
  }

  void on_round_end(const AdversaryView& view) override {
    EXPECT_TRUE(std::is_sorted(view.newly_covered.begin(),
                               view.newly_covered.end()))
        << "round " << view.round;
    apply(view.newly_covered);
    EXPECT_EQ(acc_, *view.covered) << "round " << view.round;
    log.emplace_back(view.newly_covered.begin(), view.newly_covered.end());
  }

 private:
  void apply(std::span<const NodeId> delta) {
    for (const NodeId v : delta) {
      auto& flag = acc_[static_cast<std::size_t>(v)];
      EXPECT_EQ(flag, 0) << "node " << v << " covered twice";
      flag = 1;
    }
  }

  BernoulliAdversary inner_;
  NodeFlags acc_;
  bool primed_ = false;
};

TEST(AdversaryConformance, CoverageDeltaMatchesDenseFlagsInBothEngines) {
  const DualGraph net =
      duals::layered_sparse({.layers = 12, .width = 8, .fwd_degree = 2,
                             .unreliable_degree = 2, .seed = 13});
  const ProcessFactory factory = make_decay_factory(net.node_count());
  SimConfig config;
  config.rule = CollisionRule::CR3;
  config.start = StartRule::Asynchronous;
  config.max_rounds = 50'000;
  config.seed = 2024;

  DeltaTrackingAdversary serial(config.seed);
  const SimResult base = run_broadcast(net, factory, serial, config);
  ASSERT_TRUE(base.completed);
  ASSERT_FALSE(serial.log.empty());

  DeltaTrackingAdversary reference(config.seed);
  const SimResult ref =
      run_broadcast_reference(net, factory, reference, config);
  EXPECT_EQ(ref.completion_round, base.completion_round);
  EXPECT_EQ(reference.log, serial.log)
      << "reference engine saw different coverage deltas";

  for (const unsigned threads : {2u, 4u}) {
    SimConfig parallel = config;
    parallel.threads = threads;
    DeltaTrackingAdversary sharded(config.seed);
    const SimResult par = run_broadcast(net, factory, sharded, parallel);
    EXPECT_EQ(par.completion_round, base.completion_round);
    EXPECT_EQ(sharded.log, serial.log)
        << "threads=" << threads << " saw different coverage deltas";
  }
}

TEST(AdversaryConformance, CoverageDeltaMatchesUnderByzantineNodeFaults) {
  // Same delta-accumulation property with a Byzantine node-fault plan
  // active: silenced nodes drop their protocol sends, which reshapes the
  // coverage frontier, and the newly_covered spans must still reconstruct
  // the dense flags identically across both engines and thread counts.
  const DualGraph net =
      duals::layered_sparse({.layers = 12, .width = 8, .fwd_degree = 2,
                             .unreliable_degree = 2, .seed = 13});
  const ProcessFactory factory = make_decay_factory(net.node_count());
  const byz::ByzantinePlan plan = byz::make_random_plan(
      net, /*f=*/1, /*count=*/6, byz::ByzBehavior::Silent, {}, 909);
  ASSERT_GE(plan.faults().size(), 1u);

  SimConfig config;
  config.rule = CollisionRule::CR3;
  config.start = StartRule::Asynchronous;
  config.max_rounds = 50'000;
  config.seed = 2024;
  config.byzantine = &plan;

  DeltaTrackingAdversary serial(config.seed);
  const SimResult base = run_broadcast(net, factory, serial, config);
  ASSERT_FALSE(serial.log.empty());

  DeltaTrackingAdversary reference(config.seed);
  const SimResult ref =
      run_broadcast_reference(net, factory, reference, config);
  EXPECT_EQ(ref.rounds_executed, base.rounds_executed);
  EXPECT_EQ(ref.completed, base.completed);
  EXPECT_EQ(reference.log, serial.log)
      << "reference engine saw different coverage deltas under byz faults";

  for (const unsigned threads : {2u, 4u}) {
    SimConfig parallel = config;
    parallel.threads = threads;
    DeltaTrackingAdversary sharded(config.seed);
    const SimResult par = run_broadcast(net, factory, sharded, parallel);
    EXPECT_EQ(par.rounds_executed, base.rounds_executed);
    EXPECT_EQ(par.completed, base.completed);
    EXPECT_EQ(sharded.log, serial.log)
        << "threads=" << threads
        << " saw different coverage deltas under byz faults";
  }
}

}  // namespace
}  // namespace dualrad
