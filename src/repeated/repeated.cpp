#include "repeated/repeated.hpp"

#include <map>
#include <numeric>

#include "algorithms/scheduled.hpp"
#include "adversary/basic_adversaries.hpp"
#include "graph/algorithms.hpp"

namespace dualrad::repeated {

LearnedTopology estimate_reliable_links(const DualGraph& net,
                                        const std::vector<Trace>& traces,
                                        std::size_t min_samples) {
  // For each observed (sender, target) pair over G' edges, count delivery
  // opportunities (sender transmitted) vs actual deliveries.
  std::map<std::pair<NodeId, NodeId>, LinkEstimate> links;
  SparseRound round;
  for (const Trace& trace : traces) {
    DUALRAD_REQUIRE(trace.level == TraceLevel::Compressed,
                    "learning requires recorded traces");
    // Trace ids come from outside: decoding checks them against the network
    // before they index its rows.
    for (std::size_t i = 0; i < trace.compressed_rounds(); ++i) {
      trace.decode_round(i, net.node_count(), round);
      for (const auto& sender : round.senders) {
        for (NodeId v : net.g_prime_csr().row(sender.node)) {
          auto& est = links[{sender.node, v}];
          est.from = sender.node;
          est.to = v;
          ++est.sends;
        }
        for (NodeId v : round.reach(sender)) {
          ++links[{sender.node, v}].deliveries;
        }
      }
    }
  }

  LearnedTopology learned;
  CsrGraphBuilder reliable(net.node_count());
  learned.sound = true;
  for (auto& [key, est] : links) {
    learned.estimates.push_back(est);
    if (est.sends >= min_samples && est.deliveries == est.sends) {
      reliable.add_edge(est.from, est.to);
      if (!net.g_csr().contains(est.from, est.to)) learned.sound = false;
    }
  }
  learned.estimated_reliable = reliable.freeze(RowOrder::Emission);
  learned.usable =
      graphalg::all_reachable(learned.estimated_reliable, net.source());
  return learned;
}

namespace {

[[nodiscard]] Round total(const std::vector<Round>& rounds) {
  Round sum = 0;
  for (const Round r : rounds) {
    if (r == kNever) return kNever;
    sum += r;
  }
  return sum;
}

}  // namespace

Round RepeatedReport::naive_total() const { return total(naive_rounds); }

Round RepeatedReport::learned_total() const { return total(learned_rounds); }

RepeatedReport run_repeated_broadcast(const DualGraph& net,
                                      const ProcessFactory& algorithm,
                                      Adversary& adversary,
                                      const RepeatedOptions& options) {
  DUALRAD_REQUIRE(options.broadcasts >= 1, "need at least one broadcast");
  DUALRAD_REQUIRE(options.training >= 1 &&
                      options.training <= options.broadcasts,
                  "training count out of range");
  RepeatedReport report;

  // Naive strategy: run the oblivious algorithm every time.
  for (int b = 0; b < options.broadcasts; ++b) {
    SimConfig config = options.config;
    config.seed = mix_seed(options.config.seed, 0x6E00 + static_cast<std::uint64_t>(b));
    const SimResult result = run_broadcast(net, algorithm, adversary, config);
    report.naive_rounds.push_back(result.completed ? result.completion_round
                                                   : kNever);
    report.all_completed = report.all_completed && result.completed;
  }

  // Learned strategy: training broadcasts with traces, then TDMA.
  // The proc mapping must be stable across broadcasts for schedules over
  // process ids to make sense; pin the identity mapping.
  std::vector<ProcessId> identity(static_cast<std::size_t>(net.node_count()));
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<Trace> traces;
  for (int b = 0; b < options.training; ++b) {
    SimConfig config = options.config;
    config.seed = mix_seed(options.config.seed, 0x6C00 + static_cast<std::uint64_t>(b));
    config.trace = TraceLevel::Compressed;
    FixedAssignmentAdversary pinned(identity, adversary);
    const SimResult result = run_broadcast(net, algorithm, pinned, config);
    report.learned_rounds.push_back(result.completed ? result.completion_round
                                                     : kNever);
    report.all_completed = report.all_completed && result.completed;
    traces.push_back(result.trace);
  }

  report.topology = estimate_reliable_links(net, traces, options.min_samples);

  // Schedule over the learned graph; if the learned graph is unusable
  // (source cannot reach everyone over presumed-reliable links), keep using
  // the oblivious algorithm — a deployment would keep training.
  ProcessFactory follow_up = algorithm;
  if (report.topology.usable) {
    const DualGraph learned_net(report.topology.estimated_reliable,
                                net.g_prime_csr(), net.source());
    const auto schedule =
        broadcastability::greedy_oracle_schedule(learned_net);
    report.tdma_period = schedule.rounds();
    // Node ids == process ids under the pinned identity mapping.
    std::vector<ProcessId> slots(schedule.senders.begin(),
                                 schedule.senders.end());
    follow_up = make_scheduled_factory(net.node_count(), std::move(slots));
  }
  for (int b = options.training; b < options.broadcasts; ++b) {
    SimConfig config = options.config;
    config.seed = mix_seed(options.config.seed, 0x6C00 + static_cast<std::uint64_t>(b));
    FixedAssignmentAdversary pinned(identity, adversary);
    const SimResult result = run_broadcast(net, follow_up, pinned, config);
    report.learned_rounds.push_back(result.completed ? result.completion_round
                                                     : kNever);
    report.all_completed = report.all_completed && result.completed;
  }
  return report;
}

}  // namespace dualrad::repeated
