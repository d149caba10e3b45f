// X1 — extension experiment: repeated broadcast with topology learning
// (the paper's future-work direction, Section 8).
//
// Compares, over a sequence of broadcasts on the same network:
//   naive    — rerun the topology-oblivious algorithm every time;
//   learned  — train for a few broadcasts, ETX-style-estimate the reliable
//              subgraph from the traces, then switch to a collision-free
//              TDMA schedule on the learned graph.
//
// Against a *hostile* adversary (greedy blocker) the payoff is structural:
// the TDMA schedule has one sender per round, so no unreliable link can
// jam it — post-training broadcasts cost one period regardless of the
// adversary, while the oblivious algorithm pays the adversarial price every
// time. Against pure channel noise (non-resetting Bernoulli) the estimator
// risk shows: an unreliable link that happened to deliver throughout
// training poisons the schedule (the gray-zone trap ETX deployments face) —
// reported in the "estimate sound" column.
//
// The (adversary x network x algorithm) combos run as ONE campaign: each
// combo is a scenario whose TrialRunner wraps the whole learning pipeline
// (a logical trial = 2 x broadcasts executions against one adversary
// instance), so the engine parallelizes the combos and derives every
// combo's seeds and adversary from its own deterministic stream — the old
// hand-rolled loop shared one Bernoulli noise stream across combos, making
// results depend on combo order.

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/strong_select.hpp"
#include "campaign/engine.hpp"
#include "graph/dual_builders.hpp"
#include "repeated/repeated.hpp"
#include "stats/table.hpp"

using namespace dualrad;

namespace {

struct Combo {
  const char* adversary_name;
  const char* net_name;
  const char* algo_name;
  campaign::AdversaryFactory adversary;
  campaign::NetworkBuilder network;
  campaign::AlgorithmBuilder algorithm;

  [[nodiscard]] std::string scenario_name() const {
    return std::string("x1/") + adversary_name + "/" + net_name + "/" +
           algo_name;
  }
};

campaign::NetworkBuilder grayzone() {
  return [] {
    return duals::gray_zone(
        {.n = 48, .r_reliable = 0.25, .r_gray = 0.6, .seed = 7});
  };
}

campaign::NetworkBuilder backbone() {
  return [] {
    return duals::backbone_plus_unreliable(
        {.n = 48, .p_reliable = 0.06, .p_unreliable = 0.25, .seed = 7});
  };
}

campaign::AlgorithmBuilder harmonic() {
  return [](const DualGraph& net) {
    return make_harmonic_factory(net.node_count());
  };
}

campaign::AlgorithmBuilder strong_select() {
  return [](const DualGraph& net) {
    return make_strong_select_factory(net.node_count());
  };
}

campaign::AdversaryFactory greedy() {
  return campaign::make_adversary_factory<GreedyBlockerAdversary>();
}

campaign::AdversaryFactory noise() {
  // Non-resetting: the noise stream flows across the broadcast sequence, so
  // link-quality samples are not correlated replays. Seeded per trial by
  // the engine.
  return [](std::uint64_t seed) {
    return std::make_unique<BernoulliAdversary>(0.3, seed,
                                                /*reset_each_execution=*/false);
  };
}

}  // namespace

int main() {
  std::cout << "\n=== X1: Repeated broadcast with topology learning (future "
               "work, §8) ===\n"
               "paper expectation: learning the reliable topology amortizes: "
               "post-training broadcasts run on a collision-free, "
               "adversary-proof schedule\n\n";

  std::vector<Combo> combos;
  for (const auto& [adv_name, adv] :
       {std::pair<const char*, campaign::AdversaryFactory>{"greedy", greedy()},
        {"bernoulli:0.3", noise()}}) {
    combos.push_back({adv_name, "grayzone", "harmonic", adv, grayzone(),
                      harmonic()});
    combos.push_back({adv_name, "grayzone", "strong-select", adv, grayzone(),
                      strong_select()});
    combos.push_back({adv_name, "backbone", "harmonic", adv, backbone(),
                      harmonic()});
    combos.push_back({adv_name, "backbone", "strong-select", adv, backbone(),
                      strong_select()});
  }

  // One scenario per combo; the runner executes the whole learning pipeline
  // and parks the full report in the combo's slot (one trial per scenario,
  // so each slot is written exactly once).
  std::vector<repeated::RepeatedReport> reports(combos.size());
  std::vector<campaign::Scenario> scenarios;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    const Combo& combo = combos[i];
    campaign::Scenario s;
    s.name = combo.scenario_name();
    s.network = combo.network;
    s.algorithm = combo.algorithm;
    s.adversary = combo.adversary;
    s.max_rounds = 10'000'000;
    s.trials = 1;
    s.runner = [slot = &reports[i]](const DualGraph& net,
                                    const ProcessFactory& factory,
                                    Adversary& adversary,
                                    const SimConfig& config) {
      repeated::RepeatedOptions options;
      options.broadcasts = 10;
      options.training = 4;
      options.min_samples = 5;
      options.config = config;
      *slot = repeated::run_repeated_broadcast(net, factory, adversary, options);
      // Digest for the TrialRow: the learned strategy's totals.
      SimResult digest;
      digest.completed = slot->all_completed;
      digest.completion_round = slot->learned_total();
      digest.rounds_executed = slot->naive_total();
      return digest;
    };
    scenarios.push_back(std::move(s));
  }
  (void)campaign::run_campaign(scenarios);

  stats::Table table({"adversary", "network", "algorithm", "naive total",
                      "learned total", "tdma period", "estimate sound",
                      "all completed"});
  for (std::size_t i = 0; i < combos.size(); ++i) {
    const Combo& combo = combos[i];
    const repeated::RepeatedReport& report = reports[i];
    table.add_row(
        {combo.adversary_name, combo.net_name, combo.algo_name,
         std::to_string(report.naive_total()),
         std::to_string(report.learned_total()),
         report.tdma_period > 0 ? std::to_string(report.tdma_period)
                                : std::string("(fallback)"),
         report.topology.sound ? "yes" : "NO (gray-zone trap)",
         report.all_completed ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::cout << "\nper-broadcast breakdown (grayzone / harmonic / greedy "
               "blocker; training = first 4):\n";
  {
    // Reuse the campaign's report for that combo — no extra serial rerun.
    const repeated::RepeatedReport& report = reports[0];
    const auto rounds = [](Round r) {
      return r == kNever ? std::string("never") : std::to_string(r);
    };
    stats::Table detail({"broadcast", "naive rounds", "learned rounds"});
    for (std::size_t b = 0; b < report.naive_rounds.size(); ++b) {
      detail.add_row({std::to_string(b + 1), rounds(report.naive_rounds[b]),
                      rounds(report.learned_rounds[b])});
    }
    detail.print(std::cout);
  }
  return 0;
}
