// M1 — multi-message broadcast over the abstract MAC layer (src/mac/).
//
// Runs the mac/* catalogue (BMMB over DecayMac, k in {1, 4, 16} tokens at
// spread sources, layered and gray-zone families, benign / Bernoulli /
// greedy-blocker adversaries) through the campaign engine and reports, per
// scenario, the completion statistics plus the *measured* abstract-MAC
// latencies: f_ack (bcast-to-ack, from the processes' exported metrics) and
// f_prog (first-reception lag behind the reliable neighborhood, from the
// per-token coverage data). The expectation from the abstract MAC layer
// literature: f_prog stays polylogarithmic-ish under benign contention while
// f_ack scales with the Decay run length, and completion degrades gracefully
// with k; the greedy blocker row shows the no-guarantee contrast.

#include <algorithm>
#include <map>

#include "bench_util.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "mac/mac_latency.hpp"

using namespace dualrad;

namespace {

struct LatencyAgg {
  std::uint64_t trials = 0;
  Round prog_max = 0;
  double prog_mean_sum = 0.0;
  double ack_max = -1.0;
  double ack_mean_sum = 0.0;
  std::uint64_t unreached = 0;
};

}  // namespace

int main() {
  benchutil::print_header(
      "M1", "Multi-message broadcast over the abstract MAC layer",
      "BMMB/DecayMac completes for k in {1,4,16} under benign and stochastic "
      "adversaries with measured f_ack ~ Decay run length; the greedy "
      "blocker can starve the layer (no dual-graph guarantee)");

  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  const std::vector<campaign::Scenario> scenarios = registry.match("mac");

  campaign::CampaignConfig config;
  mac::LatencyCollector collector(scenarios);
  collector.attach(config);
  const campaign::CampaignResult result =
      campaign::run_campaign(scenarios, config);

  std::map<std::string, LatencyAgg> latencies;
  for (const mac::TrialLatencyRow& row : collector.sorted_rows()) {
    const mac::MacLatencySummary& lat = row.latency;
    LatencyAgg& agg = latencies[row.scenario];
    ++agg.trials;
    agg.prog_max = std::max(agg.prog_max, lat.prog_max);
    agg.prog_mean_sum += lat.prog_mean > 0 ? lat.prog_mean : 0.0;
    agg.ack_max = std::max(agg.ack_max, lat.ack_max);
    agg.ack_mean_sum += lat.ack_mean > 0 ? lat.ack_mean : 0.0;
    agg.unreached += lat.unreached;
  }

  stats::Table table({"scenario", "k", "failed", "mean rounds", "p90",
                      "mean sends", "f_prog max", "f_prog mean", "f_ack max",
                      "f_ack mean"});
  for (const campaign::ScenarioSummary& s : result.summaries) {
    const LatencyAgg& agg = latencies[s.scenario];
    const bool any = s.rounds.count > 0;
    const double trials = agg.trials > 0 ? static_cast<double>(agg.trials) : 1.0;
    std::size_t k = 0;
    for (const campaign::Scenario& spec : scenarios) {
      if (spec.name == s.scenario) k = campaign::token_count(spec);
    }
    table.add_row({s.scenario, std::to_string(k), std::to_string(s.failures),
                   any ? stats::Table::num(s.rounds.mean, 1) : "-",
                   any ? stats::Table::num(s.rounds.p90, 1) : "-",
                   stats::Table::num(s.mean_sends, 1),
                   std::to_string(agg.prog_max),
                   stats::Table::num(agg.prog_mean_sum / trials, 1),
                   stats::Table::num(agg.ack_max, 0),
                   stats::Table::num(agg.ack_mean_sum / trials, 1)});
  }
  table.print(std::cout);

  std::cout << "\nwho wins: the MAC decomposition holds its contract under "
               "benign and Bernoulli channels (every token reaches every "
               "process; f_ack tracks the Decay run length, f_prog stays far "
               "below it), while the greedy blocker starves DecayMac — the "
               "dual-graph no-guarantee contrast, lifted to the MAC layer.\n";
  return 0;
}
