#include "mac/mac_latency.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

#include "mac/decay_mac.hpp"

namespace dualrad::mac {

MacLatencySummary measure_mac_latency(const DualGraph& net,
                                      const SimResult& result) {
  MacLatencySummary summary;
  const NodeId n = net.node_count();
  DUALRAD_REQUIRE(
      result.token_first.empty() ||
          result.token_first.front().size() == static_cast<std::size_t>(n),
      "result does not match the network");

  double prog_sum = 0.0;
  // avail[v]: earliest round some reliable in-neighbor of v held the token,
  // filled by one forward pass over the G rows per token.
  std::vector<Round> avail(static_cast<std::size_t>(n));
  for (const std::vector<Round>& first : result.token_first) {
    std::fill(avail.begin(), avail.end(), kNever);
    for (NodeId u = 0; u < n; ++u) {
      const Round r = first[static_cast<std::size_t>(u)];
      if (r == kNever) continue;
      for (const NodeId v : net.g_csr().row(u)) {
        Round& a = avail[static_cast<std::size_t>(v)];
        if (a == kNever || r < a) a = r;
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      const Round got = first[static_cast<std::size_t>(v)];
      if (got == kNever) {
        ++summary.unreached;
        continue;
      }
      if (got == 0) continue;  // the token's source
      const Round held = avail[static_cast<std::size_t>(v)];
      // Excluded: no reliable in-neighbor ever held it, or the node beat
      // them to it over an unreliable link.
      if (held == kNever || held >= got) continue;
      const Round latency = got - held;
      ++summary.prog_samples;
      // lint: fp-ok (post-run analysis in fixed token/node order)
      prog_sum += static_cast<double>(latency);
      summary.prog_max = std::max(summary.prog_max, latency);
    }
  }
  if (summary.prog_samples > 0) {
    summary.prog_mean = prog_sum / static_cast<double>(summary.prog_samples);
  }

  double ack_sum = 0.0;
  double ack_max = -1.0;
  for (const ProcessMetricSample& metric : result.process_metrics) {
    const std::string_view name = metric.name;
    if (name == kMacAckCountMetric) {
      summary.acks += static_cast<std::uint64_t>(metric.value);
    } else if (name == kMacAckMaxMetric) {
      ack_max = std::max(ack_max, metric.value);
    } else if (name == kMacAckSumMetric) {
      // lint: fp-ok (post-run reduction in SimResult metric order)
      ack_sum += metric.value;
    } else if (name == kMacPendingMetric) {
      summary.pending += static_cast<std::uint64_t>(metric.value);
    }
  }
  if (summary.acks > 0) {
    summary.ack_max = ack_max;
    summary.ack_mean = ack_sum / static_cast<double>(summary.acks);
  }
  return summary;
}

struct LatencyCollector::State {
  std::map<std::string, DualGraph> nets;
  std::vector<TrialLatencyRow> rows;
};

LatencyCollector::LatencyCollector(
    const std::vector<campaign::Scenario>& scenarios)
    : state_(std::make_shared<State>()) {
  for (const campaign::Scenario& s : scenarios) {
    state_->nets.emplace(s.name, s.network());
  }
}

void LatencyCollector::attach(campaign::CampaignConfig& config) {
  config.observer = [state = state_](const campaign::Scenario& scenario,
                                     const campaign::TrialRow& row,
                                     const SimResult& result) {
    state->rows.push_back(
        {scenario.name, row.trial,
         measure_mac_latency(state->nets.at(scenario.name), result)});
  };
}

std::vector<TrialLatencyRow> LatencyCollector::sorted_rows() const {
  std::vector<TrialLatencyRow> rows = state_->rows;
  std::sort(rows.begin(), rows.end(),
            [](const TrialLatencyRow& a, const TrialLatencyRow& b) {
              return a.scenario != b.scenario ? a.scenario < b.scenario
                                              : a.trial < b.trial;
            });
  return rows;
}

}  // namespace dualrad::mac
