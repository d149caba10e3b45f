#pragma once

#include <memory>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "core/simulator.hpp"
#include "graph/dual_graph.hpp"

/// \file mac_latency.hpp
/// Measured ack/progress latencies of a MAC-layer execution.
///
/// The abstract MAC layer contract is parameterized by f_ack (bcast-to-ack
/// latency) and f_prog (how long a process can wait for *some* message while
/// a reliable neighbor holds one it lacks). Rather than assuming the bounds,
/// this module measures both for a finished execution:
///
///  - ack latencies are whatever the MAC processes exported through
///    Process::final_metrics (the kMacAck* names of decay_mac.hpp),
///    aggregated over all processes;
///  - progress latency of a (token, node) pair is
///        token_first[t][v] - min over G-in-neighbors u of token_first[t][u],
///    the rounds between the token first becoming available next door over a
///    reliable link and the node first holding it. Pairs where the node is
///    the token's source, never got the token, or got it before any reliable
///    in-neighbor (i.e. over an unreliable link) are excluded from the
///    latency statistics; the never-covered pairs are counted in
///    `unreached`.
///
/// The computation only needs (network, SimResult), so campaign observers
/// can export it per trial (tools/dualrad_campaign.cpp --mac-jsonl).

namespace dualrad::mac {

struct MacLatencySummary {
  /// (token, node) pairs contributing a progress latency sample.
  std::uint64_t prog_samples = 0;
  Round prog_max = 0;
  double prog_mean = -1.0;  ///< -1 when no sample
  /// (token, node) pairs never covered (incomplete executions).
  std::uint64_t unreached = 0;

  /// Ack statistics over all processes; ack_max/ack_mean are -1 when no
  /// process exported MAC metrics (non-MAC workloads) or no ack fired.
  std::uint64_t acks = 0;
  double ack_max = -1.0;
  double ack_mean = -1.0;
  /// bcast() calls still unacked at the end of the execution.
  std::uint64_t pending = 0;
};

[[nodiscard]] MacLatencySummary measure_mac_latency(const DualGraph& net,
                                                    const SimResult& result);

/// One trial's measured latencies, as collected by LatencyCollector.
/// Progress latencies are meaningful for any broadcast scenario; the ack
/// fields are zero/-1 outside MAC workloads.
struct TrialLatencyRow {
  std::string scenario;
  std::uint32_t trial = 0;
  MacLatencySummary latency{};
};

/// Collects measure_mac_latency for every trial of a campaign. Builds each
/// scenario's network once up front (builders are pure) and installs a
/// CampaignConfig::observer; the engine serializes observer calls, but
/// completion order is scheduling-dependent, so read results through
/// sorted_rows() for a deterministic (scenario, trial) order.
class LatencyCollector {
 public:
  explicit LatencyCollector(const std::vector<campaign::Scenario>& scenarios);

  /// Install the collecting observer, chained after any previous one.
  void attach(campaign::CampaignConfig& config);

  [[nodiscard]] std::vector<TrialLatencyRow> sorted_rows() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace dualrad::mac
