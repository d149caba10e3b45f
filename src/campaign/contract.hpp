#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "campaign/engine.hpp"

/// \file contract.hpp
/// The classic broadcast-contract checker, adapted from the delivery spec of
/// uniform reliable broadcast (validity / no-duplication / no-creation /
/// agreement) to the radio-network simulator's observables. Checked per
/// trial over SimResult::token_first:
///
///  - no-creation: no token is delivered unless it was injected — the
///    execution carries exactly the configured token set, and each token has
///    exactly one environment injection (one node holding it at round 0, the
///    configured source when the scenario names one). Under Byzantine node
///    faults (src/byz/) this also covers forged tokens: a forged token that
///    *won* — was accepted and relayed by a correct node, per
///    SimResult::forged_tokens — is reported with the token id, forger,
///    first relaying node, and round.
///  - no-duplication: each (node, token) has a single well-formed first
///    delivery: rounds in [0, rounds_executed] or kNever, and the
///    single-token view (first_token) is consistent with token_first[0].
///  - validity / agreement: completion is truthful — the execution reports
///    completed iff every process holds every token, and the completion
///    round is exactly the last first-delivery. (Agreement is an eventual
///    property; executions truncated by max_rounds are not violations.)
///
/// Wired as a CampaignConfig observer so any campaign — batch or serve-mode
/// worker — can assert the contract out-of-band without touching results.

namespace dualrad::campaign {

/// Violations found in one trial, as human-readable "property: detail"
/// strings; empty means the trial satisfies the contract.
[[nodiscard]] std::vector<std::string> check_broadcast_contract(
    const Scenario& scenario, const TrialRow& row, const SimResult& result);

/// Observer adapter: collects violations across all trials of a campaign.
/// attach() chains any observer already present in the config. Thread-safe
/// (the engine serializes observers, but serve-mode workers may not).
class ContractObserver {
 public:
  /// Install this observer into `config`, chaining a pre-existing one.
  /// The observer must outlive the campaign run.
  void attach(CampaignConfig& config);

  /// Record violations of one trial directly (the serve-mode worker path).
  void record(const Scenario& scenario, const TrialRow& row,
              const SimResult& result);

  /// Every violation recorded, ordered by (scenario name, trial) and within
  /// a trial as the checker found them — the same for any recording order,
  /// so a campaign's verdicts do not depend on its thread count.
  [[nodiscard]] std::vector<std::string> violations() const;
  [[nodiscard]] std::size_t trials_checked() const;

 private:
  mutable std::mutex mutex_;
  /// Keyed by (scenario, trial); equal keys keep their insertion order.
  std::multimap<std::pair<std::string, std::uint32_t>, std::string>
      violations_;
  std::size_t trials_checked_ = 0;
};

}  // namespace dualrad::campaign
