#include "campaign/contract.hpp"

#include <algorithm>
#include <utility>

namespace dualrad::campaign {

namespace {

void violation(std::vector<std::string>& out, const TrialRow& row,
               const char* property, std::string detail) {
  out.push_back(row.scenario + "#" + std::to_string(row.trial) + " " +
                property + ": " + std::move(detail));
}

}  // namespace

std::vector<std::string> check_broadcast_contract(const Scenario& scenario,
                                                  const TrialRow& row,
                                                  const SimResult& result) {
  std::vector<std::string> out;

  // --- no-creation: the token set is exactly what the environment injected.
  const std::size_t expected_tokens = token_count(scenario);
  if (result.token_first.size() != expected_tokens) {
    violation(out, row, "no-creation",
              "execution carries " + std::to_string(result.token_first.size()) +
                  " tokens, " + std::to_string(expected_tokens) + " injected");
    return out;  // the per-token checks below would index out of range
  }

  const Round horizon = result.rounds_executed;
  Round last_delivery = 0;
  bool all_delivered = true;
  for (std::size_t i = 0; i < result.token_first.size(); ++i) {
    const std::vector<Round>& first = result.token_first[i];
    std::size_t origins = 0;
    for (std::size_t v = 0; v < first.size(); ++v) {
      const Round r = first[v];
      if (r == 0) ++origins;
      if (r == kNever) {
        all_delivered = false;
        continue;
      }
      // no-duplication: one well-formed first delivery per (node, token).
      if (r < 0 || r > horizon) {
        violation(out, row, "no-duplication",
                  "token " + std::to_string(i + 1) + " at node " +
                      std::to_string(v) + " has first round " +
                      std::to_string(r) + " outside [0, " +
                      std::to_string(horizon) + "]");
      }
      last_delivery = std::max(last_delivery, r);
    }
    // no-creation: exactly one environment injection per token — deliveries
    // only happen at rounds >= 1, so a second round-0 holder means a token
    // appeared out of thin air.
    if (origins != 1) {
      violation(out, row, "no-creation",
                "token " + std::to_string(i + 1) + " has " +
                    std::to_string(origins) + " round-0 origins (want 1)");
    }
    if (!scenario.token_sources.empty()) {
      const NodeId src = scenario.token_sources[i];
      if (src < 0 || static_cast<std::size_t>(src) >= first.size() ||
          first[static_cast<std::size_t>(src)] != 0) {
        violation(out, row, "no-creation",
                  "token " + std::to_string(i + 1) +
                      " does not originate at its configured source node " +
                      std::to_string(src));
      }
    }
  }

  // --- no-creation, node-fault edition (src/byz/): a forged token *winning*
  // — some protocol-following node accepting and relaying it — is delivery
  // of a token the environment never injected. The engine keeps forged ids
  // out of token_first, so the provenance records are where the breach
  // shows, with the exact token, forger, first relaying node, and round.
  for (const ForgedTokenRecord& f : result.forged_tokens) {
    if (!f.won()) continue;
    violation(out, row, "no-creation",
              "forged token " + std::to_string(f.token) + " (forger node " +
                  std::to_string(f.forger) + ") won: first relayed by node " +
                  std::to_string(f.first_victim) + " at round " +
                  std::to_string(f.first_victim_round) + ", " +
                  std::to_string(f.injections) + " injections, " +
                  std::to_string(f.victim_sends) + " victim sends, " +
                  std::to_string(f.receptions) + " receptions");
  }

  // Single-token API consistency: first_token is an alias of token_first[0].
  if (!result.token_first.empty() &&
      result.first_token != result.token_first.front()) {
    violation(out, row, "no-duplication",
              "first_token diverges from token_first[0]");
  }

  // --- validity / agreement: completion is truthful. If any process
  // delivered and the run claims completion, all did (uniform agreement);
  // a run that claims completion without full delivery violates validity.
  if (result.completed != all_delivered) {
    violation(out, row, "validity",
              result.completed
                  ? "reported completed but some (node, token) never delivered"
                  : "all (node, token) delivered but not reported completed");
  }
  if (result.completed && result.completion_round != last_delivery) {
    violation(out, row, "agreement",
              "completion round " + std::to_string(result.completion_round) +
                  " != last first-delivery " + std::to_string(last_delivery));
  }
  if (row.completed != result.completed) {
    violation(out, row, "validity",
              "exported row disagrees with SimResult on completion");
  }
  return out;
}

void ContractObserver::attach(CampaignConfig& config) {
  auto previous = std::move(config.observer);
  config.observer = [this, previous = std::move(previous)](
                        const Scenario& scenario, const TrialRow& row,
                        const SimResult& result) {
    if (previous) previous(scenario, row, result);
    record(scenario, row, result);
  };
}

void ContractObserver::record(const Scenario& scenario, const TrialRow& row,
                              const SimResult& result) {
  std::vector<std::string> found =
      check_broadcast_contract(scenario, row, result);
  const std::lock_guard<std::mutex> lock(mutex_);
  ++trials_checked_;
  for (std::string& v : found) {
    violations_.emplace(std::make_pair(row.scenario, row.trial), std::move(v));
  }
}

std::vector<std::string> ContractObserver::violations() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [trial, v] : violations_) out.push_back(v);
  return out;
}

std::size_t ContractObserver::trials_checked() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return trials_checked_;
}

}  // namespace dualrad::campaign
