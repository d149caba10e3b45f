#include "byz/cpa.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "algorithms/coin_schedule.hpp"
#include "byz/plan.hpp"

namespace dualrad::byz {

namespace {

class CpaProcess final : public Process {
 public:
  CpaProcess(ProcessId id, const CpaOptions& options, std::uint64_t seed)
      : Process(id),
        f_(options.f),
        trusted_(options.trusted_origins),
        schedule_({.active_rounds = options.active_rounds,
                   .beacon_period = options.rebroadcast_period},
                  {options.relay_p}, seed) {
    std::sort(trusted_.begin(), trusted_.end());
  }
  CpaProcess(const CpaProcess&) = default;

  void on_activate(Round round, const std::optional<Message>& initial) override {
    if (initial) learn(round, *initial);
  }

  [[nodiscard]] Action next_action(Round round) const override {
    if (!schedule_.sends(accept_start_, round)) return Action::silent();
    // Which accepted token to relay is drawn independently of the send coin
    // (salt 1), so growing the accepted set never shifts the send schedule.
    const auto pick = static_cast<std::size_t>(
        schedule_.rng().below(accepted_.size(), round, /*salt=*/1));
    return Action::transmit(Message{accepted_[pick], /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  void on_receive(Round round, const Reception& reception) override {
    if (reception.is_message()) learn(round, *reception.message);
  }

  [[nodiscard]] Round next_send_round(Round from) const override {
    return schedule_.next_send(accept_start_, from);
  }

  /// State changes only on message receptions; metrics count acceptances.
  [[nodiscard]] bool silence_transparent() const override { return true; }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<CpaProcess>(*this);
  }

  [[nodiscard]] std::vector<ProcessMetric> final_metrics() const override {
    return {{"cpa_accepted", static_cast<double>(accepted_.size())},
            {"cpa_forged", static_cast<double>(forged_accepts_)}};
  }

 private:
  [[nodiscard]] bool has_accepted(TokenId tok) const {
    return std::binary_search(accepted_.begin(), accepted_.end(), tok);
  }

  void learn(Round round, const Message& m) {
    if (m.token == kNoToken || has_accepted(m.token)) return;
    const bool certified =
        m.origin == kInvalidProcess ||  // environment injection
        std::binary_search(trusted_.begin(), trusted_.end(), m.origin);
    if (certified) {
      accept(round, m.token);
      return;
    }
    // Count distinct confirming origins; channels are locally authenticated,
    // so distinct origins are distinct in-neighbors.
    const auto it = std::lower_bound(
        pending_.begin(), pending_.end(), m.token,
        [](const auto& e, TokenId t) { return e.first < t; });
    if (it == pending_.end() || it->first != m.token) {
      pending_.insert(it, {m.token, {m.origin}});
      return;
    }
    std::vector<ProcessId>& origins = it->second;
    const auto pos = std::lower_bound(origins.begin(), origins.end(), m.origin);
    if (pos != origins.end() && *pos == m.origin) return;
    origins.insert(pos, m.origin);
    if (static_cast<std::int32_t>(origins.size()) >= f_ + 1) {
      accept(round, m.token);
    }
  }

  void accept(Round round, TokenId tok) {
    if (accepted_.empty()) accept_start_ = round;
    accepted_.insert(
        std::lower_bound(accepted_.begin(), accepted_.end(), tok), tok);
    if (tok >= kForgedTokenBase) ++forged_accepts_;
    const auto it = std::lower_bound(
        pending_.begin(), pending_.end(), tok,
        [](const auto& e, TokenId t) { return e.first < t; });
    if (it != pending_.end() && it->first == tok) pending_.erase(it);
  }

  std::int32_t f_;
  std::vector<ProcessId> trusted_;  ///< sorted
  CoinSchedule<FlatProbability> schedule_;
  std::vector<TokenId> accepted_;  ///< sorted
  /// Per unaccepted token: the distinct origins heard so far (sorted).
  std::vector<std::pair<TokenId, std::vector<ProcessId>>> pending_;
  Round accept_start_ = kNever;  ///< round of the first acceptance
  std::uint64_t forged_accepts_ = 0;
};

class UncertifiedRelayProcess final : public Process {
 public:
  UncertifiedRelayProcess(ProcessId id, const UncertifiedRelayOptions& options,
                          std::uint64_t seed)
      : Process(id),
        schedule_({.active_rounds = options.active_rounds,
                   .beacon_period = options.rebroadcast_period},
                  {options.relay_p}, seed) {}
  UncertifiedRelayProcess(const UncertifiedRelayProcess&) = default;

  void on_activate(Round round, const std::optional<Message>& initial) override {
    if (initial) learn(round, *initial);
  }

  [[nodiscard]] Action next_action(Round round) const override {
    if (!schedule_.sends(adopt_round_, round)) return Action::silent();
    return Action::transmit(
        Message{token_, /*origin=*/id(), /*round_tag=*/round, /*payload=*/0});
  }

  void on_receive(Round round, const Reception& reception) override {
    if (reception.is_message()) learn(round, *reception.message);
  }

  [[nodiscard]] Round next_send_round(Round from) const override {
    return schedule_.next_send(adopt_round_, from);
  }

  [[nodiscard]] bool silence_transparent() const override { return true; }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<UncertifiedRelayProcess>(*this);
  }

  [[nodiscard]] std::vector<ProcessMetric> final_metrics() const override {
    return {{"relay_token", static_cast<double>(token_)}};
  }

 private:
  /// Adopt the first token heard, no questions asked — the vulnerability
  /// CPA exists to close.
  void learn(Round round, const Message& m) {
    if (token_ != kNoToken || m.token == kNoToken) return;
    token_ = m.token;
    adopt_round_ = round;
  }

  CoinSchedule<FlatProbability> schedule_;
  TokenId token_ = kNoToken;
  Round adopt_round_ = kNever;  ///< kNever iff token_ == kNoToken
};

}  // namespace

ProcessFactory make_cpa_factory(NodeId n, const CpaOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "CPA needs n >= 2");
  DUALRAD_REQUIRE(options.f >= 1, "CPA needs f >= 1");
  DUALRAD_REQUIRE(options.relay_p > 0.0 && options.relay_p <= 1.0,
                  "CPA relay probability must be in (0, 1]");
  return [options, n](ProcessId id, NodeId n_arg, std::uint64_t seed) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<CpaProcess>(id, options, seed);
  };
}

ProcessFactory make_uncertified_relay_factory(
    NodeId n, const UncertifiedRelayOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "relay needs n >= 2");
  DUALRAD_REQUIRE(options.relay_p > 0.0 && options.relay_p <= 1.0,
                  "relay probability must be in (0, 1]");
  return [options, n](ProcessId id, NodeId n_arg, std::uint64_t seed) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<UncertifiedRelayProcess>(id, options, seed);
  };
}

}  // namespace dualrad::byz
