#include "mac/decay_mac.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "core/rng.hpp"

namespace dualrad::mac {

Round decay_mac_run_length(NodeId n) {
  const Round phase = decay_phase_length(n);
  return phase * phase;
}

namespace {

/// The Process that hosts a MacClient over the Decay contention manager.
/// All mutable state changes in on_activate / on_receive, keeping
/// next_action pure (the core purity contract).
class DecayMacProcess final : public Process, public AbstractMac {
 public:
  DecayMacProcess(ProcessId id, NodeId n, std::uint64_t seed, Round phase,
                  Round run_length, std::unique_ptr<MacClient> client)
      : Process(id),
        n_(n),
        phase_(phase),
        run_length_(run_length),
        rng_(seed),
        client_(std::move(client)) {
    DUALRAD_CHECK(client_ != nullptr, "DecayMac needs a client");
  }

  DecayMacProcess(const DecayMacProcess& other)
      : Process(other),
        n_(other.n_),
        phase_(other.phase_),
        run_length_(other.run_length_),
        rng_(other.rng_),
        client_(other.client_->clone()),
        queue_(other.queue_),
        active_(other.active_),
        active_bcast_round_(other.active_bcast_round_),
        run_start_(other.run_start_),
        callback_round_(other.callback_round_),
        acks_(other.acks_),
        ack_max_(other.ack_max_),
        ack_sum_(other.ack_sum_) {}

  // --- Process ---------------------------------------------------------

  void on_activate(Round round,
                   const std::optional<Message>& initial) override {
    callback_round_ = round;
    client_->on_mac_start(*this, round, initial);
  }

  [[nodiscard]] Action next_action(Round round) const override {
    if (!active_.has_value() || round < run_start_ ||
        round >= run_start_ + run_length_) {
      return Action::silent();
    }
    // Decay's coin, drawn from the same counter stream as
    // algorithms/decay.cpp.
    if (!rng_.bernoulli(decay_probability(round, phase_), round)) {
      return Action::silent();
    }
    return Action::transmit(*active_);
  }

  void on_receive(Round round, const Reception& reception) override {
    callback_round_ = round;
    // Deliver the reception first (it may enqueue new bcasts), then close
    // out a run that ends this round.
    if (reception.is_message() && reception.message->origin != id()) {
      client_->on_mac_receive(*this, round, *reception.message);
    }
    if (active_.has_value() && round == run_start_ + run_length_ - 1) {
      const Message done = *active_;
      const auto latency = static_cast<double>(round - active_bcast_round_);
      ++acks_;
      ack_max_ = std::max(ack_max_, latency);
      // lint: fp-ok (per-process state, updated in round order by one shard)
      ack_sum_ += latency;
      if (queue_.empty()) {
        active_.reset();
      } else {
        active_ = queue_.front().first;
        active_bcast_round_ = queue_.front().second;
        queue_.pop_front();
        run_start_ = round + 1;
      }
      client_->on_mac_ack(*this, round, done);
    }
  }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<DecayMacProcess>(*this);
  }

  [[nodiscard]] std::vector<ProcessMetric> final_metrics() const override {
    return {{kMacAckCountMetric, static_cast<double>(acks_)},
            {kMacAckMaxMetric, acks_ > 0 ? ack_max_ : -1.0},
            {kMacAckSumMetric, ack_sum_},
            {kMacPendingMetric, static_cast<double>(pending())}};
  }

  // --- AbstractMac ------------------------------------------------------

  [[nodiscard]] ProcessId mac_id() const override { return id(); }
  [[nodiscard]] NodeId mac_n() const override { return n_; }

  void bcast(const Message& message) override {
    if (active_.has_value()) {
      queue_.emplace_back(message, callback_round_);
    } else {
      active_ = message;
      active_bcast_round_ = callback_round_;
      run_start_ = callback_round_ + 1;
    }
  }

  [[nodiscard]] std::size_t pending() const override {
    return queue_.size() + (active_.has_value() ? 1 : 0);
  }

 private:
  NodeId n_;
  Round phase_;
  Round run_length_;
  CounterRng rng_;
  std::unique_ptr<MacClient> client_;
  /// Queued (message, bcast round) pairs behind the active one.
  std::deque<std::pair<Message, Round>> queue_{};
  std::optional<Message> active_{};
  Round active_bcast_round_ = kNever;
  Round run_start_ = kNever;
  /// Round of the callback currently executing; bcast() may only be called
  /// from inside client callbacks.
  Round callback_round_ = kNever;
  std::uint64_t acks_ = 0;
  double ack_max_ = 0.0;
  double ack_sum_ = 0.0;
};

}  // namespace

ProcessFactory make_decay_mac_factory(NodeId n,
                                      MacClientFactory client_factory) {
  DUALRAD_REQUIRE(static_cast<bool>(client_factory),
                  "DecayMac needs a client factory");
  const Round phase = decay_phase_length(n);
  const Round run_length = decay_mac_run_length(n);
  return [n, phase, run_length, client_factory = std::move(client_factory)](
             ProcessId id, NodeId n_arg,
             std::uint64_t seed) -> std::unique_ptr<Process> {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<DecayMacProcess>(
        id, n, seed, phase, run_length,
        client_factory(id, n, mix_seed(seed, 0xC11E)));
  };
}

}  // namespace dualrad::mac
