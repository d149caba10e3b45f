#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "algorithms/broadcast_algorithm.hpp"
#include "core/rng.hpp"

/// \file coin_schedule.hpp
/// The counter-coin send schedule every randomized broadcast process runs:
/// Decay (decay.hpp), Harmonic Broadcast (harmonic.hpp), uniform gossip
/// (uniform_gossip.hpp) and the Byzantine relays (byz/cpa.hpp).
///
/// A process on this schedule has a start round s: the round it got the
/// token, or first accepted or adopted one. From round s + 1 on, in every
/// round r its duty cycle keeps on air, it sends iff a counter coin
/// (core/rng.hpp, salt 0) with probability p(r, s) comes up. The coins are
/// pure functions of (seed, r), so the next send is computable exactly:
/// CoinSchedule::next_send draws the coins the per-round poll would draw,
/// skips quiet stretches of the duty cycle arithmetically, and memoizes its
/// answer. The memo needs no invalidation, because no process asks before
/// its s is fixed and s never moves afterwards.

namespace dualrad {

/// When a process is on air, counted in rounds since its start round s:
/// the first `active_rounds` rounds after s, then the first `beacon_rounds`
/// rounds of every `beacon_period` (an anti-entropy beacon, staggered
/// across nodes by their s). active_rounds == 0 keeps the process on air
/// forever; beacon_period == 0 makes it go quiet for good afterwards.
struct DutyCycle {
  Round active_rounds = 0;
  Round beacon_rounds = 1;
  Round beacon_period = 0;

  [[nodiscard]] bool on_air(Round start, Round round) const {
    if (start == kNever || round <= start) return false;
    const Round since = round - start - 1;
    if (active_rounds <= 0 || since < active_rounds) return true;
    return beacon_period > 0 && since % beacon_period < beacon_rounds;
  }

  /// The first on-air round at or after `round` (> start); kNever if the
  /// process is quiet for good.
  [[nodiscard]] Round next_on_air(Round start, Round round) const {
    if (on_air(start, round)) return round;
    if (beacon_period <= 0) return kNever;
    const Round since = round - start - 1;
    const Round periods = (since + beacon_period - 1) / beacon_period;
    return start + periods * beacon_period + 1;
  }
};

/// The constant probability of uniform gossip and the Byzantine relays.
struct FlatProbability {
  double p = 0.0;

  [[nodiscard]] double operator()(Round /*round*/, Round /*start*/) const {
    return p;
  }
};

/// One process's schedule: a duty cycle, a probability p(round, start), the
/// process's coins, and the memo of its last next_send scan. `kMaxCoins`,
/// when positive, caps the coins one scan draws; after that many quiet
/// coins next_send names the round after the last one, an over-promise the
/// engine answers by asking again there.
template <class Probability, Round kMaxCoins = 0>
class CoinSchedule {
 public:
  CoinSchedule(DutyCycle duty, Probability p, std::uint64_t seed)
      : duty_(duty), p_(p), rng_(seed) {}

  /// The process's coins, for draws beside the send coin (other salts).
  [[nodiscard]] const CounterRng& rng() const { return rng_; }

  /// Whether a process with start round `start` (kNever: none yet) sends in
  /// `round`.
  [[nodiscard]] bool sends(Round start, Round round) const {
    return duty_.on_air(start, round) &&
           rng_.bernoulli(p_(round, start), round);
  }

  /// The first round >= `from` in which the process sends; kNever if it
  /// never sends again (or has no start round yet).
  [[nodiscard]] Round next_send(Round start, Round from) const {
    if (start == kNever) return kNever;
    from = std::max(from, start + 1);
    if (memo_next_ != kUnplanned && from >= memo_from_ &&
        (memo_next_ == kNever || from <= memo_next_)) {
      return memo_next_;
    }
    return scan(start, from);
  }

 private:
  static constexpr Round kUnplanned = -2;

  [[nodiscard]] Round scan(Round start, Round from) const {
    Round coins = 0;
    Round r = duty_.next_on_air(start, from);
    for (; r != kNever; r = duty_.next_on_air(start, r + 1)) {
      if (rng_.bernoulli(p_(r, start), r)) break;
      if (kMaxCoins > 0 && ++coins == kMaxCoins) return r + 1;
    }
    memo_from_ = from;
    memo_next_ = r;
    return r;
  }

  DutyCycle duty_;
  Probability p_;
  CounterRng rng_;
  /// The next send >= memo_from_, or kUnplanned before the first scan.
  mutable Round memo_from_ = 0;
  mutable Round memo_next_ = kUnplanned;
};

/// A broadcast process that sends the token on a CoinSchedule started at
/// its token round: Decay, Harmonic Broadcast and uniform gossip.
template <class Probability, Round kMaxCoins = 0>
class CoinProcess final : public TokenProcess {
 public:
  CoinProcess(ProcessId id,
              const CoinSchedule<Probability, kMaxCoins>& schedule)
      : TokenProcess(id), schedule_(schedule) {}
  CoinProcess(const CoinProcess&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    if (!schedule_.sends(token_round(), round)) return Action::silent();
    return Action::transmit(Message{/*token=*/true, /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  [[nodiscard]] Round next_send_round(Round from) const override {
    return schedule_.next_send(token_round(), from);
  }

  /// State is the token round only; silence receptions are no-ops.
  [[nodiscard]] bool silence_transparent() const override { return true; }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<CoinProcess>(*this);
  }

 private:
  CoinSchedule<Probability, kMaxCoins> schedule_;
};

/// The factory of n CoinProcesses on `duty` and `p`, process i keyed by the
/// seed the engine hands it.
template <Round kMaxCoins = 0, class Probability>
[[nodiscard]] ProcessFactory make_coin_factory(NodeId n, DutyCycle duty,
                                               Probability p) {
  return [n, duty, p](ProcessId id, NodeId n_arg, std::uint64_t seed) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<CoinProcess<Probability, kMaxCoins>>(
        id, CoinSchedule<Probability, kMaxCoins>(duty, p, seed));
  };
}

}  // namespace dualrad
