#include "algorithms/scheduled.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>

#include "algorithms/broadcast_algorithm.hpp"

namespace dualrad {
namespace {

/// One schedule, shared by every process it drives: the period, and each
/// process id's slot offsets within a period, ascending and laid out
/// CSR-style (id i's are offsets[first[i] .. first[i+1])), so building a
/// process costs O(its own slots), not O(period).
struct Schedule {
  Round period = 0;
  std::vector<std::size_t> first;
  std::vector<Round> offsets;
};

class ScheduledProcess final : public TokenProcess {
 public:
  ScheduledProcess(ProcessId id, std::shared_ptr<const Schedule> schedule)
      : TokenProcess(id), schedule_(std::move(schedule)) {
    const auto i = static_cast<std::size_t>(id);
    my_slots_ = std::span<const Round>(schedule_->offsets)
                    .subspan(schedule_->first[i],
                             schedule_->first[i + 1] - schedule_->first[i]);
  }
  ScheduledProcess(const ScheduledProcess&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    if (!has_token() || round <= token_round() ||
        !std::binary_search(my_slots_.begin(), my_slots_.end(),
                            (round - 1) % schedule_->period)) {
      return Action::silent();
    }
    return Action::transmit(Message{/*token=*/true, /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  /// Exact hint: the first round >= `from` whose slot names this process;
  /// kNever for processes the schedule omits entirely.
  [[nodiscard]] Round next_send_round(Round from) const override {
    if (!has_token() || my_slots_.empty()) return kNever;
    from = std::max(from, token_round() + 1);
    const Round period = schedule_->period;
    const Round offset = (from - 1) % period;
    Round cycle_start = from - 1 - offset;  // round before this period began
    auto it = std::lower_bound(my_slots_.begin(), my_slots_.end(), offset);
    if (it == my_slots_.end()) {
      cycle_start += period;
      it = my_slots_.begin();
    }
    return cycle_start + *it + 1;
  }

  /// State is the token round only; silence receptions are no-ops.
  [[nodiscard]] bool silence_transparent() const override { return true; }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<ScheduledProcess>(*this);
  }

 private:
  std::shared_ptr<const Schedule> schedule_;
  std::span<const Round> my_slots_;  ///< into schedule_->offsets
};

/// The factory over the schedule whose slot s sends senders(s), s < period.
/// Counting sort of the (slot, id) pairs by id: count, sum each id's bucket
/// end, then fill backwards so every bucket ascends and first[i] ends up at
/// its start.
template <class Senders>
ProcessFactory make_factory(NodeId n, std::size_t period, Senders senders) {
  DUALRAD_REQUIRE(period > 0, "schedule must be non-empty");
  auto schedule = std::make_shared<Schedule>();
  schedule->period = static_cast<Round>(period);
  std::vector<std::size_t>& first = schedule->first;
  first.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t s = 0; s < period; ++s) {
    for (const ProcessId p : senders(s)) {
      DUALRAD_REQUIRE(p >= 0 && p < n, "schedule entry out of range");
      ++first[static_cast<std::size_t>(p)];
    }
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  schedule->offsets.resize(first.back());
  for (std::size_t s = period; s-- > 0;) {
    for (const ProcessId p : senders(s)) {
      schedule->offsets[--first[static_cast<std::size_t>(p)]] =
          static_cast<Round>(s);
    }
  }
  return [shared = std::shared_ptr<const Schedule>(std::move(schedule)), n](
             ProcessId id, NodeId n_arg, std::uint64_t /*seed*/) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    DUALRAD_REQUIRE(id >= 0 && id < n, "process id out of range");
    return std::make_unique<ScheduledProcess>(id, shared);
  };
}

}  // namespace

ProcessFactory make_scheduled_factory(NodeId n, std::vector<ProcessId> slots) {
  return make_factory(n, slots.size(), [&slots](std::size_t s) {
    return std::span<const ProcessId>(&slots[s], 1);
  });
}

ProcessFactory make_scheduled_factory(NodeId n, const SsfFamily& family) {
  DUALRAD_REQUIRE(family.universe() == n,
                  "selector family over a different universe");
  return make_factory(n, family.size(), [&family](std::size_t s) {
    return std::span<const NodeId>(family.set(s));
  });
}

}  // namespace dualrad
