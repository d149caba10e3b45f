#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/engine.hpp"
#include "serve/checkpoint.hpp"

/// \file ledger.hpp
/// The one row path of a campaign. run_campaign and the serve coordinator
/// both keep their rows in a Ledger, so a batch run, a distributed run and a
/// resume of either from the other's journal export the same bytes.
///
/// A ledger fills each (scenario, trial) slot of its grid exactly once. A
/// row must carry the derived trial_seed; a replay equal to the committed
/// row, wall_us aside, is a Duplicate, and any other row for a filled slot
/// throws, because two honest executions of one trial never differ. First
/// commits and telemetry rows are appended to the checkpoint journal
/// (serve/checkpoint.hpp). Not thread-safe: callers serialize.

namespace dualrad::campaign {

/// (scenario name, trial count) in registration order. Slot i of a ledger
/// is the i-th (scenario, trial) pair walking it in order.
using CampaignGrid = std::vector<std::pair<std::string, std::size_t>>;

/// The grid of `scenarios`; a nonzero `trials_override` replaces every
/// scenario's own trial count.
[[nodiscard]] CampaignGrid campaign_grid(const std::vector<Scenario>& scenarios,
                                         std::size_t trials_override);

class Ledger {
 public:
  enum class Commit { Accepted, Duplicate };

  /// Validates the grid before allocating any slot: unique names and 1 to
  /// 2^32-1 trials per scenario (std::invalid_argument). A nonempty
  /// `journal_path` is opened for append; with `resume` its rows (and its
  /// telemetry rows, when collected) are committed first.
  Ledger(CampaignGrid grid, std::uint64_t master_seed, bool collect_telemetry,
         const std::string& journal_path = {}, bool resume = false);

  /// Throws std::invalid_argument for a scenario outside the grid, a trial
  /// out of range or a seed other than trial_seed, and std::runtime_error
  /// for a row that conflicts with the committed one. A failed journal
  /// append stops journaling and is counted, but the row stays committed.
  Commit commit(const TrialRow& row);

  /// The first telemetry row per slot wins and is journaled. Rows outside
  /// the grid, and all rows when telemetry is not collected, are ignored.
  void add_telemetry(const TelemetryRow& row);

  /// Throws std::invalid_argument outside the grid.
  [[nodiscard]] std::size_t slot(std::string_view scenario,
                                 std::uint32_t trial) const;

  [[nodiscard]] const CampaignGrid& grid() const { return grid_; }
  [[nodiscard]] std::uint64_t master_seed() const { return master_seed_; }
  [[nodiscard]] std::size_t slots() const { return filled_.size(); }
  [[nodiscard]] bool committed(std::size_t slot) const {
    return filled_[slot] != 0;
  }
  [[nodiscard]] std::size_t committed() const { return committed_; }
  /// Of committed(), the rows replayed from the journal.
  [[nodiscard]] std::size_t resumed() const { return resumed_; }
  [[nodiscard]] std::size_t journal_errors() const { return journal_errors_; }
  /// The first journal failure's message.
  [[nodiscard]] const std::string& journal_error() const {
    return journal_error_;
  }

  /// The committed rows in slot order, one summary per scenario (`timed`
  /// averages mean_wall_ms over rows with wall_us >= 0) and the telemetry
  /// rows. With empty slots this is the committed subset: counts shrink to
  /// match, and a scenario without rows has no summary. The rvalue
  /// overload moves the rows out.
  [[nodiscard]] CampaignResult result(bool timed) const&;
  [[nodiscard]] CampaignResult result(bool timed) &&;

 private:
  [[nodiscard]] CampaignResult assemble(
      std::vector<TrialRow> rows,
      std::vector<std::optional<TelemetryRow>> telemetry, bool timed) const;
  template <class Row>
  void journal(const Row& row);

  CampaignGrid grid_;
  std::uint64_t master_seed_ = 0;
  std::vector<std::size_t> first_;  ///< slot of each scenario's trial 0
  std::map<std::string, std::size_t, std::less<>> by_name_;
  std::vector<TrialRow> rows_;
  std::vector<char> filled_;
  /// Sized only when telemetry is collected.
  std::vector<std::optional<TelemetryRow>> telemetry_;
  std::size_t committed_ = 0;
  std::size_t resumed_ = 0;
  serve::JournalWriter journal_;
  std::size_t journal_errors_ = 0;
  std::string journal_error_;
};

}  // namespace dualrad::campaign
