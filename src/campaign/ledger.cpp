#include "campaign/ledger.hpp"

#include <exception>
#include <span>
#include <stdexcept>
#include <utility>

namespace dualrad::campaign {

namespace {

/// Round statistics over completed rows, failures, means over all rows, and
/// the mean wall time of the timed rows.
[[nodiscard]] ScenarioSummary summarize(const std::string& name,
                                        std::span<const TrialRow> rows,
                                        bool timed) {
  ScenarioSummary summary;
  summary.scenario = name;
  summary.trials = rows.size();
  std::vector<double> rounds;
  double sends = 0.0, collisions = 0.0, wall_us = 0.0;
  std::size_t timed_rows = 0;
  for (const TrialRow& row : rows) {
    if (row.completed) {
      rounds.push_back(static_cast<double>(row.rounds));
    } else {
      ++summary.failures;
    }
    sends += static_cast<double>(row.sends);
    collisions += static_cast<double>(row.collisions);
    if (row.wall_us >= 0) {
      wall_us += static_cast<double>(row.wall_us);
      ++timed_rows;
    }
  }
  summary.rounds = stats::summarize(std::move(rounds));
  summary.mean_sends = sends / static_cast<double>(rows.size());
  summary.mean_collisions = collisions / static_cast<double>(rows.size());
  if (timed && timed_rows > 0) {
    summary.mean_wall_ms = wall_us / 1000.0 / static_cast<double>(timed_rows);
  }
  return summary;
}

}  // namespace

CampaignGrid campaign_grid(const std::vector<Scenario>& scenarios,
                           std::size_t trials_override) {
  CampaignGrid grid;
  grid.reserve(scenarios.size());
  for (const Scenario& s : scenarios) {
    grid.emplace_back(s.name,
                      trials_override != 0 ? trials_override : s.trials);
  }
  return grid;
}

Ledger::Ledger(CampaignGrid grid, std::uint64_t master_seed,
               bool collect_telemetry, const std::string& journal_path,
               bool resume)
    : grid_(std::move(grid)), master_seed_(master_seed) {
  std::size_t total = 0;
  for (const auto& [name, trials] : grid_) {
    // Duplicate names would share a seed stream (correlated trials) and one
    // summary; trial indices travel as 32-bit integers.
    DUALRAD_REQUIRE(by_name_.emplace(name, first_.size()).second,
                    "duplicate scenario name in campaign: " + name);
    DUALRAD_REQUIRE(trials >= 1,
                    "scenario '" + name + "' needs at least one trial");
    DUALRAD_REQUIRE(trials <= 0xFFFFFFFFull,
                    "scenario '" + name + "' trial count exceeds 2^32 - 1");
    first_.push_back(total);
    total += trials;
  }
  rows_.resize(total);
  filled_.assign(total, 0);
  if (collect_telemetry) telemetry_.resize(total);

  if (resume) {
    DUALRAD_REQUIRE(!journal_path.empty(), "resume requires a journal path");
    // The journal is not open yet, so replayed rows are not appended again.
    const serve::JournalLoad load = serve::load_journal(journal_path);
    for (const TrialRow& row : load.rows) (void)commit(row);
    for (const TelemetryRow& row : load.telemetry) add_telemetry(row);
    resumed_ = committed_;
  }
  if (!journal_path.empty()) journal_.open(journal_path);
}

std::size_t Ledger::slot(std::string_view scenario,
                         std::uint32_t trial) const {
  const auto it = by_name_.find(scenario);
  DUALRAD_REQUIRE(it != by_name_.end(),
                  "row for unknown scenario: " + std::string(scenario));
  DUALRAD_REQUIRE(trial < grid_[it->second].second,
                  "row trial out of range in " + std::string(scenario));
  return first_[it->second] + trial;
}

Ledger::Commit Ledger::commit(const TrialRow& row) {
  const std::size_t at = slot(row.scenario, row.trial);
  DUALRAD_REQUIRE(
      row.seed == trial_seed(master_seed_, row.scenario, row.trial),
      "row seed mismatch (wrong master seed or journal?) in " + row.scenario);
  if (filled_[at] != 0) {
    TrialRow untimed = row;
    untimed.wall_us = rows_[at].wall_us;
    if (untimed == rows_[at]) return Commit::Duplicate;
    throw std::runtime_error(
        "dualrad: conflicting rows for " + row.scenario + "#" +
        std::to_string(row.trial) +
        " — byte-identity contract violated (mismatched binary or grid?)");
  }
  journal(row);
  rows_[at] = row;
  filled_[at] = 1;
  ++committed_;
  return Commit::Accepted;
}

void Ledger::add_telemetry(const TelemetryRow& row) {
  if (telemetry_.empty()) return;
  const auto it = by_name_.find(row.scenario);
  if (it == by_name_.end() || row.trial >= grid_[it->second].second) return;
  std::optional<TelemetryRow>& held =
      telemetry_[first_[it->second] + row.trial];
  if (held.has_value()) return;
  held = row;
  journal(row);
}

template <class Row>
void Ledger::journal(const Row& row) {
  if (!journal_.is_open()) return;
  try {
    journal_.append(row);
  } catch (const std::exception& e) {
    // The on-disk prefix stays a valid journal (whole-line appends tear at
    // most the tail), so stop journaling and let the caller decide: the
    // coordinator keeps committing, run_campaign fails the run.
    journal_.close();
    ++journal_errors_;
    if (journal_error_.empty()) journal_error_ = e.what();
  }
}

CampaignResult Ledger::result(bool timed) const& {
  return assemble(rows_, telemetry_, timed);
}

CampaignResult Ledger::result(bool timed) && {
  return assemble(std::move(rows_), std::move(telemetry_), timed);
}

CampaignResult Ledger::assemble(
    std::vector<TrialRow> rows,
    std::vector<std::optional<TelemetryRow>> telemetry, bool timed) const {
  CampaignResult result;
  result.resumed = resumed_;
  // Compact the filled slots to the front, scenario by scenario; with every
  // slot filled nothing moves.
  std::size_t kept = 0;
  for (std::size_t si = 0; si < grid_.size(); ++si) {
    const std::size_t begin = kept;
    for (std::size_t at = first_[si]; at < first_[si] + grid_[si].second;
         ++at) {
      if (filled_[at] == 0) continue;
      if (kept != at) rows[kept] = std::move(rows[at]);
      ++kept;
    }
    if (kept == begin) continue;
    result.summaries.push_back(summarize(
        grid_[si].first,
        std::span<const TrialRow>(rows).subspan(begin, kept - begin), timed));
  }
  rows.resize(kept);
  result.trials = std::move(rows);
  for (std::optional<TelemetryRow>& row : telemetry) {
    if (row.has_value()) result.telemetry.push_back(std::move(*row));
  }
  return result;
}

}  // namespace dualrad::campaign
