#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/scenario.hpp"
#include "core/simulator.hpp"
#include "stats/stats.hpp"

/// \file engine.hpp
/// The parallel trial executor.
///
/// A campaign is the cross product (scenario x trial index). The engine
/// builds each scenario's network and process factory once, flattens all
/// trials into one job list, and fans the jobs out over a worker pool.
/// Determinism contract: every trial's result depends only on
/// (scenario spec, master seed, trial index) — each trial gets a fresh
/// adversary from the scenario's factory and a seed from an independent
/// counter-mixed stream (core/rng.hpp), and rows are committed to the
/// grid slots of a campaign::Ledger (campaign/ledger.hpp) — so campaign
/// output is *bit-identical* for any worker count, including 1.

namespace dualrad::campaign {

/// One completed trial, in export-ready form. All fields are integral so
/// CSV/JSONL round-trips are exact.
struct TrialRow {
  std::string scenario;
  std::uint32_t trial = 0;        ///< trial index within the scenario
  std::uint64_t seed = 0;         ///< derived seed this trial ran under
  bool completed = false;
  Round rounds = kNever;          ///< completion round, kNever if not reached
  Round rounds_executed = 0;
  std::uint64_t sends = 0;
  std::uint64_t collisions = 0;   ///< observed collision events (see
                                  ///< SimResult::total_collision_events)
  std::int32_t tokens = 1;        ///< broadcast tokens in the execution
  /// Wall time of the trial in microseconds; -1 unless
  /// CampaignConfig::measure_wall_time was set. Deliberately OUTSIDE the
  /// determinism contract: it varies run to run and is only exported when
  /// explicitly requested (export.hpp `include_timing`).
  std::int64_t wall_us = -1;

  friend bool operator==(const TrialRow&, const TrialRow&) = default;
};

/// One trial's telemetry digest (phase times + hot-path counter totals from
/// obs::RoundTelemetry), produced only when CampaignConfig::collect_telemetry
/// is set. Like wall_us, the phase times are nondeterministic and live
/// OUTSIDE the determinism contract — they are exported to a separate
/// opt-in JSONL stream (export.hpp telemetry_to_jsonl) and never touch the
/// default exports.
struct TelemetryRow {
  std::string scenario;
  std::uint32_t trial = 0;
  std::int64_t wall_us = -1;
  // Per-phase wall time (nanoseconds), summed over all rounds.
  std::uint64_t poll_ns = 0;
  std::uint64_t adversary_ns = 0;
  std::uint64_t propagate_ns = 0;
  std::uint64_t deliver_ns = 0;
  std::uint64_t merge_ns = 0;
  // Counter totals (deterministic: equal for any thread count).
  std::uint64_t polled = 0;
  std::uint64_t senders = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t calendar_scanned = 0;
  std::uint64_t replans = 0;
  std::uint64_t reach_appends = 0;
  std::uint64_t newly_covered = 0;
  std::uint64_t max_round_deliveries = 0;

  friend bool operator==(const TelemetryRow&, const TelemetryRow&) = default;
};

/// Per-scenario aggregate over its trials. Round statistics are over
/// *completed* trials only; `failures` counts the rest.
struct ScenarioSummary {
  std::string scenario;
  std::size_t trials = 0;
  std::size_t failures = 0;
  stats::Summary rounds{};        ///< count == trials - failures
  double mean_sends = 0.0;        ///< over all trials
  double mean_collisions = 0.0;   ///< over all trials
  /// Mean wall time in milliseconds of the trials that were timed; -1 when
  /// none was (timing off, or every trial replayed from a journal).
  double mean_wall_ms = -1.0;
};

struct CampaignResult {
  /// All trial rows, ordered (scenario registration order, trial index).
  std::vector<TrialRow> trials;
  /// One summary per scenario, in scenario order.
  std::vector<ScenarioSummary> summaries;
  /// Telemetry rows of the trials that have one, in `trials` order; empty
  /// unless CampaignConfig::collect_telemetry was set.
  std::vector<TelemetryRow> telemetry;
  /// True iff the run stopped early on CampaignConfig::cancel. `trials`
  /// then holds only the committed rows (journaled ones included), and
  /// `summaries` is left empty.
  bool cancelled = false;
  /// Rows replayed from the checkpoint journal instead of run
  /// (CampaignConfig::resume); they are part of `trials`.
  std::size_t resumed = 0;
};

struct CampaignConfig {
  std::uint64_t master_seed = 1;
  /// Worker threads; 0 means hardware_concurrency (at least 1). The result
  /// does not depend on this.
  unsigned threads = 0;
  /// SimConfig::threads of every trial: the sharded parallel round kernel
  /// *within* one execution. Orthogonal to `threads` (trials x intra-trial
  /// shards run concurrently); the result does not depend on it either —
  /// the kernel's shard merge is deterministic, and tests/test_campaign.cpp
  /// pins byte-identical exports across values.
  unsigned threads_per_trial = 1;
  /// When nonzero, overrides every scenario's trial count.
  std::size_t trials_override = 0;
  /// Record per-trial wall time into TrialRow::wall_us (and summary
  /// mean_wall_ms). Off by default because timing is inherently
  /// nondeterministic; simulation results are unaffected either way.
  bool measure_wall_time = false;
  /// Attach an obs::RoundTelemetry to every trial and fill
  /// CampaignResult::telemetry. The simulation results and default exports
  /// are bit-identical either way (pinned in tests) — telemetry is strictly
  /// out-of-band.
  bool collect_telemetry = false;
  /// When nonzero, a progress heartbeat is printed to stderr every this many
  /// seconds: trials done/total, aggregate simulated rounds/s, ETA, and the
  /// process's current RSS. Purely cosmetic; never touches results.
  unsigned heartbeat_secs = 0;
  /// SimConfig::trace of every trial. None (the default) keeps trials lean;
  /// observers that re-verify executions (e.g. the trace auditor behind
  /// dualrad_campaign --audit) need TraceLevel::Compressed here. Trial rows
  /// and default exports are identical for both levels — traces ride on the
  /// SimResult handed to `observer` and are dropped after it.
  TraceLevel trial_trace = TraceLevel::None;
  /// Optional per-trial observer with access to the full SimResult (e.g. for
  /// audits that need first_token). Called from worker threads but
  /// serialized by the engine; completion order is scheduling-dependent, so
  /// observers must fold results order-independently.
  std::function<void(const Scenario& scenario, const TrialRow& row,
                     const SimResult& result)>
      observer;
  /// Checkpoint journal (serve/checkpoint.hpp): each committed row, and its
  /// telemetry row when collected, is appended and fsynced; a failed append
  /// fails the run. Empty disables checkpointing.
  std::string journal_path;
  /// Replay `journal_path` first and run only the trials it lacks. Its seeds
  /// must match (std::invalid_argument otherwise), and the exports equal an
  /// uninterrupted run's.
  bool resume = false;
  /// Cooperative cancellation (e.g. from a SIGINT handler): when the pointee
  /// becomes true, workers stop claiming new trials, in-flight trials finish
  /// and commit (and are journaled), and run_campaign returns with
  /// CampaignResult::cancelled set instead of computing summaries.
  const std::atomic<bool>* cancel = nullptr;
};

/// Per-trial execution options of TrialExecutor (the serve-mode work-unit
/// runner). Mirrors the corresponding CampaignConfig fields.
struct TrialOptions {
  unsigned threads_per_trial = 1;
  bool measure_wall_time = false;
  /// SimConfig::telemetry of the trial: nullptr, or a fresh registry that
  /// outlives run(). When set, Outcome::telemetry digests it.
  obs::RoundTelemetry* telemetry = nullptr;
  /// SimConfig::trace of the trial (see CampaignConfig::trial_trace).
  TraceLevel trace = TraceLevel::None;
};

/// One scenario prepared for individually-addressed trial execution: the
/// network and process factory are built once (eagerly, validating the
/// builders), then (master_seed, trial index) -> TrialRow is a pure
/// function — the exact function the batch engine computes, so a trial run
/// here is byte-identical to the same trial inside run_campaign. This is the
/// library API the serve-mode worker pool drives; run() is const and
/// thread-safe.
class TrialExecutor {
 public:
  /// Copies the scenario spec (cheap: a handful of std::functions), builds
  /// the network and factory. Throws std::invalid_argument on unset builders
  /// or a null factory.
  TrialExecutor(const Scenario& scenario, std::uint64_t master_seed);

  struct Outcome {
    TrialRow row;
    /// Filled only when TrialOptions::telemetry was set.
    TelemetryRow telemetry;
    /// The full simulation result (for observers / audits).
    SimResult sim;
  };

  [[nodiscard]] Outcome run(std::uint32_t trial,
                            const TrialOptions& options = {}) const;

  [[nodiscard]] const Scenario& scenario() const { return spec_; }
  [[nodiscard]] std::uint64_t master_seed() const { return master_seed_; }

 private:
  Scenario spec_;
  std::uint64_t master_seed_ = 0;
  std::uint64_t stream_ = 0;
  DualGraph net_;
  ProcessFactory factory_;
};

/// Seed stream of a scenario under a master seed: mixes the master with an
/// FNV-1a hash of the name, so a scenario's trials are independent of which
/// other scenarios run alongside it.
[[nodiscard]] std::uint64_t scenario_stream(std::uint64_t master_seed,
                                            std::string_view name);

/// The simulator seed of one trial.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t master_seed,
                                       std::string_view name,
                                       std::size_t trial);

/// Run all trials of all scenarios. Throws std::invalid_argument on an
/// ill-formed scenario; exceptions thrown inside trials are rethrown after
/// the pool drains.
[[nodiscard]] CampaignResult run_campaign(const std::vector<Scenario>& scenarios,
                                          const CampaignConfig& config = {});

/// Summary lookup by scenario name; nullptr if absent.
[[nodiscard]] const ScenarioSummary* find_summary(const CampaignResult& result,
                                                  std::string_view name);

}  // namespace dualrad::campaign
