#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/ledger.hpp"
#include "campaign/scenario.hpp"

/// \file coordinator.hpp
/// The persistent campaign coordinator: a job queue of scenario x trial-range
/// work units with lease/ack/requeue semantics.
///
/// Dispatch is at-least-once: a unit leased to a worker that dies or stalls
/// past the lease timeout is requeued and reissued to the next worker that
/// asks. Commit is exactly-once, keyed by (scenario, trial): the rows live
/// in a campaign::Ledger (campaign/ledger.hpp), the same row path
/// run_campaign uses, so the first commit of a trial is journaled and
/// counted, a replay (from a requeued unit or a reconnecting worker
/// retransmitting unacked commits) equal to the committed row dedupes
/// silently, and a conflicting row throws. The coordinator itself keeps
/// only the work units and their leases.
///
/// Self-healing (PR 9):
///  - Adaptive leases: once enough units have completed, the lease window is
///    re-derived from observed unit wall times (p90 x slack, clamped), so a
///    slow scenario doesn't thrash on a static timeout and a fast one
///    doesn't wait 30 s to reissue after a worker dies.
///  - Poison quarantine: a unit whose lease expires `max_unit_expiries`
///    times is quarantined instead of requeued forever — the campaign
///    completes with an explicit quarantined manifest (finalize() exports
///    the committed subset) rather than livelocking. A late commit for a
///    quarantined unit is still accepted and can heal it back to Done.
///  - Speculative re-dispatch: when every unit is leased out, an idle worker
///    is handed a second copy of the unit closest to lease expiry (commit
///    dedup makes duplicate execution safe), cutting the straggler tail. At
///    most one speculative copy goes out per lease term.
///  - Journal degradation: a journal write failure disables checkpointing
///    (counted by the ledger and reported in status) but never fails the
///    commit — availability over durability; the on-disk prefix stays
///    recoverable. (A batch run_campaign fails instead.)
///
/// All public methods are thread-safe; the socket server calls them from one
/// thread per connection.

namespace dualrad::serve {

/// One work unit: a slice of a scenario's deterministic trial stream.
/// Every trial inside is individually addressable (and thus individually
/// retryable) as (scenario, trial index) under the campaign master seed.
struct JobSpec {
  std::uint64_t unit = 0;  ///< coordinator-local unit id
  std::string scenario;
  std::uint32_t trial_begin = 0;
  std::uint32_t trial_end = 0;  ///< exclusive
  std::uint64_t master_seed = 1;
  unsigned threads_per_trial = 1;
  bool collect_telemetry = false;
};

class Coordinator {
 public:
  struct Config {
    std::uint64_t master_seed = 1;
    /// When nonzero, overrides every scenario's trial count.
    std::size_t trials_override = 0;
    /// Trials per work unit (lease granularity). 0 means one unit per
    /// scenario; 1 maximizes retry granularity.
    std::uint32_t unit_trials = 4;
    /// Lease timeout: a unit not fully committed within this window is
    /// requeued. Sweeps run on every lease request, so expiry needs no
    /// dedicated thread. With `adaptive_lease`, this is only the STARTING
    /// window — once 8 units have completed, the window becomes p90(observed
    /// unit seconds) x 4, clamped to [0.05 s, 1 h].
    double lease_secs = 30.0;
    bool adaptive_lease = true;
    /// Quarantine threshold: a unit whose lease expires this many times is
    /// quarantined (reported, not requeued). 0 disables quarantine.
    std::uint32_t max_unit_expiries = 5;
    /// Append-only journal path; empty disables checkpointing.
    std::string journal_path;
    /// Load the journal before dispatching and skip committed trials.
    bool resume = false;
    /// Propagated to workers in every JobSpec.
    unsigned threads_per_trial = 1;
    bool collect_telemetry = false;
  };

  explicit Coordinator(Config config);

  /// Adjust per-campaign parameters ahead of load_campaign (used by the
  /// submit path). Throws if a campaign is in progress.
  void configure_campaign(std::uint64_t master_seed,
                          std::size_t trials_override);

  /// Install the campaign: a fresh ledger over its grid (validated like
  /// run_campaign's; with Config::resume, the journal's rows are committed
  /// before any unit is leased) replaces the previous one. Throws if a
  /// campaign is already loaded and not yet finished.
  void load_campaign(const std::vector<campaign::Scenario>& scenarios);

  [[nodiscard]] bool campaign_loaded() const;

  /// Register a worker (empty id requests a fresh one) and return its id.
  [[nodiscard]] std::string register_worker(const std::string& requested);

  /// Lease the next available unit; nullopt when nothing is leasable right
  /// now (all units leased or done — callers should retry or finish).
  [[nodiscard]] std::optional<JobSpec> lease(const std::string& worker);

  using Commit = campaign::Ledger::Commit;

  /// Commit one trial row through the ledger (campaign::Ledger::commit:
  /// seed check, journal, dedup; throws std::invalid_argument on unknown
  /// trials and std::runtime_error on a conflicting replay) and settle its
  /// unit's share of the work.
  Commit commit(const campaign::TrialRow& row);

  /// Record an out-of-band telemetry row (campaign::Ledger::add_telemetry:
  /// first one per trial wins, journaled so `--resume` can replay telemetry
  /// of crashed runs).
  void add_telemetry(const campaign::TelemetryRow& row);

  /// True when every unit is settled: Done, or Quarantined. A campaign with
  /// quarantined units is "done" in the liveness sense — nothing further
  /// will be dispatched — but finalize() reports the gap explicitly.
  [[nodiscard]] bool done() const;

  /// Block until the campaign completes (or `deadline` passes; zero waits
  /// forever). Returns done().
  bool wait_done(std::chrono::milliseconds timeout = {});

  struct Status {
    bool loaded = false;
    bool finished = false;
    std::size_t scenarios = 0;
    std::size_t total_trials = 0;
    std::size_t committed = 0;
    std::size_t resumed = 0;  ///< of `committed`, satisfied from the journal
    std::size_t units_pending = 0;
    std::size_t units_leased = 0;
    std::size_t units_done = 0;
    std::size_t units_quarantined = 0;
    std::size_t trials_quarantined = 0;  ///< uncommitted trials stuck there
    std::size_t workers = 0;
    std::size_t lease_expiries = 0;
    std::size_t speculative_dispatches = 0;
    std::size_t journal_errors = 0;
    /// The lease window new leases get right now, in milliseconds (adaptive
    /// once enough observations accumulate, else the static lease_secs).
    std::size_t lease_ms_effective = 0;
  };
  [[nodiscard]] Status status() const;

  /// One quarantined unit, for the explicit end-of-campaign manifest.
  struct QuarantinedUnit {
    std::string scenario;
    std::uint32_t trial_begin = 0;
    std::uint32_t trial_end = 0;   ///< exclusive
    std::uint32_t committed = 0;   ///< trials in range that DID commit
    std::uint32_t expiries = 0;    ///< lease expiries that condemned it
    std::string last_worker;       ///< last worker it was leased to
  };
  [[nodiscard]] std::vector<QuarantinedUnit> quarantined() const;

  /// Assemble the finished campaign (campaign::Ledger::result, untimed):
  /// byte-identical exports to a batch run_campaign of the same grid and
  /// master seed. Throws if !done(). With quarantined units, exports the
  /// committed subset — the quarantined() manifest names exactly what is
  /// missing.
  [[nodiscard]] campaign::CampaignResult finalize() const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  enum class UnitState { Pending, Leased, Done, Quarantined };

  struct Unit {
    std::size_t scenario = 0;
    std::uint32_t trial_begin = 0;
    std::uint32_t trial_end = 0;
    UnitState state = UnitState::Pending;
    std::chrono::steady_clock::time_point lease_start{};
    std::chrono::steady_clock::time_point lease_deadline{};
    std::string worker;
    std::uint32_t remaining = 0;  ///< uncommitted trials in range
    std::uint32_t expiries = 0;   ///< lease expiries so far (poison counter)
    bool speculated = false;      ///< a second copy is out this lease term
  };

  void sweep_expired_leases_locked();
  [[nodiscard]] bool settled_locked() const;
  [[nodiscard]] double lease_window_secs_locked() const;

  Config config_;
  mutable std::mutex mutex_;
  std::condition_variable done_cv_;

  /// The loaded campaign's rows; null until load_campaign.
  std::unique_ptr<campaign::Ledger> ledger_;
  std::vector<Unit> units_;
  std::vector<std::size_t> unit_of_job_;  ///< ledger slot -> unit
  std::size_t next_worker_ = 0;
  std::size_t workers_seen_ = 0;
  std::size_t lease_expiries_ = 0;
  std::size_t speculative_ = 0;
  /// Wall seconds of completed units, for the adaptive lease p90.
  std::vector<double> unit_secs_;
};

}  // namespace dualrad::serve
