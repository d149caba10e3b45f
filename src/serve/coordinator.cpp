#include "serve/coordinator.hpp"

#include <algorithm>
#include <utility>

namespace dualrad::serve {
namespace {

/// The adaptive lease window: p90 of the observed unit wall times times
/// kLeaseSlack, once kLeaseObservations units have completed, clamped to
/// [kLeaseFloorSecs, kLeaseCeilSecs].
constexpr double kLeaseSlack = 4.0;
constexpr std::size_t kLeaseObservations = 8;
constexpr double kLeaseFloorSecs = 0.05;
constexpr double kLeaseCeilSecs = 3600.0;

}  // namespace

Coordinator::Coordinator(Config config) : config_(std::move(config)) {
  DUALRAD_REQUIRE(config_.lease_secs > 0.0, "lease_secs must be positive");
}

void Coordinator::configure_campaign(std::uint64_t master_seed,
                                     std::size_t trials_override) {
  const std::lock_guard<std::mutex> lock(mutex_);
  DUALRAD_REQUIRE(!ledger_ || settled_locked(),
                  "cannot reconfigure mid-campaign");
  config_.master_seed = master_seed;
  config_.trials_override = trials_override;
}

void Coordinator::load_campaign(
    const std::vector<campaign::Scenario>& scenarios) {
  campaign::CampaignGrid grid;
  std::uint64_t master_seed = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    DUALRAD_REQUIRE(!ledger_ || settled_locked(),
                    "a campaign is already in progress");
    grid = campaign::campaign_grid(scenarios, config_.trials_override);
    master_seed = config_.master_seed;
  }
  // Journal I/O (the torn-tail cut, the resume replay) happens outside the
  // lock, before the ledger is published.
  auto ledger = std::make_unique<campaign::Ledger>(
      std::move(grid), master_seed, config_.collect_telemetry,
      config_.journal_path, config_.resume);

  const std::lock_guard<std::mutex> lock(mutex_);
  DUALRAD_REQUIRE(!ledger_ || settled_locked(),
                  "a campaign is already in progress");
  units_.clear();
  unit_of_job_.assign(ledger->slots(), 0);
  lease_expiries_ = 0;
  speculative_ = 0;
  unit_secs_.clear();
  std::size_t first = 0;
  for (std::size_t si = 0; si < ledger->grid().size(); ++si) {
    const auto trials =
        static_cast<std::uint32_t>(ledger->grid()[si].second);
    const std::uint32_t step =
        config_.unit_trials == 0 ? trials : config_.unit_trials;
    for (std::uint32_t begin = 0; begin < trials; begin += step) {
      const std::uint32_t end = std::min(trials, begin + step);
      Unit unit;
      unit.scenario = si;
      unit.trial_begin = begin;
      unit.trial_end = end;
      // Trials replayed from the journal are already committed.
      for (std::uint32_t t = begin; t < end; ++t) {
        unit_of_job_[first + t] = units_.size();
        if (!ledger->committed(first + t)) ++unit.remaining;
      }
      if (unit.remaining == 0) unit.state = UnitState::Done;
      units_.push_back(std::move(unit));
    }
    first += trials;
  }
  ledger_ = std::move(ledger);
  if (settled_locked()) done_cv_.notify_all();
}

bool Coordinator::campaign_loaded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ledger_ != nullptr;
}

std::string Coordinator::register_worker(const std::string& requested) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++workers_seen_;
  if (!requested.empty()) return requested;
  return std::string("w").append(std::to_string(next_worker_++));
}

bool Coordinator::settled_locked() const {
  if (!ledger_) return false;
  for (const Unit& unit : units_) {
    if (unit.state != UnitState::Done && unit.state != UnitState::Quarantined) {
      return false;
    }
  }
  return true;
}

double Coordinator::lease_window_secs_locked() const {
  if (!config_.adaptive_lease || unit_secs_.size() < kLeaseObservations) {
    return config_.lease_secs;
  }
  // p90 of observed unit wall times, times slack: long enough that an honest
  // slow unit survives, short enough that a dead worker is detected in a few
  // unit-times rather than a static 30 s.
  std::vector<double> secs = unit_secs_;
  const std::size_t k = (secs.size() * 9) / 10;
  const std::size_t idx = std::min(k, secs.size() - 1);
  std::nth_element(secs.begin(),
                   secs.begin() + static_cast<std::ptrdiff_t>(idx), secs.end());
  const double p90 = secs[idx];
  return std::clamp(p90 * kLeaseSlack, kLeaseFloorSecs, kLeaseCeilSecs);
}

void Coordinator::sweep_expired_leases_locked() {
  const auto now = std::chrono::steady_clock::now();
  bool newly_settled = false;
  for (Unit& unit : units_) {
    if (unit.state != UnitState::Leased || now < unit.lease_deadline) continue;
    // The worker died or stalled. Trials it already committed stay
    // committed; a later worker re-running them dedupes byte-wise.
    ++lease_expiries_;
    ++unit.expiries;
    unit.speculated = false;
    if (config_.max_unit_expiries != 0 &&
        unit.expiries >= config_.max_unit_expiries) {
      // Poison quarantine: this unit has now killed (or outlived) N leases.
      // Requeueing it forever would livelock the campaign; park it and let
      // finalize() report the gap explicitly. A late commit can still heal
      // it back to Done. `worker` is kept for the manifest — the last
      // holder is the first place to look for the poison.
      unit.state = UnitState::Quarantined;
      newly_settled = true;
    } else {
      unit.worker.clear();
      unit.state = UnitState::Pending;
    }
  }
  if (newly_settled && settled_locked()) done_cv_.notify_all();
}

std::optional<JobSpec> Coordinator::lease(const std::string& worker) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!ledger_) return std::nullopt;
  sweep_expired_leases_locked();
  const auto now = std::chrono::steady_clock::now();
  const auto window = std::chrono::microseconds(
      static_cast<std::int64_t>(lease_window_secs_locked() * 1e6));
  const auto make_job = [&](std::size_t ui, Unit& unit) {
    unit.worker = worker;
    unit.lease_start = now;
    unit.lease_deadline = now + window;
    JobSpec job;
    job.unit = ui;
    job.scenario = ledger_->grid()[unit.scenario].first;
    job.trial_begin = unit.trial_begin;
    job.trial_end = unit.trial_end;
    job.master_seed = ledger_->master_seed();
    job.threads_per_trial = config_.threads_per_trial;
    job.collect_telemetry = config_.collect_telemetry;
    return job;
  };
  for (std::size_t ui = 0; ui < units_.size(); ++ui) {
    Unit& unit = units_[ui];
    if (unit.state != UnitState::Pending) continue;
    unit.state = UnitState::Leased;
    return make_job(ui, unit);
  }
  // Straggler speculation: nothing is pending but the campaign isn't done,
  // so this worker would otherwise idle-poll while the tail unit finishes
  // (or times out). Hand it a second copy of the leased unit that has been
  // out the longest past half its window — exactly-once commit makes the
  // duplicate execution safe, and whichever copy commits first wins. At most
  // one speculative copy per lease term, and never to the holder itself.
  std::size_t best = units_.size();
  for (std::size_t ui = 0; ui < units_.size(); ++ui) {
    Unit& unit = units_[ui];
    if (unit.state != UnitState::Leased || unit.speculated) continue;
    if (unit.worker == worker) continue;
    const auto elapsed = now - unit.lease_start;
    if (elapsed * 2 < unit.lease_deadline - unit.lease_start) continue;
    if (best == units_.size() ||
        units_[best].lease_start > unit.lease_start) {
      best = ui;
    }
  }
  if (best == units_.size()) return std::nullopt;
  Unit& unit = units_[best];
  unit.speculated = true;
  ++speculative_;
  // The re-dispatch extends the deadline for both copies — the original
  // holder may still commit, and the sweep must give the speculative copy a
  // full window too.
  return make_job(best, unit);
}

Coordinator::Commit Coordinator::commit(const campaign::TrialRow& row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  DUALRAD_REQUIRE(ledger_ != nullptr, "commit before a campaign was loaded");
  const Commit outcome = ledger_->commit(row);
  if (outcome == Commit::Duplicate) return outcome;
  Unit& unit = units_[unit_of_job_[ledger_->slot(row.scenario, row.trial)]];
  DUALRAD_CHECK(unit.remaining > 0, "unit committed more trials than it has");
  if (--unit.remaining == 0) {
    // A late commit heals a quarantined unit: the work arrived after all, so
    // the campaign is whole again for this range.
    if (unit.state == UnitState::Leased) {
      const auto elapsed = std::chrono::steady_clock::now() - unit.lease_start;
      unit_secs_.push_back(std::chrono::duration<double>(elapsed).count());
    }
    unit.state = UnitState::Done;
    unit.worker.clear();
    unit.speculated = false;
    if (settled_locked()) done_cv_.notify_all();
  }
  return outcome;
}

void Coordinator::add_telemetry(const campaign::TelemetryRow& row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ledger_) ledger_->add_telemetry(row);
}

bool Coordinator::done() const {
  // Callers hold no lock (done is const); the engine reads are benign but
  // lock anyway for a clean contract — this is never on a hot path.
  const std::lock_guard<std::mutex> lock(mutex_);
  return settled_locked();
}

bool Coordinator::wait_done(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto is_done = [&] { return settled_locked(); };
  if (timeout.count() <= 0) {
    done_cv_.wait(lock, is_done);
    return true;
  }
  return done_cv_.wait_for(lock, timeout, is_done);
}

Coordinator::Status Coordinator::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Status s;
  s.loaded = ledger_ != nullptr;
  s.finished = settled_locked();
  if (ledger_) {
    s.scenarios = ledger_->grid().size();
    s.total_trials = ledger_->slots();
    s.committed = ledger_->committed();
    s.resumed = ledger_->resumed();
    s.journal_errors = ledger_->journal_errors();
  }
  for (const Unit& unit : units_) {
    switch (unit.state) {
      case UnitState::Pending: ++s.units_pending; break;
      case UnitState::Leased: ++s.units_leased; break;
      case UnitState::Done: ++s.units_done; break;
      case UnitState::Quarantined:
        ++s.units_quarantined;
        s.trials_quarantined += unit.remaining;
        break;
    }
  }
  s.workers = workers_seen_;
  s.lease_expiries = lease_expiries_;
  s.speculative_dispatches = speculative_;
  s.lease_ms_effective =
      static_cast<std::size_t>(lease_window_secs_locked() * 1e3);
  return s;
}

std::vector<Coordinator::QuarantinedUnit> Coordinator::quarantined() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<QuarantinedUnit> out;
  for (const Unit& unit : units_) {
    if (unit.state != UnitState::Quarantined) continue;
    QuarantinedUnit q;
    q.scenario = ledger_->grid()[unit.scenario].first;
    q.trial_begin = unit.trial_begin;
    q.trial_end = unit.trial_end;
    q.committed = (unit.trial_end - unit.trial_begin) - unit.remaining;
    q.expiries = unit.expiries;
    q.last_worker = unit.worker;
    out.push_back(std::move(q));
  }
  return out;
}

campaign::CampaignResult Coordinator::finalize() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  DUALRAD_REQUIRE(settled_locked(), "finalize before the campaign completed");
  // Workers commit untimed rows, so summaries carry no wall-time column —
  // matching an untimed batch run.
  return ledger_->result(/*timed=*/false);
}

}  // namespace dualrad::serve
