#include "campaign/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "campaign/ledger.hpp"
#include "core/rng.hpp"
#include "obs/heartbeat.hpp"
#include "obs/rss.hpp"
#include "obs/telemetry.hpp"

namespace dualrad::campaign {

namespace {

[[nodiscard]] DualGraph build_network(const Scenario& s) {
  DUALRAD_REQUIRE(static_cast<bool>(s.network) &&
                      static_cast<bool>(s.algorithm) &&
                      static_cast<bool>(s.adversary),
                  "scenario '" + s.name + "' has unset builders");
  return s.network();
}

}  // namespace

std::uint64_t scenario_stream(std::uint64_t master_seed,
                              std::string_view name) {
  return mix_seed(master_seed, fnv1a64(name));
}

std::uint64_t trial_seed(std::uint64_t master_seed, std::string_view name,
                         std::size_t trial) {
  return mix_seed(scenario_stream(master_seed, name),
                  static_cast<std::uint64_t>(trial));
}

TrialExecutor::TrialExecutor(const Scenario& scenario,
                             std::uint64_t master_seed)
    : spec_(scenario),
      master_seed_(master_seed),
      stream_(scenario_stream(master_seed, scenario.name)),
      net_(build_network(scenario)),
      factory_(spec_.algorithm(net_)) {
  DUALRAD_REQUIRE(static_cast<bool>(factory_),
                  "scenario '" + spec_.name + "' built a null process factory");
}

TrialExecutor::Outcome TrialExecutor::run(std::uint32_t trial,
                                          const TrialOptions& options) const {
  const std::uint64_t seed =
      mix_seed(stream_, static_cast<std::uint64_t>(trial));

  // Fresh adversary per trial: stateful adversaries start clean, and no
  // Adversary instance is ever shared between concurrent trials.
  const std::unique_ptr<Adversary> adversary =
      spec_.adversary(mix_seed(seed, 0xAD));
  DUALRAD_CHECK(adversary != nullptr, "adversary factory returned null");

  SimConfig sim;
  sim.rule = spec_.rule;
  sim.start = spec_.start;
  sim.max_rounds = spec_.max_rounds;
  sim.seed = seed;
  sim.token_sources = spec_.token_sources;
  sim.threads = options.threads_per_trial;
  sim.trace = options.trace;
  sim.telemetry = options.telemetry;
  const auto started = std::chrono::steady_clock::now();
  SimResult run = spec_.runner ? spec_.runner(net_, factory_, *adversary, sim)
                               : run_broadcast(net_, factory_, *adversary, sim);
  const auto elapsed = std::chrono::steady_clock::now() - started;

  Outcome out;
  TrialRow& row = out.row;
  row.scenario = spec_.name;
  row.trial = trial;
  row.seed = seed;
  row.completed = run.completed;
  row.rounds = run.completed ? run.completion_round : kNever;
  row.rounds_executed = run.rounds_executed;
  row.sends = run.total_sends;
  row.collisions = run.total_collision_events;
  row.tokens = std::max<std::int32_t>(run.token_count(), 1);
  if (options.measure_wall_time) {
    row.wall_us =
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  }

  if (options.telemetry != nullptr) {
    const obs::RoundTelemetry& telemetry = *options.telemetry;
    TelemetryRow& t = out.telemetry;
    t.scenario = spec_.name;
    t.trial = trial;
    t.wall_us =
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
    t.poll_ns = telemetry.total_phase_ns(obs::Phase::Poll);
    t.adversary_ns = telemetry.total_phase_ns(obs::Phase::Adversary);
    t.propagate_ns = telemetry.total_phase_ns(obs::Phase::Propagate);
    t.deliver_ns = telemetry.total_phase_ns(obs::Phase::Deliver);
    t.merge_ns = telemetry.total_phase_ns(obs::Phase::ShardMerge);
    const obs::RoundCounters& c = telemetry.totals();
    t.polled = c.polled;
    t.senders = c.senders;
    t.deliveries = c.deliveries;
    t.collisions = c.collisions;
    t.calendar_scanned = c.calendar_scanned;
    t.replans = c.replans;
    t.reach_appends = c.reach_appends;
    t.newly_covered = c.newly_covered;
    t.max_round_deliveries = telemetry.max_round_deliveries();
  }

  out.sim = std::move(run);
  return out;
}

CampaignResult run_campaign(const std::vector<Scenario>& scenarios,
                            const CampaignConfig& config) {
  Ledger ledger(campaign_grid(scenarios, config.trials_override),
                config.master_seed, config.collect_telemetry,
                config.journal_path, config.resume);

  std::vector<TrialExecutor> executors;
  executors.reserve(scenarios.size());
  for (const Scenario& s : scenarios) {
    executors.emplace_back(s, config.master_seed);
  }

  // The (scenario, trial) jobs the journal did not fill.
  const std::size_t total_jobs = ledger.slots();
  std::vector<std::pair<std::size_t, std::uint32_t>> pending;
  for (std::size_t si = 0, slot = 0; si < scenarios.size(); ++si) {
    for (std::uint32_t t = 0; t < ledger.grid()[si].second; ++t, ++slot) {
      if (!ledger.committed(slot)) pending.emplace_back(si, t);
    }
  }

  std::atomic<std::size_t> next_job{0};
  std::atomic<std::size_t> jobs_done{ledger.committed()};
  std::atomic<std::uint64_t> rounds_done{0};
  std::atomic<bool> failed{false};
  std::atomic<bool> cancelled{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex commit_mutex;  // serializes the observer and the ledger

  const auto run_one = [&](std::size_t si, std::uint32_t trial) {
    // One telemetry registry per trial, attached out-of-band. Window 1: only
    // whole-execution totals are kept, so the per-round ring can be minimal.
    obs::RoundTelemetry telemetry(1);
    const TrialExecutor::Outcome outcome = executors[si].run(
        trial, {.threads_per_trial = config.threads_per_trial,
                .measure_wall_time = config.measure_wall_time,
                .telemetry = config.collect_telemetry ? &telemetry : nullptr,
                .trace = config.trial_trace});

    {
      const std::lock_guard<std::mutex> lock(commit_mutex);
      if (config.observer) {
        config.observer(scenarios[si], outcome.row, outcome.sim);
      }
      (void)ledger.commit(outcome.row);
      if (config.collect_telemetry) ledger.add_telemetry(outcome.telemetry);
      if (ledger.journal_errors() != 0) {
        throw std::runtime_error(ledger.journal_error());
      }
    }

    rounds_done.fetch_add(
        static_cast<std::uint64_t>(outcome.row.rounds_executed),
        std::memory_order_relaxed);
    jobs_done.fetch_add(1, std::memory_order_relaxed);
  };

  const auto worker = [&]() {
    while (!failed.load(std::memory_order_relaxed)) {
      if (config.cancel != nullptr &&
          config.cancel->load(std::memory_order_relaxed)) {
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
      const std::size_t next = next_job.fetch_add(1, std::memory_order_relaxed);
      if (next >= pending.size()) return;
      try {
        run_one(pending[next].first, pending[next].second);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  unsigned threads = config.threads != 0 ? config.threads
                                         : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(pending.size(), 1)));

  // Progress heartbeat: one line to stderr every heartbeat_secs while trials
  // run. Reads only the progress atomics and /proc RSS — never results. The
  // obs::Heartbeat wait is condition-variable based, so a campaign that
  // finishes (or is cancelled) mid-interval stops it immediately.
  obs::Heartbeat heartbeat;
  if (config.heartbeat_secs > 0) {
    const auto t0 = std::chrono::steady_clock::now();
    heartbeat.start(std::chrono::seconds(config.heartbeat_secs), [&] {
      const std::size_t done = jobs_done.load(std::memory_order_relaxed);
      const std::uint64_t rounds = rounds_done.load(std::memory_order_relaxed);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double rate = secs > 0.0 ? static_cast<double>(rounds) / secs : 0.0;
      char eta[32];
      if (done == 0) {
        std::snprintf(eta, sizeof eta, "?");
      } else if (done >= total_jobs) {
        std::snprintf(eta, sizeof eta, "0s");
      } else {
        const double remaining = secs / static_cast<double>(done) *
                                 static_cast<double>(total_jobs - done);
        std::snprintf(eta, sizeof eta, "%.0fs", remaining);
      }
      std::fprintf(stderr,
                   "[campaign] %zu/%zu trials | %.1f rounds/s | eta %s | "
                   "rss %.1f MB\n",
                   done, total_jobs, rate, eta, obs::current_rss_mb());
    });
  }

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  heartbeat.stop();
  if (first_error) std::rethrow_exception(first_error);

  CampaignResult result = std::move(ledger).result(config.measure_wall_time);
  if (cancelled.load(std::memory_order_relaxed)) {
    result.cancelled = true;
    result.summaries.clear();
  }
  return result;
}

const ScenarioSummary* find_summary(const CampaignResult& result,
                                    std::string_view name) {
  for (const ScenarioSummary& s : result.summaries) {
    if (s.scenario == name) return &s;
  }
  return nullptr;
}

}  // namespace dualrad::campaign
