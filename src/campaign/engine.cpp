#include "campaign/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <string_view>
#include <thread>

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

std::vector<ScenarioSummary> summarize_trials(
    const std::vector<TrialRow>& rows, const CampaignGrid& grid, bool timed) {
  std::size_t total = 0;
  for (const auto& [name, trials] : grid) total += trials;
  DUALRAD_REQUIRE(rows.size() == total,
                  "row count does not match the campaign grid");

  std::vector<ScenarioSummary> summaries;
  summaries.reserve(grid.size());
  std::size_t first = 0;
  for (const auto& [name, trials] : grid) {
    ScenarioSummary summary;
    summary.scenario = name;
    summary.trials = trials;
    std::vector<double> rounds;
    double sends = 0.0, collisions = 0.0, wall_us = 0.0;
    std::size_t timed_rows = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const TrialRow& row = rows[first + t];
      if (row.completed) {
        rounds.push_back(static_cast<double>(row.rounds));
      } else {
        ++summary.failures;
      }
      sends += static_cast<double>(row.sends);
      collisions += static_cast<double>(row.collisions);
      // Rows replayed from a journal carry no wall time (-1).
      if (row.wall_us >= 0) {
        wall_us += static_cast<double>(row.wall_us);
        ++timed_rows;
      }
    }
    summary.rounds = stats::summarize(std::move(rounds));
    summary.mean_sends = sends / static_cast<double>(trials);
    summary.mean_collisions = collisions / static_cast<double>(trials);
    if (timed && timed_rows > 0) {
      summary.mean_wall_ms = wall_us / 1000.0 / static_cast<double>(timed_rows);
    }
    summaries.push_back(std::move(summary));
    first += trials;
  }
  return summaries;
}

CampaignResult run_campaign(const std::vector<Scenario>& scenarios,
                            const CampaignConfig& config) {
  struct PreparedScenario {
    const Scenario* spec = nullptr;
    TrialExecutor executor;
    std::size_t trials = 0;
    std::size_t first_job = 0;  ///< index of trial 0 in the flat job list
  };

  std::vector<PreparedScenario> prepared;
  prepared.reserve(scenarios.size());
  std::size_t total_jobs = 0;
  std::set<std::string_view> names;
  for (const Scenario& s : scenarios) {
    // Duplicate names would share a seed stream (correlated trials) and
    // collide in find_summary; reject them even when the caller bypassed a
    // ScenarioRegistry.
    DUALRAD_REQUIRE(names.insert(s.name).second,
                    "duplicate scenario name in campaign: " + s.name);
    const std::size_t trials =
        config.trials_override != 0 ? config.trials_override : s.trials;
    DUALRAD_REQUIRE(trials >= 1,
                    "scenario '" + s.name + "' needs at least one trial");
    prepared.push_back(PreparedScenario{
        &s, TrialExecutor(s, config.master_seed), trials, total_jobs});
    total_jobs += trials;
  }

  CampaignResult result;
  result.trials.resize(total_jobs);
  if (config.collect_telemetry) result.telemetry.resize(total_jobs);

  // job id -> scenario index, so workers claim jobs with one atomic fetch.
  std::vector<std::size_t> scenario_of_job(total_jobs);
  for (std::size_t si = 0; si < prepared.size(); ++si) {
    for (std::size_t t = 0; t < prepared[si].trials; ++t) {
      scenario_of_job[prepared[si].first_job + t] = si;
    }
  }

  // Checkpoint resume: satisfy journaled (scenario, trial) jobs verbatim.
  // Seeds are validated against the derived streams so a journal from a
  // different master seed or grid fails loudly instead of corrupting the
  // byte-identity contract.
  std::vector<char> resumed(total_jobs, 0);
  if (config.resume_rows != nullptr) {
    std::map<std::string_view, std::size_t> scenario_index;
    for (std::size_t si = 0; si < prepared.size(); ++si) {
      scenario_index.emplace(prepared[si].spec->name, si);
    }
    for (const TrialRow& row : *config.resume_rows) {
      const auto it = scenario_index.find(row.scenario);
      DUALRAD_REQUIRE(it != scenario_index.end(),
                      "resume row for unknown scenario: " + row.scenario);
      const PreparedScenario& p = prepared[it->second];
      DUALRAD_REQUIRE(row.trial < p.trials,
                      "resume row trial out of range in " + row.scenario);
      DUALRAD_REQUIRE(
          row.seed == trial_seed(config.master_seed, row.scenario, row.trial),
          "resume row seed mismatch (wrong master seed or journal?) in " +
              row.scenario);
      const std::size_t job = p.first_job + row.trial;
      result.trials[job] = row;
      resumed[job] = 1;
    }
  }

  std::atomic<std::size_t> next_job{0};
  std::atomic<std::size_t> jobs_done{0};
  std::atomic<std::uint64_t> rounds_done{0};
  std::atomic<bool> failed{false};
  std::atomic<bool> cancelled{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex observer_mutex;

  const auto run_one = [&](std::size_t job) {
    const PreparedScenario& p = prepared[scenario_of_job[job]];
    const std::uint32_t trial = static_cast<std::uint32_t>(job - p.first_job);
    // One telemetry registry per trial, attached out-of-band. Window 1: only
    // whole-execution totals are kept, so the per-round ring can be minimal.
    obs::RoundTelemetry telemetry(1);
    TrialExecutor::Outcome outcome = p.executor.run(
        trial, {.threads_per_trial = config.threads_per_trial,
                .measure_wall_time = config.measure_wall_time,
                .telemetry = config.collect_telemetry ? &telemetry : nullptr,
                .trace = config.trial_trace});

    result.trials[job] = outcome.row;
    if (config.collect_telemetry) result.telemetry[job] = outcome.telemetry;

    if (config.observer || config.row_sink) {
      const std::lock_guard<std::mutex> lock(observer_mutex);
      if (config.observer) {
        config.observer(*p.spec, result.trials[job], outcome.sim);
      }
      if (config.row_sink) {
        config.row_sink(
            result.trials[job],
            config.collect_telemetry ? &result.telemetry[job] : nullptr);
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
      const std::size_t job = next_job.fetch_add(1, std::memory_order_relaxed);
      if (job >= total_jobs) return;
      if (resumed[job]) {
        jobs_done.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      try {
        run_one(job);
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
      std::min<std::size_t>(threads, std::max<std::size_t>(total_jobs, 1)));

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

  if (cancelled.load(std::memory_order_relaxed)) {
    result.cancelled = true;
    return result;
  }

  CampaignGrid grid;
  grid.reserve(prepared.size());
  for (const PreparedScenario& p : prepared) {
    grid.emplace_back(p.spec->name, p.trials);
  }
  result.summaries =
      summarize_trials(result.trials, grid, config.measure_wall_time);
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
