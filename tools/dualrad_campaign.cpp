// dualrad_campaign — run registered experiment campaigns on the parallel
// trial executor.
//
// Examples:
//   dualrad_campaign --list
//   dualrad_campaign --list --filter=harmonic
//   dualrad_campaign --filter=dual --threads=8 --seed=42
//               --jsonl=trials.jsonl --summary-csv=summary.csv
//   dualrad_campaign --filter=adhoc/bridge:n=32/strong-select/greedy/cr4/async
//               --trials=5 --csv=bridge.csv
//
// Runs the cross product (scenario x trial) across worker threads with
// deterministic per-trial seeding: for a fixed --seed, all output files are
// byte-identical regardless of --threads.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/builtin_scenarios.hpp"
#include "campaign/contract.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "core/audit.hpp"
#include "graph/dual_graph.hpp"
#include "mac/mac_latency.hpp"
#include "obs/perfetto_writer.hpp"
#include "obs/telemetry.hpp"
#include "run_options.hpp"
#include "stats/table.hpp"

namespace {

using namespace dualrad;

// Flags only the batch tool takes; the shared ones live in run_options.hpp.
struct Options {
  bool list = false;
  bool timing = false;
  bool audit = false;
  bool fail_on_contract = false;
  unsigned threads = 0;
  std::string mac_jsonl_path;
  std::string perfetto_path;
  std::string perfetto_scenario;
};

// SIGINT/SIGTERM raise this; the engine checks it between trials, so a ^C
// mid-campaign flushes the journal (every committed row is already fsynced)
// and exits nonzero instead of dying with partial in-memory state.
std::atomic<bool> g_cancel{false};

extern "C" void on_cancel_signal(int) {
  g_cancel.store(true, std::memory_order_relaxed);
}

void usage() {
  std::fputs(
      "usage: dualrad_campaign [options]\n"
      "  --list              list matching scenarios instead of running\n"
      "  --threads=N         worker threads (default: hardware concurrency;\n"
      "                      output is identical for any value)\n"
      "  --mac-jsonl=PATH    write per-trial MAC ack/progress latencies as\n"
      "                      JSONL (measured f_ack / f_prog; rows sorted by\n"
      "                      scenario and trial, so output is deterministic)\n"
      "  --timing            measure per-trial wall time and include it in\n"
      "                      trial/summary exports (wall_us / mean_wall_ms;\n"
      "                      timed exports are NOT byte-reproducible)\n"
      "  --perfetto=PATH     after the campaign, deterministically re-run one\n"
      "                      trial (trial 0 of --perfetto-scenario, default\n"
      "                      the first matching scenario) with telemetry and\n"
      "                      write a Chrome/Perfetto trace (ui.perfetto.dev)\n"
      "  --perfetto-scenario=NAME  exact name of the scenario to trace\n"
      "  --audit             record a compressed trace of every trial and\n"
      "                      re-verify it with the execution auditor\n"
      "                      (core/audit.hpp). Forged-token wins (Byzantine\n"
      "                      scenarios, src/byz/) are reported on stderr; any\n"
      "                      model violation exits 4. Results and exports are\n"
      "                      byte-identical with or without this flag\n"
      "  --fail-on-contract  check the broadcast contract (validity /\n"
      "                      no-duplication / no-creation, including forged-\n"
      "                      token wins) on every trial; any violation is\n"
      "                      printed to stderr and the run exits 3\n",
      stdout);
  std::fputs(cli::kRunUsage, stdout);
}

void list_scenarios(const std::vector<campaign::Scenario>& scenarios) {
  stats::Table table({"scenario", "trials", "rule", "start", "tags"});
  for (const campaign::Scenario& s : scenarios) {
    std::string tags;
    for (const std::string& t : s.tags) {
      if (!tags.empty()) tags += ',';
      tags += t;
    }
    table.add_row({s.name, std::to_string(s.trials), to_string(s.rule),
                   to_string(s.start), tags});
  }
  table.print(std::cout);
  std::cout << "\n" << scenarios.size() << " scenario(s)\n";
}

std::string mac_rows_to_jsonl(const std::vector<mac::TrialLatencyRow>& rows) {
  const auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return std::string(buf);
  };
  std::string out;
  for (const mac::TrialLatencyRow& r : rows) {
    const mac::MacLatencySummary& l = r.latency;
    out += "{\"scenario\":\"" + r.scenario + "\"";
    out += ",\"trial\":" + std::to_string(r.trial);
    out += ",\"acks\":" + std::to_string(l.acks);
    out += ",\"ack_max\":" + num(l.ack_max);
    out += ",\"ack_mean\":" + num(l.ack_mean);
    out += ",\"prog_samples\":" + std::to_string(l.prog_samples);
    out += ",\"prog_max\":" + std::to_string(l.prog_max);
    out += ",\"prog_mean\":" + num(l.prog_mean);
    out += ",\"unreached\":" + std::to_string(l.unreached);
    out += "}\n";
  }
  return out;
}

// Deterministically re-run trial 0 through the engine's own trial body with
// a telemetry registry attached, and write a Chrome/Perfetto trace of it.
void write_perfetto_for(const campaign::Scenario& scenario,
                        std::uint64_t master_seed, unsigned threads_per_trial,
                        const std::string& path) {
  obs::RoundTelemetry telemetry;  // default window: last 4096 rounds
  (void)campaign::TrialExecutor(scenario, master_seed)
      .run(0, {.threads_per_trial = threads_per_trial,
               .telemetry = &telemetry});
  obs::write_perfetto_trace(telemetry, path, scenario.name);
  std::fprintf(stderr, "[campaign] perfetto trace of %s trial 0 -> %s\n",
               scenario.name.c_str(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  cli::RunOptions run;
  cli::Flags flags;
  flags.on("--list", options.list)
      .on("--timing", options.timing)
      .on("--audit", options.audit)
      .on("--fail-on-contract", options.fail_on_contract)
      .number("--threads", options.threads)
      .text("--mac-jsonl", options.mac_jsonl_path)
      .text("--perfetto", options.perfetto_path)
      .text("--perfetto-scenario", options.perfetto_scenario);
  if (!cli::parse_command_line(argc, argv, 1, flags, run)) {
    usage();
    return 2;
  }
  if (run.help) {
    usage();
    return 0;
  }
  try {
    const campaign::ScenarioRegistry registry = campaign::builtin_registry();
    const std::vector<campaign::Scenario> scenarios =
        cli::selected_scenarios(registry, run);
    if (scenarios.empty()) {
      std::fprintf(stderr, "no scenario matches filter '%s'\n",
                   run.filter.c_str());
      return 1;
    }
    if (options.list) {
      list_scenarios(scenarios);
      return 0;
    }

    campaign::CampaignConfig config;
    config.master_seed = run.seed;
    config.threads = options.threads;
    config.threads_per_trial = std::max(1u, run.threads_per_trial);
    config.trials_override = run.trials;
    config.measure_wall_time = options.timing;
    config.collect_telemetry = !run.telemetry_jsonl_path.empty();
    config.heartbeat_secs = run.heartbeat_secs;
    config.journal_path = run.journal_path;
    config.resume = run.resume;
    std::signal(SIGINT, on_cancel_signal);
    std::signal(SIGTERM, on_cancel_signal);
    config.cancel = &g_cancel;

    // --audit: re-verify every trial's execution trace out-of-band. The
    // auditor needs a recorded trace, so trials run with compressed traces —
    // rows and exports stay byte-identical; the trace is dropped after the
    // observer fires. Installed by direct assignment, so it must come before
    // the chaining attach() observers below. Resumed trials never reach an
    // observer, so the observer counts what it audited. Verdict lines are
    // keyed by (scenario, trial), so they print in that order for any
    // --threads, not in trial-completion order.
    using TrialLines =
        std::multimap<std::pair<std::string, std::uint32_t>, std::string>;
    std::map<std::string, DualGraph> audit_nets;
    TrialLines audit_failures;
    TrialLines audit_forged_wins;
    std::size_t audited = 0;
    if (options.audit) {
      config.trial_trace = TraceLevel::Compressed;
      config.observer = [&](const campaign::Scenario& scenario,
                            const campaign::TrialRow& row,
                            const SimResult& result) {
        // The engine keeps its networks private; rebuild one per scenario
        // (builders are deterministic) and cache it. The engine serializes
        // observers, so the cache needs no lock.
        auto it = audit_nets.find(scenario.name);
        if (it == audit_nets.end()) {
          it = audit_nets.emplace(scenario.name, scenario.network()).first;
        }
        const audit::AuditReport report = audit::audit_execution(
            it->second, result, scenario.rule, scenario.token_sources);
        ++audited;
        const std::pair<std::string, std::uint32_t> key{scenario.name,
                                                        row.trial};
        const std::string tag = scenario.name + "#" + std::to_string(row.trial);
        for (const std::string& v : report.violations) {
          audit_failures.emplace(key, tag + " " + v);
        }
        for (const std::string& w : report.forged_wins) {
          audit_forged_wins.emplace(key, tag + " " + w);
        }
      };
    }

    // --fail-on-contract: the broadcast-contract checker (attach() chains
    // the audit observer above, if any).
    std::optional<campaign::ContractObserver> contract;
    if (options.fail_on_contract) {
      contract.emplace();
      contract->attach(config);
    }

    // --mac-jsonl: measure f_ack / f_prog per trial from the full SimResult
    // (progress latency is meaningful for any broadcast scenario; the ack
    // columns are -1 outside MAC workloads).
    std::optional<mac::LatencyCollector> collector;
    if (!options.mac_jsonl_path.empty()) {
      collector.emplace(scenarios);
      collector->attach(config);
    }

    campaign::CampaignResult result = campaign::run_campaign(scenarios, config);
    if (run.resume) {
      std::fprintf(stderr,
                   "[campaign] resume: %zu committed trial(s) from %s\n",
                   result.resumed, run.journal_path.c_str());
    }

    if (result.cancelled) {
      if (!run.journal_path.empty()) {
        std::fprintf(stderr,
                     "[campaign] interrupted — journal %s is durable; "
                     "continue with --journal=%s --resume\n",
                     run.journal_path.c_str(), run.journal_path.c_str());
      } else {
        std::fprintf(stderr,
                     "[campaign] interrupted — no --journal, partial results "
                     "discarded\n");
      }
      return 130;
    }

    if (collector.has_value()) {
      campaign::write_file(options.mac_jsonl_path,
                           mac_rows_to_jsonl(collector->sorted_rows()));
    }
    cli::write_exports(run, result, options.timing);
    if (!options.perfetto_path.empty()) {
      const campaign::Scenario* traced = &scenarios.front();
      if (!options.perfetto_scenario.empty()) {
        traced = nullptr;
        for (const campaign::Scenario& s : scenarios) {
          if (s.name == options.perfetto_scenario) traced = &s;
        }
        if (traced == nullptr) {
          std::fprintf(stderr, "--perfetto-scenario '%s' matches no scenario\n",
                       options.perfetto_scenario.c_str());
          return 1;
        }
      }
      write_perfetto_for(*traced, run.seed, config.threads_per_trial,
                         options.perfetto_path);
    }
    if (!run.quiet) cli::print_summary_table(result, options.timing);

    // Verification verdicts come last so exports above are written either
    // way (a failing campaign's rows are still evidence). Contract trumps
    // audit in the exit code when both trip.
    if (options.audit) {
      for (const auto& [trial, w] : audit_forged_wins) {
        std::fprintf(stderr, "[audit] forged-token win: %s\n", w.c_str());
      }
      for (const auto& [trial, v] : audit_failures) {
        std::fprintf(stderr, "[audit] FAIL: %s\n", v.c_str());
      }
      if (audit_failures.empty()) {
        std::fprintf(stderr, "[audit] %zu trial trace(s) verified clean\n",
                     audited);
      }
    }
    if (contract.has_value()) {
      for (const std::string& v : contract->violations()) {
        std::fprintf(stderr, "[contract] FAIL: %s\n", v.c_str());
      }
      if (contract->violations().empty()) {
        std::fprintf(stderr,
                     "[contract] %zu trial(s) satisfy the broadcast contract\n",
                     contract->trials_checked());
      }
    }
    if (contract.has_value() && !contract->violations().empty()) return 3;
    if (!audit_failures.empty()) return 4;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
