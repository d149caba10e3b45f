// dualrad_serve — campaign service mode: a persistent coordinator that
// dispatches work units to a pool of worker processes over Unix-domain or
// TCP sockets, with a crash-safe checkpoint journal.
//
// Examples:
//   # coordinator with an in-process listener, 4 forked workers, journal:
//   dualrad_serve serve --listen=/tmp/dualrad.sock --filter=dual
//       --journal=camp.journal --spawn=4 --jsonl=trials.jsonl
//
//   # external workers (any mix of machines for TCP endpoints):
//   dualrad_serve serve --listen=:7421 --filter=dual --journal=camp.journal
//   dualrad_serve worker --connect=:7421
//   dualrad_serve status --connect=:7421
//
//   # after a coordinator crash, resume from the journal — the merged
//   # export is byte-identical to an uninterrupted run:
//   dualrad_serve serve --listen=:7421 --filter=dual
//       --journal=camp.journal --resume --jsonl=trials.jsonl
//
// Determinism contract: every trial is a pure function of (scenario, master
// seed, trial index), so the coordinator's merged output is byte-identical
// for ANY worker count, any unit size, any interleaving, and any number of
// crashes/retries — the tests pin this.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/builtin_scenarios.hpp"
#include "campaign/export.hpp"
#include "campaign/jsonl.hpp"
#include "obs/heartbeat.hpp"
#include "run_options.hpp"
#include "serve/coordinator.hpp"
#include "serve/faultline.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"

namespace {

using namespace dualrad;
namespace jsonl = campaign::jsonl;

std::atomic<bool> g_stop{false};

extern "C" void on_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
}

// Flags only the service tool takes; the shared ones live in run_options.hpp.
struct Options {
  std::string command;
  std::string listen;
  std::string connect;
  std::uint32_t unit_trials = 4;
  double lease_secs = 30.0;
  bool idle = false;
  unsigned spawn = 0;
  std::string worker_id;
  std::string quarantine_jsonl_path;
  std::string faults;  ///< fault-injection spec (faultline.hpp grammar)
};

void usage() {
  std::fputs(
      "usage: dualrad_serve <serve|worker|submit|status> [options]\n"
      "\n"
      "serve — run the coordinator on the shared options below\n"
      "  --listen=EP         endpoint: a path => Unix socket, host:port or\n"
      "                      :port => TCP (required)\n"
      "  --idle              load no campaign; wait for a `submit` instead\n"
      "  --unit-trials=N     trials per work unit / lease (default 4;\n"
      "                      0 = one unit per scenario)\n"
      "  --lease-secs=S      requeue a unit not committed within S > 0\n"
      "                      seconds (default 30)\n"
      "  --spawn=N           fork N worker processes connected to --listen\n"
      "  --quarantine-jsonl=PATH  write the quarantined-unit manifest (one\n"
      "                      JSON object per quarantined unit)\n"
      "  --faults=SPEC       deterministic fault injection, e.g.\n"
      "                      'seed=7;drop=0.03;corrupt=0.02;delay=0.05:25;\n"
      "                      crash=0.01;stall=0.01:300' — propagated to\n"
      "                      --spawn'ed workers; exit 3 if units were\n"
      "                      quarantined\n"
      "\n"
      "worker — run one worker process\n"
      "  --connect=EP        coordinator endpoint (required)\n"
      "  --id=NAME           stable worker id (default: assigned)\n"
      "  --threads-per-trial=N  override the coordinator's value\n"
      "  --faults=SPEC       inject wire/lifecycle faults in this worker\n"
      "\n"
      "submit — load a campaign into an --idle coordinator\n"
      "  --connect=EP --filter=F [--seed=N --trials=N]\n"
      "\n"
      "status — print coordinator status\n"
      "  --connect=EP\n"
      "\n"
      "shared options (as in dualrad_campaign; exports are byte-identical\n"
      "to a batch run):\n",
      stdout);
  std::fputs(cli::kRunUsage, stdout);
}

/// One-shot request/response for the submit/status clients.
std::optional<std::string> rpc(const std::string& endpoint,
                               const std::string& payload) {
  const int fd = serve::connect_endpoint(endpoint);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to %s\n", endpoint.c_str());
    return std::nullopt;
  }
  std::optional<std::string> reply;
  if (serve::send_frame(fd, payload)) {
    serve::FrameReader reader;
    bool timed_out = false;
    reply = serve::recv_frame(fd, reader, /*timeout_ms=*/10'000, &timed_out);
    if (!reply.has_value()) {
      std::fprintf(stderr, timed_out ? "request timed out\n"
                                     : "connection closed mid-request\n");
    }
  } else {
    std::fprintf(stderr, "send failed\n");
  }
  ::close(fd);
  return reply;
}

/// JSONL manifest of quarantined units (explicit, machine-readable: the
/// campaign "completed" but these trial ranges are missing from the export).
std::string quarantine_to_jsonl(
    const std::vector<serve::Coordinator::QuarantinedUnit>& units) {
  std::string out;
  for (const auto& q : units) {
    out += "{\"scenario\":\"" + q.scenario + "\"";
    out += ",\"trial_begin\":" + std::to_string(q.trial_begin);
    out += ",\"trial_end\":" + std::to_string(q.trial_end);
    out += ",\"committed\":" + std::to_string(q.committed);
    out += ",\"expiries\":" + std::to_string(q.expiries);
    out += ",\"last_worker\":\"" + q.last_worker + "\"}\n";
  }
  return out;
}

int run_serve(const Options& options, const cli::RunOptions& run) {
  if (options.listen.empty()) {
    std::fprintf(stderr, "serve requires --listen=ENDPOINT\n");
    return 2;
  }
  const campaign::ScenarioRegistry registry = campaign::builtin_registry();

  // Fault injection in the serve process covers the coordinator's journal
  // writes and the server-side reply sends; workers get the same spec via
  // --spawn propagation and inject on their side of the wire.
  std::optional<serve::FaultInjector> injector;
  std::optional<serve::ScopedFaultInjector> injector_guard;
  if (!options.faults.empty()) {
    injector.emplace(serve::parse_fault_plan(options.faults));
    injector_guard.emplace(*injector);
    std::fprintf(stderr, "[serve] fault injection armed: %s\n",
                 serve::fault_plan_to_spec(injector->plan()).c_str());
  }

  serve::Coordinator::Config config;
  config.master_seed = run.seed;
  config.trials_override = run.trials;
  config.unit_trials = options.unit_trials;
  config.lease_secs = options.lease_secs;
  config.journal_path = run.journal_path;
  config.resume = run.resume;
  config.threads_per_trial = std::max(1u, run.threads_per_trial);
  config.collect_telemetry = !run.telemetry_jsonl_path.empty();
  serve::Coordinator coordinator(config);

  if (!options.idle) {
    const std::vector<campaign::Scenario> scenarios =
        campaign::select_scenarios(registry, run.filter);
    if (scenarios.empty()) {
      std::fprintf(stderr, "no scenario matches filter '%s'\n",
                   run.filter.c_str());
      return 1;
    }
    coordinator.load_campaign(scenarios);
    const serve::Coordinator::Status s = coordinator.status();
    std::fprintf(stderr,
                 "[serve] campaign loaded: %zu scenario(s), %zu trial(s)%s\n",
                 s.scenarios, s.total_trials,
                 s.resumed != 0
                     ? (" (" + std::to_string(s.resumed) + " resumed)").c_str()
                     : "");
  }

  const int listen_fd = serve::listen_endpoint(options.listen);
  if (listen_fd < 0) {
    std::fprintf(stderr, "cannot listen on %s\n", options.listen.c_str());
    return 1;
  }
  std::fprintf(stderr, "[serve] listening on %s\n", options.listen.c_str());

  serve::Server::Options server_options;
  server_options.registry = &registry;
  serve::Server server(coordinator, server_options);
  std::thread accept_thread([&] { server.run_accept_loop(listen_fd); });

  // --spawn: fork workers exec'ing this binary's worker subcommand, so the
  // one-machine case needs a single command line. Each child is a full
  // process (own address space, own sockets) — kill -9 on one exercises the
  // same lease-requeue path as losing a remote machine. The fault spec is
  // propagated so injected wire/lifecycle faults happen worker-side too.
  const auto spawn_worker = [&options]() -> pid_t {
    const pid_t pid = ::fork();
    if (pid == 0) {
      const std::string connect_arg = "--connect=" + options.listen;
      const std::string faults_arg = "--faults=" + options.faults;
      if (options.faults.empty()) {
        ::execl("/proc/self/exe", "dualrad_serve", "worker",
                connect_arg.c_str(), static_cast<char*>(nullptr));
      } else {
        ::execl("/proc/self/exe", "dualrad_serve", "worker",
                connect_arg.c_str(), faults_arg.c_str(),
                static_cast<char*>(nullptr));
      }
      std::perror("execl");
      ::_exit(127);
    }
    return pid;
  };
  std::vector<pid_t> children;
  for (unsigned i = 0; i < options.spawn; ++i) {
    const pid_t pid = spawn_worker();
    if (pid > 0) children.push_back(pid);
  }

  install_signal_handlers();

  obs::Heartbeat heartbeat;
  if (run.heartbeat_secs > 0) {
    heartbeat.start(std::chrono::seconds(run.heartbeat_secs), [&] {
      const serve::Coordinator::Status s = coordinator.status();
      std::string extra;
      if (s.lease_expiries != 0) {
        extra += " | " + std::to_string(s.lease_expiries) + " expiry(ies)";
      }
      if (s.speculative_dispatches != 0) {
        extra += " | " + std::to_string(s.speculative_dispatches) +
                 " speculative";
      }
      if (s.units_quarantined != 0) {
        extra += " | " + std::to_string(s.units_quarantined) + " quarantined";
      }
      if (s.journal_errors != 0) {
        extra +=
            " | " + std::to_string(s.journal_errors) + " journal error(s)";
      }
      if (injector.has_value()) {
        extra += " | faults: " + injector->totals().summary();
      }
      std::fprintf(stderr,
                   "[serve] %zu/%zu trials | units %zu pending %zu leased "
                   "%zu done | %zu worker(s) | lease %zu ms%s\n",
                   s.committed, s.total_trials, s.units_pending,
                   s.units_leased, s.units_done, s.workers,
                   s.lease_ms_effective, extra.c_str());
    });
  }

  // Supervision loop: besides waiting for completion, reap exited workers
  // (WNOHANG) and respawn replacements while the campaign is unfinished — a
  // worker lost to an injected crash (or a real one) must not shrink the
  // pool. Bounded so a worker dying instantly on startup cannot fork-bomb.
  bool interrupted = false;
  unsigned respawns = 0;
  constexpr unsigned kMaxRespawns = 512;
  for (;;) {
    if (g_stop.load(std::memory_order_relaxed)) {
      interrupted = true;
      break;
    }
    if (coordinator.campaign_loaded() &&
        coordinator.wait_done(std::chrono::milliseconds(200))) {
      break;
    }
    if (!coordinator.campaign_loaded()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    for (pid_t& pid : children) {
      if (pid <= 0) continue;
      int wstatus = 0;
      if (::waitpid(pid, &wstatus, WNOHANG) != pid) continue;
      pid = -1;
      if (coordinator.campaign_loaded() && !coordinator.done() &&
          !g_stop.load(std::memory_order_relaxed) && respawns < kMaxRespawns) {
        const pid_t fresh = spawn_worker();
        if (fresh > 0) {
          pid = fresh;
          ++respawns;
          std::fprintf(stderr,
                       "[serve] worker exited (status %d) — respawned "
                       "(%u respawn(s))\n",
                       wstatus, respawns);
        }
      }
    }
  }
  heartbeat.stop();

  if (!interrupted) {
    // Let workers hear "done" on their next lease poll before the listener
    // goes away; spawned children are reaped so their exit is observable.
    bool any_child = false;
    for (const pid_t pid : children) {
      if (pid <= 0) continue;
      any_child = true;
      int wstatus = 0;
      (void)::waitpid(pid, &wstatus, 0);
    }
    if (!any_child && options.spawn == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  } else {
    for (const pid_t pid : children) {
      if (pid > 0) (void)::kill(pid, SIGTERM);
    }
    for (const pid_t pid : children) {
      if (pid <= 0) continue;
      int wstatus = 0;
      (void)::waitpid(pid, &wstatus, 0);
    }
  }

  server.request_stop();
  accept_thread.join();
  ::close(listen_fd);

  if (interrupted) {
    if (!run.journal_path.empty()) {
      std::fprintf(stderr,
                   "[serve] interrupted — journal %s is durable; restart with "
                   "--resume to continue\n",
                   run.journal_path.c_str());
    } else {
      std::fprintf(stderr, "[serve] interrupted — no --journal, progress "
                           "discarded\n");
    }
    return 130;
  }

  const campaign::CampaignResult result = coordinator.finalize();
  const std::vector<serve::Coordinator::QuarantinedUnit> quarantined =
      coordinator.quarantined();
  if (!quarantined.empty()) {
    // Explicit manifest: the campaign completed (no livelock), but these
    // units never committed fully — exports below contain only committed
    // rows.
    std::fprintf(stderr,
                 "[serve] WARNING: %zu unit(s) quarantined (exports contain "
                 "the committed subset):\n",
                 quarantined.size());
    for (const auto& q : quarantined) {
      std::fprintf(stderr,
                   "[serve]   %s trials [%u,%u): %u/%u committed, "
                   "%u lease expiries, last worker '%s'\n",
                   q.scenario.c_str(), q.trial_begin, q.trial_end, q.committed,
                   q.trial_end - q.trial_begin, q.expiries,
                   q.last_worker.c_str());
    }
  }
  if (!options.quarantine_jsonl_path.empty()) {
    campaign::write_file(options.quarantine_jsonl_path,
                         quarantine_to_jsonl(quarantined));
  }
  cli::write_exports(run, result, /*timed=*/false);
  if (!run.quiet) cli::print_summary_table(result, /*timed=*/false);
  // Exit 3 distinguishes "completed with quarantined gaps" from clean
  // success — scripted callers must not treat a partial export as whole.
  return quarantined.empty() ? 0 : 3;
}

int run_worker_command(const Options& options, const cli::RunOptions& run) {
  if (options.connect.empty()) {
    std::fprintf(stderr, "worker requires --connect=ENDPOINT\n");
    return 2;
  }
  install_signal_handlers();

  std::optional<serve::FaultInjector> injector;
  std::optional<serve::ScopedFaultInjector> injector_guard;
  if (!options.faults.empty()) {
    injector.emplace(serve::parse_fault_plan(options.faults));
    injector_guard.emplace(*injector);
  }

  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  serve::WorkerOptions worker_options;
  worker_options.worker_id = options.worker_id;
  worker_options.threads_per_trial = run.threads_per_trial;
  worker_options.stop = &g_stop;
  if (!run.quiet) {
    worker_options.log = [](const std::string& line) {
      std::fprintf(stderr, "%s\n", line.c_str());
    };
  }
  // An injected crash kills the whole process (exit 137, like kill -9 would
  // report), so the serve supervisor's respawn path is what heals it.
  worker_options.crash = [] { ::_exit(137); };
  const std::string endpoint = options.connect;
  const serve::WorkerStats stats = serve::run_worker(
      [&endpoint] { return serve::connect_endpoint(endpoint); },
      registry.all(), worker_options);
  std::fprintf(stderr,
               "[worker %s] %s: %zu unit(s), %zu trial(s), %zu duplicate "
               "commit(s), %zu reconnect(s)\n",
               stats.worker_id.c_str(), stats.stopped ? "stopped" : "done",
               stats.units, stats.trials, stats.duplicates, stats.reconnects);
  if (injector.has_value()) {
    std::fprintf(stderr, "[worker %s] faults injected: %s\n",
                 stats.worker_id.c_str(),
                 injector->totals().summary().c_str());
  }
  return stats.stopped ? 130 : 0;
}

int run_submit(const Options& options, const cli::RunOptions& run) {
  if (options.connect.empty()) {
    std::fprintf(stderr, "submit requires --connect=ENDPOINT\n");
    return 2;
  }
  std::string payload = "{\"type\":\"submit\"";
  payload += ",\"filter\":\"" + run.filter + "\"";
  payload += ",\"seed\":" + std::to_string(run.seed);
  payload += ",\"trials\":" + std::to_string(run.trials);
  payload += "}";
  const std::optional<std::string> reply = rpc(options.connect, payload);
  if (!reply.has_value()) return 1;
  if (jsonl::field(*reply, "type") == "error") {
    std::fprintf(stderr, "submit rejected: %s\n",
                 std::string(jsonl::field(*reply, "message")).c_str());
    return 1;
  }
  std::printf("submitted: %s scenario(s), %s trial(s)\n",
              std::string(jsonl::field(*reply, "scenarios")).c_str(),
              std::string(jsonl::field(*reply, "total_trials")).c_str());
  return 0;
}

int run_status(const Options& options) {
  if (options.connect.empty()) {
    std::fprintf(stderr, "status requires --connect=ENDPOINT\n");
    return 2;
  }
  const std::optional<std::string> reply =
      rpc(options.connect, "{\"type\":\"status\"}");
  if (!reply.has_value()) return 1;
  if (jsonl::field(*reply, "type") != "state") {
    std::fprintf(stderr, "unexpected reply: %s\n", reply->c_str());
    return 1;
  }
  const auto show = [&](const char* key) {
    std::printf("%-14s %s\n", key,
                std::string(jsonl::field(*reply, key)).c_str());
  };
  show("loaded");
  show("finished");
  show("scenarios");
  show("total_trials");
  show("committed");
  show("resumed");
  show("units_pending");
  show("units_leased");
  show("units_done");
  show("units_quarantined");
  show("trials_quarantined");
  show("workers");
  show("lease_expiries");
  show("speculative_dispatches");
  show("journal_errors");
  show("lease_ms_effective");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  cli::RunOptions run;
  cli::Flags flags;
  flags.on("--idle", options.idle)
      .text("--listen", options.listen)
      .text("--connect", options.connect)
      .text("--id", options.worker_id)
      .text("--quarantine-jsonl", options.quarantine_jsonl_path)
      .text("--faults", options.faults)
      .number("--unit-trials", options.unit_trials)
      .number("--lease-secs", options.lease_secs)
      .number("--spawn", options.spawn);
  if (argc >= 2) options.command = argv[1];
  if (options.command == "--help" || options.command == "-h") {
    usage();
    return 0;
  }
  if (argc < 2 || !cli::parse_command_line(argc, argv, 2, flags, run)) {
    usage();
    return 2;
  }
  if (!(options.lease_secs > 0)) {
    std::fprintf(stderr, "--lease-secs must be > 0\n");
    usage();
    return 2;
  }
  if (run.help) {
    usage();
    return 0;
  }
  try {
    if (options.command == "serve") return run_serve(options, run);
    if (options.command == "worker") return run_worker_command(options, run);
    if (options.command == "submit") return run_submit(options, run);
    if (options.command == "status") return run_status(options);
    std::fprintf(stderr, "unknown command: %s\n", options.command.c_str());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
