// The repository benchmark binary. perfbench/run.py builds and drives it;
// see perfbench/README.md for the workloads, metrics and layer map.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 --out=DIR
//             [--tiny] [--corrupt-row] [--expect-digest=HEX] [--print-digest]
//   perfbench --self-test
//
// Every workload is a closed loop of at most four worker threads (or
// connections). A run first checks the workload's canonical untimed export
// against the expected digest, then repeats whole passes of the workload
// until --seconds have elapsed, each pass under its own master seed derived
// from --seed. End-to-end metrics are medians over untraced passes. With
// --trace=1, passes come in pairs over one master seed, first untraced and
// then traced; the traced pass installs timing shims around the scenario
// builders and trial runner, the engine telemetry, spans in the audit
// observer and a frame relay in front of the serve coordinator. Per-layer
// metrics are medians over the traced passes, and trace_overhead_frac
// compares each pair.
//
// The last stdout line is "RESULT <json>"; the exit code is 0 when the
// correctness gate held, 1 when it failed and 2 on a usage error.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/builtin_scenarios.hpp"
#include "campaign/contract.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "campaign/jsonl.hpp"
#include "core/audit.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "obs/rss.hpp"
#include "obs/telemetry.hpp"
#include "serve/checkpoint.hpp"
#include "serve/coordinator.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "stats/stats.hpp"
#include "support.hpp"

namespace {

using namespace dualrad;
using campaign::Scenario;
using campaign::TrialRow;
using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::seconds_between;
using perfbench::SpanLog;

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kCanonicalSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/results";
  bool tiny = false;
  bool corrupt_row = false;
  bool print_digest = false;
  std::string expect_digest;
};

/// The shape of one workload at full or tiny size.
struct Shape {
  std::vector<std::string> scenarios;
  std::size_t trials = 1;            ///< trials per scenario per pass
  std::size_t canonical_trials = 1;  ///< per scenario in the canonical check
  Round measure_cap = 0;             ///< giant-1m: rounds per measured trial
  Round canonical_cap = 0;           ///< giant-1m: canonical round cap
};

[[nodiscard]] std::vector<std::string> grid(const std::vector<std::string>& families,
                                            const std::vector<std::string>& arms) {
  std::vector<std::string> out;
  for (const std::string& f : families) {
    for (const std::string& a : arms) out.push_back(f + "/" + a);
  }
  return out;
}

[[nodiscard]] Shape shape_of(const std::string& workload, bool tiny) {
  const std::vector<std::string> channels = {"benign", "bernoulli:0.1", "greedy"};
  Shape s;
  if (workload == "sweep-10k") {
    const std::string n = tiny ? "1k" : "10k";
    s.scenarios = grid({"scale/decay/layered-" + n, "scale/decay/grayzone-" + n},
                       channels);
    s.trials = tiny ? 2 : 32;
  } else if (workload == "giant-1m") {
    s.scenarios = {tiny ? "scale/decay/layered-10k/benign"
                        : "scale/decay/layered-1m/benign"};
    // Completion takes 4050-4800 rounds depending on the trial seed, at a
    // near-constant ~2940 sends per round. Capping every measured trial at
    // 1000 rounds makes the work per pass the same for every seed, so
    // wall_s and trial_ms_p50 measure the code rather than the seed, and
    // short passes let a run take the median of several.
    s.measure_cap = tiny ? 0 : 1000;
    s.canonical_cap = tiny ? 64 : 256;
  } else if (workload == "audit-byz-1k") {
    s.scenarios = {"byz/layered-1k/cpa/f=1-silent",   "byz/layered-1k/cpa/f=1-forge",
                   "byz/layered-1k/decay/f=1-silent", "byz/layered-1k/decay/f=1-forge",
                   "byz/layered-1k/cpa/f=2-forge",    "byz/layered-1k/decay/f=2-forge",
                   "byz/grayzone-1k/cpa/f=1-forge",   "byz/grayzone-1k/decay/f=1-forge",
                   "byz/grayzone-1k/cpa/f=2-silent"};
    s.trials = 1;
  } else if (workload == "serve-1k") {
    s.scenarios = grid({"scale/decay/layered-1k", "scale/decay/grayzone-1k"},
                       channels);
    s.trials = tiny ? 4 : 200;
    s.canonical_trials = 4;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return s;
}

[[nodiscard]] std::vector<Scenario> resolve(const std::vector<std::string>& names) {
  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  std::vector<Scenario> out;
  out.reserve(names.size());
  for (const std::string& n : names) out.push_back(registry.at(n));
  return out;
}

/// Byzantine arms whose algorithm does not certify tokens: the only arms on
/// which a forged token may win and the broadcast contract may fail.
[[nodiscard]] bool uncertified_forge_arm(const std::string& name) {
  return name.find("/decay/") != std::string::npos &&
         name.find("-forge") != std::string::npos;
}

// --- per-pass probe ----------------------------------------------------------

/// Everything one pass measures. The shims below write into it from worker
/// threads, under `mutex`.
struct Probe {
  explicit Probe(SpanLog& log, bool traced) : log(log), traced(traced) {}

  SpanLog& log;
  const bool traced;
  std::atomic<std::uint64_t> first_trial_ns{0};

  std::mutex mutex;
  // trial clock (serve-1k, whose committed rows carry no wall time)
  std::vector<double> clock_ms;
  std::uint64_t clock_rounds = 0;
  // graph / algorithms
  double build_ms = 0;
  double factory_ms = 0;
  std::map<std::string, double> csr_mb;
  // core
  double run_ms = 0;
  std::array<std::uint64_t, obs::kPhaseCount> phase_ns{};
  obs::RoundCounters counts{};
  double imbalance_sum = 0;
  std::size_t imbalance_trials = 0;
  // trace / audit / contract / byz (filled by the audit observer)
  double blob_mb = 0;
  double audit_ms = 0;
  double contract_ms = 0;
  double observer_ms = 0;
  std::uint64_t injections = 0;
  std::uint64_t forged_tokens = 0;
  std::uint64_t forged_wins = 0;
  // campaign
  double export_ms = 0;
  // serve
  std::vector<double> lease_ms;
  std::vector<double> commit_ms;
  std::uint64_t wire_bytes = 0;
  double serve_setup_ms = 0;
  std::map<std::string, double> serve_counts;

  void mark_first_trial() {
    std::uint64_t expected = 0;
    if (first_trial_ns.load(std::memory_order_relaxed) == 0) {
      first_trial_ns.compare_exchange_strong(expected, now_ns());
    }
  }
};

[[nodiscard]] double csr_mb(const DualGraph& net) {
  const auto bytes = [](const CsrGraph& g) {
    return static_cast<double>(g.node_count() + 1) * sizeof(std::uint32_t) +
           static_cast<double>(g.edge_count()) * sizeof(NodeId);
  };
  return (bytes(net.g_csr()) + bytes(net.g_prime_csr()) +
          bytes(net.unreliable_csr())) /
         (1024.0 * 1024.0);
}

/// Install the pass's shims into copies of the scenarios. Always: a marker
/// of the first trial start (setup_s ends there). With `clock_trials`: a
/// trial clock around the runner. Traced passes add spans around the network
/// and algorithm builders and the runner, and attach the engine telemetry.
[[nodiscard]] std::vector<Scenario> instrument(const std::vector<Scenario>& pristine,
                                               Probe& probe, bool clock_trials) {
  std::vector<Scenario> out = pristine;
  Probe* p = &probe;
  for (Scenario& s : out) {
    s.adversary = [inner = s.adversary, p](std::uint64_t seed) {
      p->mark_first_trial();
      return inner(seed);
    };
    if (!clock_trials && !probe.traced) continue;
    if (probe.traced) {
      s.network = [inner = s.network, p, name = s.name] {
        ScopedSpan span(p->log, "graph.build");
        const std::uint64_t t0 = now_ns();
        DualGraph net = inner();
        const double ms = seconds_between(t0, now_ns()) * 1e3;
        const double mb = csr_mb(net);
        const std::lock_guard<std::mutex> lock(p->mutex);
        p->build_ms += ms;
        p->csr_mb[name] = mb;
        return net;
      };
      s.algorithm = [inner = s.algorithm, p](const DualGraph& net) {
        ScopedSpan span(p->log, "algorithms.factory");
        const std::uint64_t t0 = now_ns();
        ProcessFactory factory = inner(net);
        const double ms = seconds_between(t0, now_ns()) * 1e3;
        const std::lock_guard<std::mutex> lock(p->mutex);
        p->factory_ms += ms;
        return factory;
      };
    }
    s.runner = [inner = s.runner, p, clock_trials](
                   const DualGraph& net, const ProcessFactory& factory,
                   Adversary& adversary, const SimConfig& config) {
      SimConfig cfg = config;
      obs::RoundTelemetry telemetry(1);
      if (p->traced) cfg.telemetry = &telemetry;
      // giant-1m's 4-shard rerun feeds core.shard_imbalance only, so that
      // every other core.* metric times the same serial kernel as the
      // gated rounds_per_s.
      const bool sharded = cfg.threads > 1;
      std::optional<ScopedSpan> span;
      if (p->traced) span.emplace(p->log, sharded ? "core.sharded_run" : "core.run");
      const std::uint64_t t0 = now_ns();
      SimResult result = inner ? inner(net, factory, adversary, cfg)
                               : run_broadcast(net, factory, adversary, cfg);
      const double ms = seconds_between(t0, now_ns()) * 1e3;
      span.reset();
      const std::lock_guard<std::mutex> lock(p->mutex);
      if (clock_trials) {
        p->clock_ms.push_back(ms);
        p->clock_rounds += static_cast<std::uint64_t>(result.rounds_executed);
      }
      if (p->traced && !sharded) {
        p->run_ms += ms;
        for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
          p->phase_ns[i] += telemetry.total_phase_ns(static_cast<obs::Phase>(i));
        }
        p->counts.add(telemetry.totals());
      }
      if (p->traced) {
        // Imbalance of the sharded trials only (max/mean touched).
        const auto& shards = telemetry.shard_totals();
        double max = 0, sum = 0;
        for (const auto& st : shards) {
          max = std::max(max, static_cast<double>(st.touched));
          sum += static_cast<double>(st.touched);
        }
        if (shards.size() > 1 && sum > 0) {
          p->imbalance_sum += max / (sum / static_cast<double>(shards.size()));
          ++p->imbalance_trials;
        }
      }
      return result;
    };
  }
  return out;
}

// --- passes -----------------------------------------------------------------

struct Pass {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;
  double trial_s = 0;  ///< trial phase: first trial start to last trial end
  std::uint64_t trials = 0;
  std::uint64_t rounds = 0;
  double trials_per_s = 0;
  double rounds_per_s = 0;
  double rounds_per_s_1t = 0;
  std::vector<double> trial_ms;
  std::uint64_t failed = 0;
  std::string digest;  ///< untimed trial export of the pass
  std::map<std::string, double> layer;  ///< per-layer metrics (traced only)
};

struct Gate {
  std::vector<std::string> errors;
  void fail(std::string what) {
    std::fprintf(stderr, "[gate] FAIL: %s\n", what.c_str());
    errors.push_back(std::move(what));
  }
};

[[nodiscard]] std::vector<TrialRow> untimed(std::vector<TrialRow> rows) {
  for (TrialRow& r : rows) r.wall_us = -1;
  return rows;
}

[[nodiscard]] std::string export_digest(const std::vector<TrialRow>& rows) {
  return perfbench::fnv1a_hex(campaign::trials_to_jsonl(untimed(rows)));
}

/// Writes the pass's JSONL export (the user-visible artifact) and returns
/// its duration in milliseconds.
double write_export(const campaign::CampaignResult& result, const std::string& path,
                    Probe& probe) {
  ScopedSpan span(probe.log, "campaign.export");
  const std::uint64_t t0 = now_ns();
  campaign::write_file(path, campaign::trials_to_jsonl(result.trials) +
                                 campaign::summaries_to_jsonl(result.summaries));
  return seconds_between(t0, now_ns()) * 1e3;
}

/// Common end-to-end fields of a campaign-shaped pass.
void finish_rows(Pass& pass, const std::vector<TrialRow>& rows) {
  pass.trials = rows.size();
  double busy_s = 0;
  for (const TrialRow& r : rows) {
    pass.rounds += static_cast<std::uint64_t>(r.rounds_executed);
    if (r.wall_us >= 0) {
      pass.trial_ms.push_back(static_cast<double>(r.wall_us) / 1e3);
      busy_s += static_cast<double>(r.wall_us) / 1e6;
    }
  }
  if (pass.trial_s > 0) {
    pass.trials_per_s = static_cast<double>(pass.trials) / pass.trial_s;
    pass.rounds_per_s = static_cast<double>(pass.rounds) / pass.trial_s;
  }
  if (busy_s > 0) pass.rounds_per_s_1t = static_cast<double>(pass.rounds) / busy_s;
}

/// Per-layer metrics common to every traced pass. Idle layers read 0.
/// `campaign_threads`: the run_campaign pool size, 0 when the pass has none.
void fill_layers(Pass& pass, Probe& probe, unsigned campaign_threads) {
  auto& m = pass.layer;
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto& ph = probe.phase_ns;
  const obs::RoundCounters& c = probe.counts;
  m["graph.build_ms"] = probe.build_ms;
  double csr = 0;
  for (const auto& [name, mb] : probe.csr_mb) csr += mb;
  m["graph.csr_mb"] = csr;
  m["algorithms.factory_ms"] = probe.factory_ms;
  std::uint64_t phases = 0;
  for (const std::uint64_t ns : ph) phases += ns;
  m["core.run_ms"] = probe.run_ms;
  m["core.poll_ms"] = ms(ph[static_cast<std::size_t>(obs::Phase::Poll)]);
  m["core.adversary_ms"] = ms(ph[static_cast<std::size_t>(obs::Phase::Adversary)]);
  m["core.propagate_ms"] = ms(ph[static_cast<std::size_t>(obs::Phase::Propagate)]);
  m["core.deliver_ms"] = ms(ph[static_cast<std::size_t>(obs::Phase::Deliver)]);
  m["core.merge_ms"] = ms(ph[static_cast<std::size_t>(obs::Phase::ShardMerge)]);
  m["core.outside_phases_ms"] = std::max(0.0, probe.run_ms - ms(phases));
  m["core.polled"] = static_cast<double>(c.polled);
  m["core.senders"] = static_cast<double>(c.senders);
  m["core.deliveries"] = static_cast<double>(c.deliveries);
  m["core.collisions"] = static_cast<double>(c.collisions);
  m["core.calendar_scanned"] = static_cast<double>(c.calendar_scanned);
  m["core.replans"] = static_cast<double>(c.replans);
  m["core.reach_appends"] = static_cast<double>(c.reach_appends);
  m["core.send_ratio"] = ratio(static_cast<double>(c.senders), static_cast<double>(c.polled));
  m["core.calendar_live_ratio"] =
      ratio(static_cast<double>(c.polled), static_cast<double>(c.calendar_scanned));
  m["core.poll_ns_per_poll"] =
      ratio(static_cast<double>(ph[static_cast<std::size_t>(obs::Phase::Poll)]),
            static_cast<double>(c.polled));
  m["core.deliver_ns_per_delivery"] =
      ratio(static_cast<double>(ph[static_cast<std::size_t>(obs::Phase::Deliver)]),
            static_cast<double>(c.deliveries));
  m["core.sharded_rounds_per_s"] = 0.0;  // giant-1m sets these two
  m["core.shard_speedup"] = 0.0;
  m["core.shard_imbalance"] =
      probe.imbalance_trials > 0
          ? probe.imbalance_sum / static_cast<double>(probe.imbalance_trials)
          : 1.0;
  m["trace.blob_mb"] = probe.blob_mb;
  m["audit.ms"] = probe.audit_ms;
  m["contract.ms"] = probe.contract_ms;
  m["audit.serial_share"] = ratio(probe.observer_ms, pass.trial_s * 1e3);
  m["byz.injections"] = static_cast<double>(probe.injections);
  m["byz.forged_tokens"] = static_cast<double>(probe.forged_tokens);
  m["byz.forged_wins"] = static_cast<double>(probe.forged_wins);
  double busy_ms = 0;
  for (const double t : pass.trial_ms) busy_ms += t;
  m["campaign.busy_frac"] = ratio(busy_ms, campaign_threads * pass.trial_s * 1e3);
  m["campaign.export_ms"] = probe.export_ms;
  const auto pct = [](const std::vector<double>& v, double p) {
    return perfbench::tail_percentile(v, p).value_or(0.0);
  };
  m["serve.lease_ms_p50"] = perfbench::nearest_rank(probe.lease_ms, 50).value_or(0.0);
  m["serve.lease_ms_p99"] = pct(probe.lease_ms, 99);
  m["serve.commit_ms_p50"] = perfbench::nearest_rank(probe.commit_ms, 50).value_or(0.0);
  m["serve.commit_ms_p99"] = pct(probe.commit_ms, 99);
  m["serve.wire_bytes_per_trial"] =
      ratio(static_cast<double>(probe.wire_bytes), static_cast<double>(pass.trials));
  double clock_sum = 0;  // the trial clock runs on serve-1k only
  for (const double t : probe.clock_ms) clock_sum += t;
  m["serve.busy_frac"] = ratio(clock_sum, kThreads * pass.trial_s * 1e3);
  m["serve.setup_ms"] = probe.serve_setup_ms;
  for (const char* key : {"serve.duplicate_commits", "serve.lease_expiries",
                          "serve.speculative_dispatches", "serve.reconnects",
                          "serve.journal_errors"}) {
    m[key] = probe.serve_counts[key];
  }
}

// --- workloads -------------------------------------------------------------

struct Context {
  Options opt;
  Shape shape;
  std::vector<Scenario> pristine;
  SpanLog& log;
  Gate& gate;
};

/// sweep-10k / audit-byz-1k: one batch run_campaign plus its JSONL export.
Pass campaign_pass(Context& ctx, std::uint64_t master, bool traced,
                   std::size_t trials, bool canonical) {
  const bool audited = ctx.opt.workload == "audit-byz-1k";
  Probe probe(ctx.log, traced);
  Pass pass;
  pass.traced = traced;
  ScopedSpan root(ctx.log, "bench.pass", true);
  const std::uint64_t t0 = now_ns();
  const std::vector<Scenario> scenarios = instrument(ctx.pristine, probe, false);

  campaign::CampaignConfig config;
  config.master_seed = master;
  config.threads = kThreads;
  config.threads_per_trial = 1;
  config.trials_override = trials;
  config.measure_wall_time = true;

  // The audit observer mirrors `dualrad_campaign --audit --fail-on-contract`:
  // networks for the auditor are built lazily, and the engine serializes
  // the observer under one mutex.
  std::map<std::string, DualGraph> audit_nets;
  std::uint64_t observer_failed = 0;
  if (audited) {
    config.trial_trace = TraceLevel::Compressed;
    config.observer = [&](const Scenario& s, const TrialRow& row, const SimResult& r) {
      const std::uint64_t t_obs = now_ns();
      auto it = audit_nets.find(s.name);
      if (it == audit_nets.end()) {
        // The pristine builder: the auditor's network is not a setup build.
        const auto spec = std::find_if(ctx.pristine.begin(), ctx.pristine.end(),
                                       [&](const Scenario& p) { return p.name == s.name; });
        it = audit_nets.emplace(s.name, spec->network()).first;
      }
      const std::uint64_t t_a = now_ns();
      audit::AuditReport report;
      {
        ScopedSpan span(ctx.log, "audit.execution");
        report = audit::audit_execution(it->second, r, s.rule, s.token_sources);
      }
      const std::uint64_t t_c = now_ns();
      std::vector<std::string> violations;
      {
        ScopedSpan span(ctx.log, "contract.check");
        violations = campaign::check_broadcast_contract(s, row, r);
      }
      const std::uint64_t t_end = now_ns();
      const std::string tag = s.name + "#" + std::to_string(row.trial);
      bool bad = false;
      if (!report.ok) {
        ctx.gate.fail("audit violation in " + tag + ": " + report.violations.front());
        bad = true;
      }
      if (!violations.empty() && !uncertified_forge_arm(s.name)) {
        ctx.gate.fail("unexpected contract verdict in " + tag + ": " + violations.front());
        bad = true;
      }
      if (bad) ++observer_failed;
      probe.blob_mb = std::max(probe.blob_mb,
                               static_cast<double>(r.trace.blob.size()) / (1024.0 * 1024.0));
      probe.audit_ms += seconds_between(t_a, t_c) * 1e3;
      probe.contract_ms += seconds_between(t_c, t_end) * 1e3;
      probe.observer_ms += seconds_between(t_obs, t_end) * 1e3;
      for (const ForgedTokenRecord& f : r.forged_tokens) {
        probe.injections += f.injections;
        ++probe.forged_tokens;
        if (f.won()) ++probe.forged_wins;
      }
    };
  }

  campaign::CampaignResult result;
  {
    ScopedSpan span(ctx.log, "campaign.run", true);
    result = campaign::run_campaign(scenarios, config);
  }
  const std::uint64_t t_trials_end = now_ns();
  if (!canonical) {
    probe.export_ms = write_export(
        result, ctx.opt.out + "/" + ctx.opt.workload + ".jsonl", probe);
  }
  const std::uint64_t t_end = now_ns();
  root.close();

  const std::uint64_t first = probe.first_trial_ns.load();
  pass.setup_s = seconds_between(t0, first);
  pass.trial_s = seconds_between(first, t_trials_end);
  pass.wall_s = seconds_between(t0, t_end);
  pass.failed = observer_failed;
  if (ctx.opt.corrupt_row && canonical && !result.trials.empty()) {
    result.trials.front().sends += 1;  // the self-test's deliberate alteration
  }
  pass.digest = export_digest(result.trials);
  finish_rows(pass, result.trials);
  if (traced) fill_layers(pass, probe, kThreads);
  return pass;
}

/// giant-1m: build the 10^6-node scenario, run one trial serially, then the
/// same trial at 4 shards on that build, and check that both agree. The
/// end-to-end metrics time the build and the serial trial. The 4-shard
/// kernel synchronises its shards every round, so one descheduled vCPU
/// stalls all four: on a shared 4-vCPU host its rate drifts by 25-45%
/// between runs minutes apart while the serial rate drifts ~13%. It is
/// therefore reported per layer (core.sharded_rounds_per_s,
/// core.shard_speedup) and not gated.
Pass giant_pass(Context& ctx, std::uint64_t master, bool traced, bool canonical) {
  Probe probe(ctx.log, traced);
  Pass pass;
  pass.traced = traced;
  ScopedSpan root(ctx.log, "bench.pass", true);
  std::vector<Scenario> scenarios = instrument(ctx.pristine, probe, false);
  const Round cap = canonical ? ctx.shape.canonical_cap : ctx.shape.measure_cap;
  if (cap > 0) scenarios.front().max_rounds = cap;

  const std::uint64_t t0 = now_ns();
  const campaign::TrialExecutor executor(scenarios.front(), master);
  const std::uint64_t t_setup = now_ns();
  campaign::TrialOptions serial;
  serial.measure_wall_time = true;
  campaign::TrialExecutor::Outcome a = executor.run(0, serial);
  const std::uint64_t t_serial = now_ns();
  campaign::TrialOptions sharded = serial;
  sharded.threads_per_trial = kThreads;
  const campaign::TrialExecutor::Outcome b = executor.run(0, sharded);
  root.close();

  if (ctx.opt.corrupt_row) a.row.sends += 1;
  if (untimed({a.row}) != untimed({b.row}) || a.sim.first_token != b.sim.first_token ||
      a.sim.completion_round != b.sim.completion_round) {
    ctx.gate.fail("giant-1m: serial and 4-shard runs disagree (completion " +
                  std::to_string(a.sim.completion_round) + " vs " +
                  std::to_string(b.sim.completion_round) + ", sends " +
                  std::to_string(a.row.sends) + " vs " + std::to_string(b.row.sends) + ")");
    pass.failed = 2;
  }

  const double ta = static_cast<double>(a.row.wall_us) / 1e6;
  const double tb = static_cast<double>(b.row.wall_us) / 1e6;
  pass.setup_s = seconds_between(t0, t_setup);
  pass.trial_s = ta;
  pass.wall_s = seconds_between(t0, t_serial);
  pass.trials = 2;
  pass.trials_per_s = ta > 0 ? 1.0 / ta : 0;
  pass.rounds = static_cast<std::uint64_t>(a.row.rounds_executed);
  pass.trial_ms = {ta * 1e3};
  pass.rounds_per_s = ta > 0 ? static_cast<double>(a.row.rounds_executed) / ta : 0;
  pass.rounds_per_s_1t = pass.rounds_per_s;
  pass.digest = export_digest({a.row, b.row});
  if (traced) {
    fill_layers(pass, probe, 0);
    pass.layer["core.sharded_rounds_per_s"] =
        tb > 0 ? static_cast<double>(b.row.rounds_executed) / tb : 0;
    pass.layer["core.shard_speedup"] = tb > 0 ? ta / tb : 0;
  }
  return pass;
}

/// The in-process serve stack: every connect() makes a socketpair whose far
/// end a Server handler thread serves. Traced passes put a frame relay built
/// on recv_frame/send_frame between the worker and the handler; it times
/// each request/reply exchange by message type and counts wire bytes.
class Loopback {
 public:
  Loopback(serve::Server& server, Probe& probe) : server_(server), probe_(probe) {}
  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;
  ~Loopback() { shutdown(); }

  int connect() {
    int a[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, a) != 0) return -1;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!probe_.traced) {
      threads_.emplace_back([this, fd = a[1]] { server_.handle_connection(fd); });
      return a[0];
    }
    int b[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, b) != 0) {
      ::close(a[0]);
      ::close(a[1]);
      return -1;
    }
    threads_.emplace_back([this, fd = b[1]] { server_.handle_connection(fd); });
    threads_.emplace_back([this, w = a[1], s = b[0]] { relay(w, s); });
    return a[0];
  }

  /// Stop the handlers and relays and join them (workers must be done).
  void shutdown() {
    stop_.store(true);
    server_.request_stop();
    std::vector<std::thread> threads;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      threads.swap(threads_);
    }
    for (std::thread& t : threads) t.join();
  }

 private:
  void relay(int worker_fd, int server_fd) {
    serve::FrameReader from_worker;
    serve::FrameReader from_server;
    for (;;) {
      bool timed_out = false;
      const std::optional<std::string> request =
          serve::recv_frame(worker_fd, from_worker, 200, &timed_out);
      if (!request) {
        if (timed_out && !stop_.load()) continue;
        break;
      }
      const std::string type(campaign::jsonl::field(*request, "type"));
      std::optional<ScopedSpan> span;
      span.emplace(probe_.log, "serve." + type);
      const std::uint64_t t0 = now_ns();
      if (!serve::send_frame(server_fd, *request)) break;
      std::uint64_t bytes = request->size() + 8;
      if (type != "telemetry") {
        std::optional<std::string> reply;
        do {
          reply = serve::recv_frame(server_fd, from_server, 200, &timed_out);
        } while (!reply && timed_out && !stop_.load());
        if (!reply) break;
        bytes += reply->size() + 8;
        const double ms = seconds_between(t0, now_ns()) * 1e3;
        span.reset();
        {
          const std::lock_guard<std::mutex> lock(probe_.mutex);
          if (type == "lease") probe_.lease_ms.push_back(ms);
          if (type == "commit") probe_.commit_ms.push_back(ms);
        }
        if (!serve::send_frame(worker_fd, *reply)) break;
      }
      const std::lock_guard<std::mutex> lock(probe_.mutex);
      probe_.wire_bytes += bytes;
    }
    ::close(worker_fd);
    ::close(server_fd);
  }

  serve::Server& server_;
  Probe& probe_;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::vector<std::thread> threads_;
};

/// serve-1k: an in-process coordinator with an fsync journal and one trial
/// per work unit, drained by four run_worker threads over socketpairs.
/// `batch_check` additionally compares the merged export byte-for-byte with
/// a batch run_campaign of the same grid.
Pass serve_pass(Context& ctx, std::uint64_t master, bool traced, std::size_t trials,
                bool canonical, bool batch_check) {
  Probe probe(ctx.log, traced);
  Pass pass;
  pass.traced = traced;
  const std::string journal = ctx.opt.out + "/serve-journal.log";
  std::filesystem::remove(journal);

  ScopedSpan root(ctx.log, "bench.pass", true);
  const std::uint64_t t0 = now_ns();
  const std::vector<Scenario> scenarios = instrument(ctx.pristine, probe, true);
  serve::Coordinator::Config cc;
  cc.master_seed = master;
  cc.trials_override = trials;
  cc.unit_trials = 1;
  cc.journal_path = journal;
  std::optional<serve::Coordinator> coordinator;
  {
    ScopedSpan span(ctx.log, "serve.setup");
    coordinator.emplace(cc);
    coordinator->load_campaign(scenarios);
  }
  probe.serve_setup_ms = seconds_between(t0, now_ns()) * 1e3;

  serve::Server server(*coordinator, {});
  std::vector<serve::WorkerStats> stats(kThreads);
  std::vector<std::string> errors(kThreads);
  {
    Loopback net(server, probe);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        serve::WorkerOptions options;
        options.poll = std::chrono::milliseconds(10);
        try {
          stats[w] = serve::run_worker([&] { return net.connect(); }, scenarios, options);
        } catch (const std::exception& e) {
          errors[w] = e.what();
        }
      });
    }
    for (std::thread& t : workers) t.join();
    net.shutdown();
  }
  const std::uint64_t t_trials_end = now_ns();
  for (const std::string& e : errors) {
    if (!e.empty()) ctx.gate.fail("serve worker: " + e);
  }

  const serve::Coordinator::Status status = coordinator->status();
  campaign::CampaignResult result = coordinator->finalize();
  if (!canonical) {
    probe.export_ms = write_export(result, ctx.opt.out + "/serve-1k.jsonl", probe);
  }
  const std::uint64_t t_end = now_ns();
  root.close();
  coordinator.reset();

  if (status.trials_quarantined > 0) {
    ctx.gate.fail("serve-1k: " + std::to_string(status.trials_quarantined) +
                  " trials quarantined");
    pass.failed += status.trials_quarantined;
  }
  if (ctx.opt.corrupt_row && canonical && !result.trials.empty()) {
    result.trials.front().sends += 1;
  }
  if (batch_check) {
    campaign::CampaignConfig config;
    config.master_seed = master;
    config.threads = kThreads;
    config.trials_override = trials;
    const campaign::CampaignResult batch = campaign::run_campaign(ctx.pristine, config);
    const std::string a = campaign::trials_to_jsonl(result.trials) +
                          campaign::summaries_to_jsonl(result.summaries);
    const std::string b = campaign::trials_to_jsonl(batch.trials) +
                          campaign::summaries_to_jsonl(batch.summaries);
    if (a != b) {
      std::size_t mismatched = 0;
      for (std::size_t i = 0; i < batch.trials.size(); ++i) {
        if (i >= result.trials.size() || result.trials[i] != batch.trials[i]) ++mismatched;
      }
      ctx.gate.fail("serve-1k export differs from batch run_campaign in " +
                    std::to_string(mismatched) + " rows");
      pass.failed += std::max<std::size_t>(mismatched, 1);
    }
  }

  const std::uint64_t first = probe.first_trial_ns.load();
  pass.setup_s = seconds_between(t0, first);
  pass.trial_s = seconds_between(first, t_trials_end);
  pass.wall_s = seconds_between(t0, t_end);
  pass.digest = export_digest(result.trials);
  finish_rows(pass, result.trials);
  // Committed rows carry no wall time: trial times come from the trial clock.
  pass.trial_ms = probe.clock_ms;
  double busy_s = 0;
  for (const double ms : probe.clock_ms) busy_s += ms / 1e3;
  if (busy_s > 0) {
    pass.rounds_per_s_1t = static_cast<double>(probe.clock_rounds) / busy_s;
  }
  if (traced) {
    std::size_t duplicates = 0, reconnects = 0;
    for (const serve::WorkerStats& s : stats) {
      duplicates += s.duplicates;
      reconnects += s.reconnects;
    }
    probe.serve_counts["serve.duplicate_commits"] = static_cast<double>(duplicates);
    probe.serve_counts["serve.reconnects"] = static_cast<double>(reconnects);
    probe.serve_counts["serve.lease_expiries"] = static_cast<double>(status.lease_expiries);
    probe.serve_counts["serve.speculative_dispatches"] =
        static_cast<double>(status.speculative_dispatches);
    probe.serve_counts["serve.journal_errors"] = static_cast<double>(status.journal_errors);
    fill_layers(pass, probe, 0);
  }
  return pass;
}

Pass run_pass(Context& ctx, std::uint64_t master, bool traced, bool canonical,
              bool batch_check) {
  const std::string& w = ctx.opt.workload;
  const std::size_t trials = canonical ? ctx.shape.canonical_trials : ctx.shape.trials;
  if (w == "giant-1m") return giant_pass(ctx, master, traced, canonical);
  if (w == "serve-1k") return serve_pass(ctx, master, traced, trials, canonical, batch_check);
  return campaign_pass(ctx, master, traced, trials, canonical);
}

/// checkpoint.append_ms_p50/_p99: a standalone JournalWriter::append run
/// (fsync per line) on the filesystem the serve journal lives on.
std::vector<double> journal_append_ms(const std::string& dir, std::size_t appends) {
  const std::string path = dir + "/append-probe.log";
  std::filesystem::remove(path);
  std::vector<double> out;
  {
    serve::JournalWriter writer;
    writer.open(path);
    TrialRow row;
    row.scenario = "scale/decay/layered-1k/benign";
    row.completed = true;
    row.rounds = 120;
    row.rounds_executed = 120;
    row.sends = 9000;
    for (std::size_t i = 0; i < appends; ++i) {
      row.trial = static_cast<std::uint32_t>(i);
      row.seed = i;
      const std::uint64_t t0 = now_ns();
      writer.append(row);
      out.push_back(seconds_between(t0, now_ns()) * 1e3);
    }
  }
  std::filesystem::remove(path);
  return out;
}

// --- output -----------------------------------------------------------------

[[nodiscard]] std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

[[nodiscard]] bool optimised_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void write_spans(const std::string& path, const std::vector<perfbench::Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self[i] << "}\n";
  }
}

int run(const Options& opt) {
  std::filesystem::create_directories(opt.out);
  SpanLog log(false);
  Gate gate;
  Context ctx{opt, shape_of(opt.workload, opt.tiny), {}, log, gate};
  ctx.pristine = resolve(ctx.shape.scenarios);

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.tiny ? " tiny" : "");
  std::printf("build: %s | %s | flags '%s'\n", PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              PERFBENCH_CXX_FLAGS);
  if (!optimised_build()) {
    std::printf("!!! NON-OPTIMISED BUILD: these numbers are not results !!!\n");
  }
  std::fflush(stdout);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Correctness gate, part 1: the canonical untimed export.
  std::string canonical_digest;
  try {
    const Pass c = run_pass(ctx, kCanonicalSeed, false, true, opt.workload == "serve-1k");
    canonical_digest = c.digest;
    attempted += c.trials;
    failed += c.failed;
    if (!opt.print_digest && canonical_digest != opt.expect_digest) {
      gate.fail("canonical export digest " + canonical_digest + " != expected " +
                (opt.expect_digest.empty() ? "(none)" : opt.expect_digest));
      failed += c.trials;
    }
  } catch (const std::exception& e) {
    gate.fail(std::string("canonical pass threw: ") + e.what());
    failed += 1;
    attempted += 1;
  }
  if (opt.print_digest) {
    std::printf("DIGEST %s\n", canonical_digest.c_str());
    return gate.errors.empty() ? 0 : 1;
  }

  // Measured passes.
  (void)obs::reset_peak();
  std::vector<Pass> passes;
  const std::uint64_t start = now_ns();
  std::size_t index = 0;
  do {
    const std::uint64_t master = mix_seed(opt.seed, 0xBE7C4 + index / (opt.trace ? 2 : 1));
    const bool traced = opt.trace && index % 2 == 1;
    log.set_enabled(traced);
    try {
      Pass p = run_pass(ctx, master, traced, false,
                        opt.workload == "serve-1k" && index == 0);
      attempted += p.trials;
      failed += p.failed;
      if (traced && p.digest != passes.back().digest) {
        gate.fail("traced pass export differs from its untraced twin");
        failed += p.trials;
      }
      std::fprintf(stderr,
                   "[pass %zu%s] setup %.4f s | wall %.4f s | trials %llu in %.4f s | "
                   "rounds/s %.1f | rounds/s 1t %.1f\n",
                   index, traced ? " traced" : "", p.setup_s, p.wall_s,
                   static_cast<unsigned long long>(p.trials), p.trial_s, p.rounds_per_s,
                   p.rounds_per_s_1t);
      passes.push_back(std::move(p));
    } catch (const std::exception& e) {
      gate.fail(std::string("pass threw: ") + e.what());
      failed += 1;
      attempted += 1;
      break;
    }
    ++index;
  } while (seconds_between(start, now_ns()) < opt.seconds || (opt.trace && index % 2 == 1));
  const double peak_rss = obs::peak_rss_mb();

  std::vector<Metric> metrics;
  std::vector<Pass> plain, traced;
  for (const Pass& p : passes) (p.traced ? traced : plain).push_back(p);
  const auto med = [&](const std::vector<Pass>& ps, auto field) {
    std::vector<double> v;
    for (const Pass& p : ps) v.push_back(field(p));
    return stats::summarize(v).median;
  };
  std::vector<double> trial_ms;
  for (const Pass& p : plain) trial_ms.insert(trial_ms.end(), p.trial_ms.begin(), p.trial_ms.end());

  if (!opt.trace) {
    metrics.push_back({"setup_s", med(plain, [](const Pass& p) { return p.setup_s; }), "s"});
    metrics.push_back({"wall_s", med(plain, [](const Pass& p) { return p.wall_s; }), "s"});
    metrics.push_back({"trials_per_s",
                       med(plain, [](const Pass& p) { return p.trials_per_s; }), "1/s"});
    metrics.push_back({"rounds_per_s", med(plain, [](const Pass& p) { return p.rounds_per_s; }),
                       "1/s"});
    metrics.push_back({"rounds_per_s_1t",
                       med(plain, [](const Pass& p) { return p.rounds_per_s_1t; }), "1/s"});
    metrics.push_back({"trial_ms_p50", stats::summarize(trial_ms).median, "ms"});
    metrics.push_back({"peak_rss_mb", peak_rss, "MB"});
  } else {
    std::map<std::string, std::vector<double>> per_layer;
    for (const Pass& p : traced) {
      for (const auto& [name, value] : p.layer) per_layer[name].push_back(value);
    }
    for (const auto& [name, values] : per_layer) {
      // Work counts are deterministic for a seed: take the first traced pass
      // so they repeat exactly across runs. Times and ratios: the median.
      static const std::set<std::string> kWorkCounts = {
          "core.polled",       "core.senders",        "core.deliveries",
          "core.collisions",   "core.calendar_scanned", "core.replans",
          "core.reach_appends", "byz.injections",     "byz.forged_tokens",
          "byz.forged_wins"};
      metrics.push_back({name,
                         kWorkCounts.count(name) ? values.front()
                                                 : stats::summarize(values).median,
                         ""});
    }
    std::vector<double> overhead;
    for (std::size_t i = 1; i < passes.size(); i += 2) {
      overhead.push_back(passes[i].wall_s / passes[i - 1].wall_s - 1.0);
    }
    metrics.push_back({"trace_overhead_frac", stats::summarize(overhead).median, "fraction"});
    if (opt.workload == "serve-1k") {
      const std::vector<double> appends = journal_append_ms(opt.out, 1000);
      metrics.push_back({"checkpoint.append_ms_p50",
                         perfbench::nearest_rank(appends, 50).value_or(0.0), "ms"});
      metrics.push_back({"checkpoint.append_ms_p99",
                         perfbench::tail_percentile(appends, 99).value_or(0.0), "ms"});
    } else {
      metrics.push_back({"checkpoint.append_ms_p50", 0.0, "ms"});
      metrics.push_back({"checkpoint.append_ms_p99", 0.0, "ms"});
    }
    const std::string spans_path = opt.out + "/spans-" + opt.workload + "-seed" +
                                   std::to_string(opt.seed) + ".jsonl";
    const std::vector<perfbench::Span> spans = log.spans();
    write_spans(spans_path, spans);
    std::map<std::string, double> self_ms;
    const std::vector<std::uint64_t> self = perfbench::self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self_ms[perfbench::layer_of(spans[i].name)] += static_cast<double>(self[i]) / 1e6;
    }
    std::printf("spans: %zu written to %s\n", spans.size(), spans_path.c_str());
    std::printf("layer self time over the run (ms):");
    for (const auto& [layer, ms] : self_ms) std::printf(" %s=%.1f", layer.c_str(), ms);
    std::printf("\n");
  }

  // Human-readable lines, then the machine-readable result.
  std::printf("passes: %zu (%zu untraced, %zu traced)\n", passes.size(), plain.size(),
              traced.size());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::optional<double> p90 = perfbench::tail_percentile(trial_ms, 90);
  if (p90) {
    std::printf("  %-32s %14.6g ms (n=%zu)\n", "trial_ms_p90", *p90, trial_ms.size());
  } else {
    std::printf("  %-32s %14s (n=%zu < 100: refused)\n", "trial_ms_p90", "-", trial_ms.size());
  }
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
  std::printf("  %-32s %14.6g (failed %llu of %llu)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  const bool correct = gate.errors.empty() && failed == 0;
  std::ostringstream json;
  json << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
       << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"tiny\":" << (opt.tiny ? "true" : "false")
       << ",\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
       << ",\"failed\":" << failed << ",\"failed_frac\":" << json_number(failed_frac)
       << ",\"passes\":" << passes.size() << ",\"canonical_digest\":\"" << canonical_digest
       << "\",\"build\":{\"type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"flags\":\""
       << PERFBENCH_CXX_FLAGS << "\",\"compiler\":\"" << PERFBENCH_COMPILER
       << "\",\"optimised\":" << (optimised_build() ? "true" : "false") << "}";
  json << ",\"trial_ms_p90\":" << (p90 ? json_number(*p90) : "null")
       << ",\"trial_samples\":" << trial_ms.size() << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? "," : "") << "\"" << metrics[i].name << "\":" << json_number(metrics[i].value);
  }
  json << "},\"gate\":[";
  for (std::size_t i = 0; i < gate.errors.size(); ++i) {
    std::string e = gate.errors[i];
    for (char& ch : e) {
      if (ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20) ch = '\'';
    }
    json << (i ? "," : "") << "\"" << e << "\"";
  }
  json << "]}";
  std::printf("RESULT %s\n", json.str().c_str());
  return correct ? 0 : 1;
}

// --- self-test ----------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  // Nearest rank: the smallest sample with at least p% of samples at or below.
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  check(perfbench::nearest_rank(ten, 50) == 5.0, "nearest-rank p50 of 1..10 is 5");
  check(perfbench::nearest_rank(ten, 90) == 9.0, "nearest-rank p90 of 1..10 is 9");
  check(perfbench::nearest_rank(ten, 100) == 10.0, "nearest-rank p100 is the max");
  check(perfbench::nearest_rank({7.0}, 50) == 7.0, "nearest-rank of one sample");
  check(!perfbench::nearest_rank({}, 50).has_value(), "nearest-rank refuses no samples");
  // Ten-beyond rule.
  std::vector<double> v99(99), v100(100), v999(999), v1000(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    if (i < 99) v99[i] = static_cast<double>(i + 1);
    if (i < 100) v100[i] = static_cast<double>(i + 1);
    if (i < 999) v999[i] = static_cast<double>(i + 1);
    v1000[i] = static_cast<double>(i + 1);
  }
  check(!perfbench::tail_percentile(v99, 90).has_value(), "p90 refused on 99 samples");
  check(perfbench::tail_percentile(v100, 90) == 90.0, "p90 of 1..100 is 90 (ten beyond)");
  check(!perfbench::tail_percentile(v999, 99).has_value(), "p99 refused on 999 samples");
  check(perfbench::tail_percentile(v1000, 99) == 990.0, "p99 of 1..1000 is 990");

  // Span self time: duration minus the union of (clipped) child intervals.
  using perfbench::Span;
  const std::vector<Span> spans = {
      {1, 0, 1, "bench.pass", 0, 100},
      {2, 1, 1, "campaign.run", 10, 30},
      {3, 1, 2, "core.run", 20, 50},    // overlaps span 2 (another thread)
      {4, 1, 3, "core.run", 60, 70},
      {5, 1, 4, "serve.commit", 90, 120},  // sticks out of the parent
      {6, 3, 2, "audit.execution", 25, 35},
  };
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  check(self[0] == 100 - (40 + 10 + 10), "pass self time = 100 - |[10,50]u[60,70]u[90,100]|");
  check(self[1] == 20, "leaf span self time = its duration");
  check(self[2] == 30 - 10, "nested child subtracted from its parent");
  check(self[4] == 30, "a leaf is not clipped by its parent");
  check(perfbench::layer_of("core.run") == "core", "layer of core.run is core");

  // The span log's parent tracking.
  SpanLog log(true);
  {
    ScopedSpan outer(log, "bench.pass", true);
    { ScopedSpan inner(log, "campaign.run"); }
    std::thread t([&] { ScopedSpan other(log, "core.run"); });
    t.join();
  }
  const std::vector<Span> recorded = log.spans();
  check(recorded.size() == 3, "three spans recorded");
  bool parents_ok = recorded.size() == 3;
  for (const Span& s : recorded) {
    if (s.name != "bench.pass" && s.parent != recorded.back().id) parents_ok = false;
  }
  check(parents_ok, "same-thread and pool-thread spans hang off the pass span");
  check(log.root() == 0, "closing a root span restores the previous root");
  SpanLog off(false);
  { ScopedSpan s(off, "x"); }
  check(off.spans().empty(), "a disabled log records nothing");

  check(perfbench::fnv1a_hex("") == "cbf29ce484222325", "fnv1a of the empty string");
  check(perfbench::fnv1a_hex("a") == "af63dc4c8601ec8c", "fnv1a of 'a'");

  std::printf("self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

[[nodiscard]] std::optional<std::string> flag(const std::string& arg, const std::string& key) {
  if (arg.rfind(key, 0) == 0) return arg.substr(key.size());
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool selftest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") {
        selftest = true;
      } else if (auto v = flag(arg, "--workload=")) {
        opt.workload = *v;
      } else if (auto v = flag(arg, "--seed=")) {
        opt.seed = std::stoull(*v);
      } else if (auto v = flag(arg, "--seconds=")) {
        opt.seconds = std::stod(*v);
      } else if (auto v = flag(arg, "--trace=")) {
        opt.trace = *v == "1";
      } else if (auto v = flag(arg, "--out=")) {
        opt.out = *v;
      } else if (arg == "--tiny") {
        opt.tiny = true;
      } else if (arg == "--corrupt-row") {
        opt.corrupt_row = true;
      } else if (arg == "--print-digest") {
        opt.print_digest = true;
      } else if (auto v = flag(arg, "--expect-digest=")) {
        opt.expect_digest = *v;
      } else {
        throw std::invalid_argument("unknown argument: " + arg);
      }
    }
    if (selftest) return self_test();
    (void)shape_of(opt.workload, opt.tiny);  // validates the name
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
    return 1;
  }
}
