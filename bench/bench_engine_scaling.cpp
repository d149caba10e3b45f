// Engine-scaling bench: the sparse CSR round engine vs the dense reference
// engine, and the serial round loop vs the sharded parallel kernel, on the
// scale/* workloads (Decay broadcast, sparse layered and gray-zone families,
// n in {1k, 10k, 100k, 1m}, benign / bernoulli / greedy-blocker channels —
// the greedy points exercise the sparse batch adversary API at scale).
//
// For every scale scenario this runs one campaign-seeded trial (master seed
// 1, trial 0 — the exact execution dualrad_campaign would run):
//   * under the production engine ("csr");
//   * under the reference engine where n makes that tolerable (n <= 10^4;
//     the reference's O(n)-per-round scans are the point of the comparison);
//   * at n >= 10^5, additionally under the sharded parallel kernel
//     ("csr-mt4", SimConfig::threads = 4) — bit-identical results, measured
//     separately.
// Every run records no trace (TraceLevel::None). Emits BENCH_engine.json: per (scenario, engine) the completion round, wall
// time (min over --repeat runs), rounds/sec, and the *per-measurement* peak
// RSS (the kernel high-water mark is reset before each measurement via
// obs::reset_peak, so a row's peak is its own, not inherited from earlier
// rows; where /proc/self/clear_refs is unavailable the column degrades to
// the monotone process-wide peak and the JSON flags it with
// "rss_per_scenario": false), plus speedup maps for engine-vs-reference and
// parallel-vs-serial.
//
// Usage: bench_engine_scaling [--quick] [--repeat=N] [--filter=SUBSTR]
//                             [--max-rss-mb=N] [--min-parallel-speedup=X]
//                             [--telemetry] [--out=PATH]
//   --quick       skip the "slow"-tagged points (n >= 10^5; CI-friendly)
//   --repeat=N    run each measurement N times and report the minimum wall
//                 time (de-noises the committed baseline; simulation output
//                 is identical across repeats). Slow-tagged points always
//                 run once.
//   --filter=S    restrict to scenarios whose name contains S
//   --max-rss-mb=N  exit nonzero if peak RSS ever exceeds N MiB (the CI
//                 memory-regression gate for the 10^6 smoke)
//   --min-parallel-speedup=X  exit nonzero if the best csr-mt4 vs csr
//                 rounds/sec ratio falls below X (only meaningful on
//                 multi-core hosts; the CI runners gate on it)
//   --telemetry   attach the obs::RoundTelemetry layer to every timed CSR
//                 run and print the per-phase wall-time breakdown per row
//                 (the reference engine has no telemetry). Off by default:
//                 committed baselines measure the telemetry-disabled
//                 (branch-on-null) hot path
//   --out         output path for the JSON report (default BENCH_engine.json)

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "core/reference_engine.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "obs/rss.hpp"
#include "obs/telemetry.hpp"
#include "stats/table.hpp"

namespace dualrad {
namespace {

enum class EngineKind { Csr, CsrParallel, Reference };

constexpr unsigned kParallelThreads = 4;

struct Measurement {
  std::string scenario;
  std::string engine;
  NodeId n = 0;
  unsigned threads = 1;
  bool completed = false;
  Round rounds = 0;
  std::uint64_t sends = 0;
  double wall_ms = 0.0;
  double rounds_per_sec = 0.0;
  double peak_rss_mb = 0.0;
  std::array<std::uint64_t, obs::kPhaseCount> phase_ns{};  // --telemetry only
};

// False once any obs::reset_peak() fails: the peak_rss_mb column is then the
// monotone process-wide high-water mark, and the JSON says so.
bool g_rss_per_scenario = true;

Measurement run_one(const campaign::Scenario& spec, const DualGraph& net,
                    const ProcessFactory& factory, EngineKind kind,
                    std::size_t repeat, obs::RoundTelemetry* telemetry) {
  SimConfig config;
  config.rule = spec.rule;
  config.start = spec.start;
  config.max_rounds = spec.max_rounds;
  config.seed = campaign::trial_seed(1, spec.name, 0);
  config.token_sources = spec.token_sources;
  if (kind == EngineKind::CsrParallel) config.threads = kParallelThreads;
  if (kind != EngineKind::Reference) config.telemetry = telemetry;

  // Per-measurement RSS: reset the kernel high-water mark so this row's peak
  // covers exactly this measurement's allocations (plus whatever is already
  // resident — the true working set it runs against).
  g_rss_per_scenario = obs::reset_peak() && g_rss_per_scenario;

  double best_seconds = 0.0;
  SimResult result;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(repeat, 1); ++rep) {
    // Fresh adversary per run: stateful adversaries replay the same stream.
    const auto adversary = spec.adversary(mix_seed(config.seed, 0xAD));
    const auto started = std::chrono::steady_clock::now();
    result = kind == EngineKind::Reference
                 ? run_broadcast_reference(net, factory, *adversary, config)
                 : run_broadcast(net, factory, *adversary, config);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count();
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
  }

  Measurement m;
  m.scenario = spec.name;
  switch (kind) {
    case EngineKind::Csr: m.engine = "csr"; break;
    case EngineKind::CsrParallel:
      m.engine = "csr-mt" + std::to_string(kParallelThreads);
      m.threads = kParallelThreads;
      break;
    case EngineKind::Reference: m.engine = "reference"; break;
  }
  m.n = net.node_count();
  m.completed = result.completed;
  m.rounds = result.rounds_executed;
  m.sends = result.total_sends;
  m.wall_ms = best_seconds * 1e3;
  m.rounds_per_sec =
      best_seconds > 0
          ? static_cast<double>(result.rounds_executed) / best_seconds
          : 0;
  m.peak_rss_mb = obs::peak_rss_mb();
  if (config.telemetry != nullptr) {
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      m.phase_ns[p] = telemetry->total_phase_ns(static_cast<obs::Phase>(p));
    }
  }
  return m;
}

// Scenario names are [A-Za-z0-9._/+:=-], so they embed in JSON unescaped.
void write_json(const std::string& path,
                const std::vector<Measurement>& measurements,
                const std::map<std::string, double>& speedups,
                const std::map<std::string, double>& parallel_speedups) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"engine_scaling\",\n  \"rss_per_scenario\": "
      << (g_rss_per_scenario ? "true" : "false") << ",\n  \"measurements\": [\n";
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"scenario\": \"%s\", \"engine\": \"%s\", \"n\": %d, "
                  "\"threads\": %u, \"completed\": %s, \"rounds\": %lld, "
                  "\"sends\": %llu, \"wall_ms\": %.3f, "
                  "\"rounds_per_sec\": %.1f, \"peak_rss_mb\": %.1f}%s\n",
                  m.scenario.c_str(), m.engine.c_str(), m.n, m.threads,
                  m.completed ? "true" : "false",
                  static_cast<long long>(m.rounds),
                  static_cast<unsigned long long>(m.sends), m.wall_ms,
                  m.rounds_per_sec, m.peak_rss_mb,
                  i + 1 < measurements.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"speedup_rounds_per_sec\": {\n";
  std::size_t i = 0;
  for (const auto& [name, speedup] : speedups) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "    \"%s\": %.2f%s\n", name.c_str(),
                  speedup, i + 1 < speedups.size() ? "," : "");
    out << buf;
    ++i;
  }
  out << "  },\n  \"parallel_speedup_rounds_per_sec\": {\n";
  i = 0;
  for (const auto& [name, speedup] : parallel_speedups) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "    \"%s\": %.2f%s\n", name.c_str(),
                  speedup, i + 1 < parallel_speedups.size() ? "," : "");
    out << buf;
    ++i;
  }
  out << "  }\n}\n";
}

}  // namespace
}  // namespace dualrad

int main(int argc, char** argv) {
  using namespace dualrad;

  bool quick = false;
  bool with_telemetry = false;
  std::size_t repeat = 1;
  double max_rss_mb = 0.0;            // 0 = no ceiling
  double min_parallel_speedup = 0.0;  // 0 = no floor
  std::string filter;
  std::string out_path = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--telemetry") {
      with_telemetry = true;
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::stoul(arg.substr(9));
    } else if (arg.rfind("--filter=", 0) == 0) {
      filter = arg.substr(9);
    } else if (arg.rfind("--max-rss-mb=", 0) == 0) {
      max_rss_mb = std::stod(arg.substr(13));
    } else if (arg.rfind("--min-parallel-speedup=", 0) == 0) {
      min_parallel_speedup = std::stod(arg.substr(23));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_engine_scaling [--quick] [--repeat=N] "
                   "[--filter=SUBSTR] [--max-rss-mb=N] "
                   "[--min-parallel-speedup=X] [--telemetry] [--out=PATH]\n";
      return 2;
    }
  }

  std::cout << "\n=== ENGINE: sparse CSR engine vs dense reference; serial vs "
               "sharded ===\n"
               "paper expectation: rounds/sec gap grows with n; >= 5x on the "
               "10k benign points\n\n";

  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  std::vector<campaign::Scenario> points = registry.match("scale");
  // Run the smallest n first: the peak-RSS reset keeps rows independent, but
  // ascending n still keeps already-resident footprint (the reset's floor)
  // minimal for the small points, and the output order stable.
  const auto size_rank = [](const campaign::Scenario& s) {
    if (s.name.find("-1m/") != std::string::npos) return 3;
    if (s.name.find("-100k/") != std::string::npos) return 2;
    if (s.name.find("-10k/") != std::string::npos) return 1;
    return 0;
  };
  std::stable_sort(points.begin(), points.end(),
                   [&](const auto& a, const auto& b) {
                     return size_rank(a) < size_rank(b);
                   });

  std::vector<Measurement> measurements;
  std::map<std::string, double> speedups;
  std::map<std::string, double> parallel_speedups;
  bool gates_ok = true;
  stats::Table table({"scenario", "n", "engine", "rounds", "wall ms",
                      "rounds/s", "peak RSS MB"});
  const auto record = [&](const Measurement& m) {
    measurements.push_back(m);
    table.add_row({m.scenario, std::to_string(m.n), m.engine,
                   std::to_string(m.rounds), stats::Table::num(m.wall_ms, 1),
                   stats::Table::num(m.rounds_per_sec, 0),
                   stats::Table::num(m.peak_rss_mb, 1)});
    if (max_rss_mb > 0 && m.peak_rss_mb > max_rss_mb) {
      std::cerr << "error: " << m.scenario << "/" << m.engine
                << " peak RSS " << m.peak_rss_mb << " MB exceeds ceiling "
                << max_rss_mb << " MB\n";
      gates_ok = false;
    }
    if (!m.completed) {
      std::cerr << "warning: " << m.scenario << " hit the round cap under "
                << m.engine << "\n";
    }
  };

  // One registry reused across measurements (each run resets it); attached
  // only under --telemetry so default baselines measure the disabled path.
  obs::RoundTelemetry telemetry(1);
  obs::RoundTelemetry* const tel = with_telemetry ? &telemetry : nullptr;

  for (const campaign::Scenario& spec : points) {
    bool slow = false;
    for (const std::string& tag : spec.tags) slow = slow || tag == "slow";
    if (quick && slow) continue;
    if (!filter.empty() && spec.name.find(filter) == std::string::npos) {
      continue;
    }
    const int rank = size_rank(spec);
    // Slow points run once: their wall times are far above the noise floor
    // --repeat exists for.
    const std::size_t reps = slow ? 1 : repeat;

    const DualGraph net = spec.network();
    const ProcessFactory factory = spec.algorithm(net);

    const Measurement fast =
        run_one(spec, net, factory, EngineKind::Csr, reps, tel);
    record(fast);

    // Serial vs sharded-parallel on the 100k+ points (heavy rounds; the
    // small grid's rounds sit below the kernel's work cutoff anyway). The
    // kernel's results must be identical at these scales too — sizes the
    // unit-test grid cannot reach — so a mismatch fails the run.
    if (rank >= 2) {
      const Measurement par = run_one(spec, net, factory,
                                      EngineKind::CsrParallel, reps, tel);
      record(par);
      if (par.completed != fast.completed || par.rounds != fast.rounds ||
          par.sends != fast.sends) {
        std::cerr << "error: " << spec.name
                  << ": parallel kernel diverged from serial (rounds "
                  << par.rounds << " vs " << fast.rounds << ", sends "
                  << par.sends << " vs " << fast.sends << ")\n";
        gates_ok = false;  // fail the run like a gate violation
      }
      if (fast.rounds_per_sec > 0) {
        parallel_speedups[spec.name] = par.rounds_per_sec / fast.rounds_per_sec;
      }
    }

    // The dense engine's O(n) rounds make 100k+ points minutes-slow; the
    // comparison points are the 1k and 10k grid.
    if (rank <= 1) {
      const Measurement ref = run_one(spec, net, factory,
                                      EngineKind::Reference, reps, tel);
      record(ref);
      if (ref.rounds_per_sec > 0) {
        speedups[spec.name] = fast.rounds_per_sec / ref.rounds_per_sec;
      }
    }
  }
  table.print(std::cout);
  if (!g_rss_per_scenario) {
    std::cout << "note: /proc/self/clear_refs unavailable; peak RSS is the "
                 "monotone process-wide high-water mark\n";
  }

  if (with_telemetry && !measurements.empty()) {
    std::cout << "\nphase breakdown (--telemetry; % of phase-timed wall, "
                 "last run):\n";
    for (const Measurement& m : measurements) {
      std::uint64_t total = 0;
      for (const std::uint64_t ns : m.phase_ns) total += ns;
      if (total == 0) continue;
      std::printf("  %-45s %-10s", m.scenario.c_str(), m.engine.c_str());
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        std::printf(" %s %4.1f%%",
                    obs::phase_name(static_cast<obs::Phase>(p)),
                    100.0 * static_cast<double>(m.phase_ns[p]) /
                        static_cast<double>(total));
      }
      std::printf("\n");
    }
  }

  if (measurements.empty()) {
    // A filter typo must not turn the CI gates into a vacuous pass.
    std::cerr << "error: no scale scenario matched (quick=" << quick
              << ", filter='" << filter << "')\n";
    return 1;
  }

  std::cout << "\nspeedup (csr rounds/sec over reference):\n";
  for (const auto& [name, speedup] : speedups) {
    std::printf("  %-45s %.2fx\n", name.c_str(), speedup);
  }
  std::cout << "\nparallel speedup (csr-mt" << kParallelThreads
            << " rounds/sec over csr serial):\n";
  double best_parallel = 0.0;
  for (const auto& [name, speedup] : parallel_speedups) {
    std::printf("  %-45s %.2fx\n", name.c_str(), speedup);
    best_parallel = std::max(best_parallel, speedup);
  }
  if (min_parallel_speedup > 0.0) {
    if (parallel_speedups.empty()) {
      std::cerr << "error: --min-parallel-speedup set but no 100k+ point "
                   "produced a parallel measurement\n";
      gates_ok = false;
    } else if (best_parallel < min_parallel_speedup) {
      std::cerr << "error: best parallel speedup " << best_parallel
                << "x is below the required " << min_parallel_speedup
                << "x floor\n";
      gates_ok = false;
    }
  }

  write_json(out_path, measurements, speedups, parallel_speedups);
  std::cout << "\nwrote " << out_path << "\n";
  return gates_ok ? 0 : 1;
}
