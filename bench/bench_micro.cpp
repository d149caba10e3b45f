// M1: micro benchmarks — network construction at 10^5 nodes, simulator
// round throughput, the counter-coin poll, the Compressed trace (encode and
// decode) and its audit on a verified Byzantine trial, and SSF
// construction cost (google-benchmark).

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/strong_select.hpp"
#include "byz/cpa.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "core/audit.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "selectors/kautz_singleton.hpp"
#include "selectors/randomized_ssf.hpp"

namespace {

using namespace dualrad;

/// Build the network of a scale/* arm through CsrGraphBuilder: edge
/// emission, the counting-sort freeze of G and G' (bucket by source, then
/// sort and dedup each row in place), and the DualGraph constructor (one
/// stamp pass for E subset of E' and the G'-only rows, then reachability).
/// Arg 0 is layered_sparse at layered-100k, arg 1 gray_zone_grid at
/// grayzone-100k, arg 2 layered_sparse at layered-1m (giant-1m's network).
void BM_NetworkBuild(benchmark::State& state) {
  const char* names[] = {"scale/decay/layered-100k/benign",
                         "scale/decay/grayzone-100k/benign",
                         "scale/decay/layered-1m/benign"};
  const char* name = names[state.range(0)];
  const campaign::NetworkBuilder build =
      campaign::builtin_registry().at(name).network;
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const DualGraph net = build();
    edges += net.g_prime_csr().edge_count();
    benchmark::DoNotOptimize(net.unreliable_edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges));  // G' edges
  state.SetLabel(name);
}
BENCHMARK(BM_NetworkBuild)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_EngineRounds(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const DualGraph net = duals::layered_complete_gprime(8, std::max(2, n / 8));
  const ProcessFactory factory = make_harmonic_factory(net.node_count());
  FullInterferenceAdversary adversary;
  SimConfig config;
  config.max_rounds = 256;
  config.stop_on_completion = false;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    const SimResult result = run_broadcast(net, factory, adversary, config);
    rounds += static_cast<std::uint64_t>(result.rounds_executed);
    benchmark::DoNotOptimize(result.total_sends);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_EngineRounds)->Arg(32)->Arg(128);

/// The sparse engine's poll of a counter-coin process at its hinted round:
/// next_action, then next_send_round(r + 1). 10^5 informed processes with
/// token rounds staggered over 64 rounds are each polled once per
/// iteration. Arg 0 is windowed Decay as in scale/* (2 active phases,
/// period 32), arg 1 the CPA relay as in byz/* (p 0.5, 64 active rounds,
/// period 16). s_per_poll is the time per poll.
void BM_CoinPoll(benchmark::State& state) {
  constexpr NodeId n = 100'000;
  const ProcessFactory factory =
      state.range(0) == 0
          ? make_decay_factory(n,
                               {.active_phases = 2, .rebroadcast_period = 32})
          : byz::make_cpa_factory(n, {.f = 1,
                                      .trusted_origins = {0},
                                      .relay_p = 0.5,
                                      .active_rounds = 64,
                                      .rebroadcast_period = 16});
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<Round> next;
  for (ProcessId id = 0; id < n; ++id) {
    procs.push_back(
        factory(id, n, mix_seed(1, static_cast<std::uint64_t>(id))));
    const Round t = id % 64;
    const Message token{/*token=*/true, /*origin=*/0, /*round_tag=*/t,
                        /*payload=*/0};
    if (t == 0) {
      procs.back()->on_activate(0, token);
    } else {
      procs.back()->on_activate(0, std::nullopt);
      procs.back()->on_receive(t, Reception::of(token));
    }
    next.push_back(procs.back()->next_send_round(t + 1));
  }
  std::uint64_t polls = 0;
  for (auto _ : state) {
    std::uint64_t sends = 0;
    for (std::size_t i = 0; i < procs.size(); ++i) {
      const Round r = next[i];
      if (r == kNever) continue;
      sends += procs[i]->next_action(r).send ? 1 : 0;
      next[i] = procs[i]->next_send_round(r + 1);
      ++polls;
    }
    benchmark::DoNotOptimize(sends);
  }
  state.counters["s_per_poll"] = benchmark::Counter(
      static_cast<double>(polls),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(state.range(0) == 0 ? "decay" : "cpa");
}
BENCHMARK(BM_CoinPoll)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One fixed verified-run trial: trial 0 of byz/grayzone-1k/cpa/f=1-forge
// under master seed 1. Its forged token never lets the broadcast complete,
// so the trial runs to the scenario's round cap.
const campaign::TrialExecutor& byz_trial() {
  static const campaign::TrialExecutor executor(
      campaign::builtin_registry().at("byz/grayzone-1k/cpa/f=1-forge"), 1);
  return executor;
}

const SimResult& byz_traced_result() {
  static const SimResult result =
      byz_trial().run(0, {.trace = TraceLevel::Compressed}).sim;
  return result;
}

/// The trial end to end; arg 0 records no trace, arg 1 a Compressed one.
void BM_ByzTrial(benchmark::State& state) {
  const campaign::TrialExecutor& executor = byz_trial();
  campaign::TrialOptions options;
  options.trace =
      state.range(0) == 0 ? TraceLevel::None : TraceLevel::Compressed;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    const SimResult result = executor.run(0, options).sim;
    rounds += static_cast<std::uint64_t>(result.rounds_executed);
    benchmark::DoNotOptimize(result.trace.blob.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_ByzTrial)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Decode every round of the trial's Compressed trace.
void BM_ByzTraceDecode(benchmark::State& state) {
  const SimResult& result = byz_traced_result();
  const NodeId n = byz_trial().scenario().network().node_count();
  SparseRound round;
  for (auto _ : state) {
    std::size_t heard = 0;
    for (std::size_t i = 0; i < result.trace.compressed_rounds(); ++i) {
      result.trace.decode_round(i, n, round);
      heard += round.receptions.size();
    }
    benchmark::DoNotOptimize(heard);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() *
      static_cast<std::int64_t>(result.trace.compressed_rounds())));
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() *
      static_cast<std::int64_t>(result.trace.blob.size())));
}
BENCHMARK(BM_ByzTraceDecode)->Unit(benchmark::kMillisecond);

/// Re-encode every round of the trial's Compressed trace through
/// CompressedRound into a fresh trace, as the execution frame records it.
/// Only the encoder is timed (manual time): each round is decoded first,
/// untimed. Bytes per second count the blob written.
void BM_TraceEncode(benchmark::State& state) {
  const SimResult& result = byz_traced_result();
  const NodeId n = byz_trial().scenario().network().node_count();
  SparseRound round;
  std::vector<NodeId> heard;
  std::vector<Reception> at(static_cast<std::size_t>(n));
  for (auto _ : state) {
    Trace trace;
    std::chrono::steady_clock::duration encoding{};
    for (std::size_t i = 0; i < result.trace.compressed_rounds(); ++i) {
      result.trace.decode_round(i, n, round);
      heard.clear();
      for (const SparseRound::Heard& h : round.receptions) {
        heard.push_back(h.node);
        at[static_cast<std::size_t>(h.node)] = h.reception;
      }
      const auto start = std::chrono::steady_clock::now();
      CompressedRound out(trace, round.round, round.senders.size());
      for (const SparseRound::Sender& s : round.senders) {
        out.sender(s.node, s.message, round.reach(s), {});
      }
      out.receptions(heard, at);
      encoding += std::chrono::steady_clock::now() - start;
    }
    state.SetIterationTime(std::chrono::duration<double>(encoding).count());
    benchmark::DoNotOptimize(trace.blob.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() *
      static_cast<std::int64_t>(result.trace.blob.size())));
}
BENCHMARK(BM_TraceEncode)->UseManualTime()->Unit(benchmark::kMillisecond);

/// audit_in_chunks over the trial's Compressed trace: arg 1 audits it as
/// one chunk, arg 0 in as many as audit_execution picks.
void BM_ByzAudit(benchmark::State& state) {
  const SimResult& result = byz_traced_result();
  const campaign::Scenario& scenario = byz_trial().scenario();
  const DualGraph net = scenario.network();
  const auto chunks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const audit::AuditReport report = audit::audit_in_chunks(
        net, result, scenario.rule, scenario.token_sources, chunks);
    benchmark::DoNotOptimize(report.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() *
      static_cast<std::int64_t>(result.trace.compressed_rounds())));
  state.SetLabel(chunks == 0 ? "automatic chunks" : "one chunk");
}
BENCHMARK(BM_ByzAudit)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_KautzSingletonConstruction(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto k = static_cast<NodeId>(state.range(1));
  for (auto _ : state) {
    const SsfFamily family = kautz_singleton_ssf(n, k);
    benchmark::DoNotOptimize(family.size());
  }
}
BENCHMARK(BM_KautzSingletonConstruction)
    ->Args({256, 4})
    ->Args({1024, 8})
    ->Args({4096, 16});

void BM_RandomizedSsfConstruction(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto k = static_cast<NodeId>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const SsfFamily family = randomized_ssf(n, k, {.factor = 4.0, .seed = seed++});
    benchmark::DoNotOptimize(family.size());
  }
}
BENCHMARK(BM_RandomizedSsfConstruction)->Args({1024, 8});

void BM_StrongSelectSchedule(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    const auto schedule = make_strong_select_schedule(n);
    benchmark::DoNotOptimize(schedule->epoch_length());
  }
}
BENCHMARK(BM_StrongSelectSchedule)->Arg(256)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
