// M1: micro benchmarks — simulator round throughput and SSF construction
// cost (google-benchmark).

#include <benchmark/benchmark.h>

#include "adversary/basic_adversaries.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/strong_select.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "selectors/kautz_singleton.hpp"
#include "selectors/randomized_ssf.hpp"

namespace {

using namespace dualrad;

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
