#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adversary.hpp"
#include "core/process.hpp"
#include "core/simulator.hpp"
#include "core/types.hpp"
#include "graph/dual_graph.hpp"

/// \file scenario.hpp
/// Named experiment specifications for the campaign engine.
///
/// A Scenario binds everything one trial needs: a network builder, an
/// algorithm (as a ProcessFactory builder, so it can read n / Delta off the
/// built network), an *adversary factory* — a factory rather than a shared
/// Adversary& because trials run concurrently and stateful adversaries
/// (BernoulliAdversary, GreedyBlocker with caches, ...) must start each
/// execution fresh — plus the model knobs (collision rule, start rule) and
/// the trial count.
///
/// Builders must be pure: calling them twice yields equivalent objects. This
/// is what makes campaign runs bit-identical regardless of worker count.

namespace dualrad::campaign {

/// Builds the (fixed) network of a scenario. Random families capture their
/// topology seed at registration time, so the graph is the same every run.
using NetworkBuilder = std::function<DualGraph()>;

/// Builds the process factory for a concrete network (gets to read
/// node_count, max in-degree, ...).
using AlgorithmBuilder = std::function<ProcessFactory(const DualGraph& net)>;

/// Creates a fresh adversary for one trial. `seed` is the trial's derived
/// seed stream; deterministic adversaries may ignore it.
using AdversaryFactory =
    std::function<std::unique_ptr<Adversary>(std::uint64_t seed)>;

/// Optional replacement for the engine's default trial body (one
/// run_broadcast execution). A trial that wraps the execution — e.g. the
/// byz/* scenarios run it under a ByzantinePlan — implements one here and
/// returns a SimResult-shaped digest for the TrialRow. Must be a pure
/// function of its arguments (the determinism contract).
using TrialRunner =
    std::function<SimResult(const DualGraph& net, const ProcessFactory& factory,
                            Adversary& adversary, const SimConfig& config)>;

struct Scenario {
  /// Unique registry key, e.g. "dual/harmonic/layered/greedy". Restricted to
  /// [A-Za-z0-9._/+:=-] so exported CSV/JSONL never needs quoting.
  std::string name;
  /// Free-form labels ("dual", "randomized", "table2", ...) used by
  /// `--filter` and ScenarioRegistry::match.
  std::vector<std::string> tags{};

  NetworkBuilder network;
  AlgorithmBuilder algorithm;
  AdversaryFactory adversary;
  /// Empty: the engine runs one run_broadcast execution per trial.
  TrialRunner runner{};

  CollisionRule rule = CollisionRule::CR4;
  StartRule start = StartRule::Asynchronous;
  Round max_rounds = 10'000'000;
  /// Multi-message broadcast sources (SimConfig::token_sources); empty means
  /// the classic single token at the network source.
  std::vector<NodeId> token_sources{};
  std::size_t trials = 5;
};

/// Tokens in each execution of `s`: one per source, and one at the network
/// source when `token_sources` is empty.
[[nodiscard]] inline std::size_t token_count(const Scenario& s) {
  return s.token_sources.empty() ? 1 : s.token_sources.size();
}

/// Adversary factory for adversaries constructed from fixed arguments
/// (ignores the trial seed): make_adversary_factory<GreedyBlockerAdversary>().
template <class A, class... Args>
[[nodiscard]] AdversaryFactory make_adversary_factory(Args&&... args) {
  return [... args = std::forward<Args>(args)](std::uint64_t) {
    return std::make_unique<A>(args...);
  };
}

/// Adversary factory for adversaries keyed by the trial seed:
/// make_seeded_adversary_factory<BernoulliAdversary>(0.5) constructs
/// BernoulliAdversary(0.5, trial_seed).
template <class A, class... Args>
[[nodiscard]] AdversaryFactory make_seeded_adversary_factory(Args&&... args) {
  return [... args = std::forward<Args>(args)](std::uint64_t seed) {
    return std::make_unique<A>(args..., seed);
  };
}

}  // namespace dualrad::campaign
