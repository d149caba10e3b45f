#include "byz/byz_scenarios.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "adversary/basic_adversaries.hpp"
#include "byz/adaptive.hpp"
#include "byz/cpa.hpp"
#include "byz/plan.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"

namespace dualrad::byz {

namespace {

using campaign::AdversaryFactory;
using campaign::AlgorithmBuilder;
using campaign::NetworkBuilder;
using campaign::Scenario;
// The scale/* grid's topologies, so byz/* numbers are directly comparable to
// the fault-free engine-scaling rows.
using campaign::scale_grayzone;
using campaign::scale_layered;

// Relay schedules mirror the scale grid's duty-cycled decay: a bounded
// active window after first acceptance/adoption, then sparse beacons, so
// steady-state rounds stay cheap at 10k-100k nodes.

[[nodiscard]] AlgorithmBuilder cpa(int f) {
  return [f](const DualGraph& net) {
    // Identity proc mapping (the byz/* adversaries keep the default), so the
    // source's process id equals the source node: messages with that origin
    // really come from the source — the "source-adjacent accept" rule.
    return make_cpa_factory(
        net.node_count(),
        {.f = f,
         .trusted_origins = {static_cast<ProcessId>(net.source())},
         .relay_p = 0.5,
         .active_rounds = 64,
         .rebroadcast_period = 16});
  };
}

[[nodiscard]] AlgorithmBuilder uncertified_relay() {
  return [](const DualGraph& net) {
    return make_uncertified_relay_factory(net.node_count(),
                                          {.relay_p = 0.5,
                                           .active_rounds = 64,
                                           .rebroadcast_period = 16});
  };
}

/// The byz trial body: draw a fresh f-locally-bounded placement from the
/// trial's seed stream, run the execution with the plan wired into the
/// engine, optionally letting an adaptive adversary grow the placement from
/// the coverage frontier. Pure in its arguments (the placement depends only
/// on config.seed), so campaign runs stay bit-identical across workers,
/// engines, and threads-per-trial.
[[nodiscard]] campaign::TrialRunner byz_runner(int f, std::size_t count,
                                               ByzBehavior behavior,
                                               std::size_t adaptive_budget) {
  return [f, count, behavior, adaptive_budget](
             const DualGraph& net, const ProcessFactory& factory,
             Adversary& adversary, const SimConfig& config) {
    ByzantinePlan plan =
        make_random_plan(net, f, count, behavior, config.token_sources,
                         mix_seed(config.seed, 0xB12));
    SimConfig cfg = config;
    cfg.byzantine = &plan;
    if (adaptive_budget > 0) {
      AdaptiveByzAdversary adaptive(
          adversary, plan, {.budget = adaptive_budget, .behavior = behavior});
      return run_broadcast(net, factory, adaptive, cfg);
    }
    return run_broadcast(net, factory, adversary, cfg);
  };
}

[[nodiscard]] const char* behavior_label(ByzBehavior behavior,
                                         std::size_t adaptive_budget) {
  if (adaptive_budget > 0) return "adaptive";
  return behavior == ByzBehavior::Silent ? "silent" : "forge";
}

}  // namespace

void register_byz_scenarios(campaign::ScenarioRegistry& registry) {
  struct ByzPoint {
    const char* family;   // "layered" / "grayzone"
    const char* size;     // "1k" / "10k" / "100k"
    NodeId n;
    NetworkBuilder network;
    std::size_t trials;
    Round max_rounds;
    bool slow;
  };
  const ByzPoint points[] = {
      {"layered", "1k", 1'000, scale_layered(50, 20), 3, 20'000, false},
      {"grayzone", "1k", 1'000, scale_grayzone(1'000), 3, 20'000, false},
      {"layered", "10k", 10'000, scale_layered(125, 80), 2, 20'000, false},
      {"grayzone", "10k", 10'000, scale_grayzone(10'000), 2, 20'000, false},
      {"layered", "100k", 100'000, scale_layered(250, 400), 1, 40'000, true},
      {"grayzone", "100k", 100'000, scale_grayzone(100'000), 1, 40'000, true},
  };
  struct ByzArm {
    const char* family;
    const char* size;
    bool use_cpa;  // false: the uncertified "decay"-style relay
    int f;
    ByzBehavior behavior;
    std::size_t adaptive_budget;  // > 0 turns on frontier-chasing corruption
  };
  // The grid ISSUE.md asks for: layered/grayzone x f in {1,2} x silent/forge
  // x CPA/uncertified, with 10k arms for CI and 100k arms tagged slow.
  const ByzArm arms[] = {
      {"layered", "1k", true, 1, ByzBehavior::Silent, 0},
      {"layered", "1k", true, 1, ByzBehavior::Forge, 0},
      {"layered", "1k", false, 1, ByzBehavior::Silent, 0},
      {"layered", "1k", false, 1, ByzBehavior::Forge, 0},
      {"layered", "1k", true, 2, ByzBehavior::Forge, 0},
      {"layered", "1k", false, 2, ByzBehavior::Forge, 0},
      {"grayzone", "1k", true, 1, ByzBehavior::Forge, 0},
      {"grayzone", "1k", false, 1, ByzBehavior::Forge, 0},
      {"grayzone", "1k", true, 2, ByzBehavior::Silent, 0},
      {"layered", "10k", true, 1, ByzBehavior::Forge, 0},
      {"layered", "10k", false, 1, ByzBehavior::Forge, 0},
      {"layered", "10k", true, 1, ByzBehavior::Forge, 4},
      {"grayzone", "10k", true, 2, ByzBehavior::Forge, 0},
      {"layered", "100k", true, 1, ByzBehavior::Forge, 0},
      {"grayzone", "100k", true, 2, ByzBehavior::Silent, 0},
  };

  for (const ByzArm& arm : arms) {
    const ByzPoint* point = nullptr;
    for (const ByzPoint& p : points) {
      if (std::string(p.family) == arm.family &&
          std::string(p.size) == arm.size) {
        point = &p;
      }
    }
    // Placement size scales with n, capped by the plan's forger budget.
    const std::size_t count = std::clamp<std::size_t>(
        static_cast<std::size_t>(point->n) / 200, 4, ByzantinePlan::kMaxForgers);

    Scenario s;
    s.name = std::string("byz/") + arm.family + "-" + arm.size + "/" +
             (arm.use_cpa ? "cpa" : "decay") + "/f=" + std::to_string(arm.f) +
             "-" + behavior_label(arm.behavior, arm.adaptive_budget);
    s.description =
        std::string(arm.use_cpa
                        ? "Certified propagation (accept on f+1 distinct "
                          "confirmations)"
                        : "Uncertified decay-style relay (adopts the first "
                          "token heard)") +
        " under " + std::to_string(arm.f) + "-locally-bounded " +
        (arm.adaptive_budget > 0
             ? "adaptive frontier-chasing corruption"
             : (arm.behavior == ByzBehavior::Silent ? "silent node faults"
                                                    : "token-forging faults")) +
        " on the sparse " + arm.family + "-" + arm.size + " family";
    s.tags = {"byz", "randomized", "adversarial"};
    if (point->slow) s.tags.push_back("slow");
    s.network = point->network;
    s.algorithm = arm.use_cpa ? cpa(arm.f) : uncertified_relay();
    s.adversary =
        std::string(arm.family) == "grayzone"
            ? campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.25)
            : campaign::make_adversary_factory<BenignAdversary>();
    s.runner = byz_runner(arm.f, count, arm.behavior, arm.adaptive_budget);
    // CR3, like the scale grid: collisions are silent, the classic
    // no-collision-detection radio assumption.
    s.rule = CollisionRule::CR3;
    s.max_rounds = point->max_rounds;
    s.trials = point->trials;
    registry.add(std::move(s));
  }
}

}  // namespace dualrad::byz
