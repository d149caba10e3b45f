#include "mac/mac_scenarios.hpp"

#include <string>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "mac/bmmb.hpp"

namespace dualrad::mac {

namespace {

using campaign::Scenario;

/// A BMMB-over-DecayMac scenario with k tokens at spread sources. The
/// network builder is invoked once here to compute the (deterministic)
/// source list; builders are pure, so the trial-time build yields the same
/// graph.
[[nodiscard]] Scenario bmmb_scenario(std::string name,
                                     campaign::NetworkBuilder network,
                                     TokenId k) {
  Scenario s;
  s.name = std::move(name);
  s.description = "BMMB over DecayMac: " + std::to_string(k) +
                  " token(s) at spread sources; completion = every process "
                  "holds every token";
  s.tags = {"mac", "multi-message", "randomized",
            "k=" + std::to_string(k)};
  const DualGraph net = network();
  s.token_sources = spread_token_sources(net, k);
  s.network = std::move(network);
  s.algorithm = [](const DualGraph& built) {
    return make_bmmb_factory(built.node_count());
  };
  s.max_rounds = 500'000;
  s.trials = 3;
  return s;
}

}  // namespace

void register_mac_scenarios(campaign::ScenarioRegistry& registry) {
  {
    Scenario s = bmmb_scenario("mac/bmmb-decay/layered/k=1/benign",
                               campaign::layered(8, 4), 1);
    s.adversary = campaign::make_adversary_factory<BenignAdversary>();
    registry.add(std::move(s));
  }
  {
    Scenario s = bmmb_scenario("mac/bmmb-decay/layered/k=4/benign",
                               campaign::layered(8, 4), 4);
    s.adversary = campaign::make_adversary_factory<BenignAdversary>();
    registry.add(std::move(s));
  }
  {
    Scenario s = bmmb_scenario("mac/bmmb-decay/layered/k=16/bernoulli:0.5",
                               campaign::layered(8, 4), 16);
    s.adversary = campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.5);
    registry.add(std::move(s));
  }
  {
    // Decay carries no dual-graph guarantee, so the greedy blocker can
    // starve the MAC layer; trials may hit the round cap (Table 2's
    // contrast, now at the MAC layer).
    Scenario s = bmmb_scenario("mac/bmmb-decay/layered/k=4/greedy",
                               campaign::layered(8, 4), 4);
    s.adversary = campaign::make_adversary_factory<GreedyBlockerAdversary>();
    s.tags.push_back("negative");
    s.max_rounds = 100'000;
    s.trials = 2;
    registry.add(std::move(s));
  }
  {
    Scenario s = bmmb_scenario("mac/bmmb-decay/grayzone/k=4/bernoulli:0.3",
                               campaign::gray_zone(48, 7), 4);
    s.adversary = campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.3);
    registry.add(std::move(s));
  }
  {
    Scenario s = bmmb_scenario("mac/bmmb-decay/grayzone/k=16/benign",
                               campaign::gray_zone(48, 7), 16);
    s.adversary = campaign::make_adversary_factory<BenignAdversary>();
    registry.add(std::move(s));
  }
}

}  // namespace dualrad::mac
