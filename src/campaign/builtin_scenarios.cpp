#include "campaign/builtin_scenarios.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "byz/byz_scenarios.hpp"
#include "algorithms/cms_oblivious.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/strong_select.hpp"
#include "algorithms/uniform_gossip.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "lowerbound/theorem11_network.hpp"
#include "mac/mac_scenarios.hpp"

namespace dualrad::campaign {

// Network builders. Sizes are chosen so the full catalogue runs in seconds
// to low minutes; the campaign CLI's --trials flag scales sampling up.

NetworkBuilder layered(NodeId layers, NodeId width) {
  return [layers, width] {
    return duals::layered_complete_gprime(layers, width);
  };
}

NetworkBuilder gray_zone(NodeId n, std::uint64_t seed) {
  return [n, seed] {
    return duals::gray_zone(
        {.n = n, .r_reliable = 0.22, .r_gray = 0.55, .seed = seed});
  };
}

NetworkBuilder scale_layered(NodeId layers, NodeId width) {
  return [layers, width] {
    return duals::layered_sparse({.layers = layers,
                                  .width = width,
                                  .fwd_degree = 3,
                                  .unreliable_degree = 2,
                                  .seed = 17});
  };
}

NetworkBuilder scale_grayzone(NodeId n) {
  return [n] {
    return duals::gray_zone_grid(
        {.n = n, .mean_degree = 12.0, .gray_factor = 1.5, .seed = 17});
  };
}

namespace {

[[nodiscard]] NetworkBuilder classical_bridge(NodeId n) {
  return [n] { return duals::strip_unreliable(duals::bridge_network(n)); };
}

[[nodiscard]] NetworkBuilder bridge(NodeId n) {
  return [n] { return duals::bridge_network(n); };
}

[[nodiscard]] NetworkBuilder clique(NodeId n) {
  return [n] { return make_classical(gen::clique(n), 0); };
}

[[nodiscard]] NetworkBuilder theorem11(NodeId n) {
  return [n] { return lowerbound::theorem11_network(n); };
}

[[nodiscard]] NetworkBuilder theorem12(NodeId n) {
  return [n] { return duals::theorem12_network(n); };
}

[[nodiscard]] NetworkBuilder backbone(NodeId n, std::uint64_t seed) {
  return [n, seed] {
    return duals::backbone_plus_unreliable(
        {.n = n, .p_reliable = 0.05, .p_unreliable = 0.2, .seed = seed});
  };
}

// Algorithm builders.

[[nodiscard]] AlgorithmBuilder round_robin() {
  return [](const DualGraph& net) {
    return make_round_robin_factory(net.node_count());
  };
}

[[nodiscard]] AlgorithmBuilder strong_select() {
  return [](const DualGraph& net) {
    return make_strong_select_factory(net.node_count());
  };
}

/// The ablation that joins every family iteration forever (Section 5's
/// contrast with the paper's participate-once rule).
[[nodiscard]] AlgorithmBuilder strong_select_forever() {
  return [](const DualGraph& net) {
    return make_strong_select_factory(net.node_count(),
                                      {.participate_forever = true});
  };
}

[[nodiscard]] AlgorithmBuilder harmonic(double eps = 0.1) {
  return [eps](const DualGraph& net) {
    return make_harmonic_factory(net.node_count(), {.eps = eps});
  };
}

[[nodiscard]] AlgorithmBuilder decay() {
  return [](const DualGraph& net) {
    return make_decay_factory(net.node_count());
  };
}

/// Duty-cycled Decay (BGI-style bounded windows plus periodic maintenance
/// beacons): a node runs the decay schedule for `active_phases` phases
/// after first receiving the token, then for one phase in every
/// `rebroadcast_period`. Completion stays certain (beacons recur forever)
/// while steady-state rounds carry only the frontier plus a thin beacon
/// trickle — the sparse-engine regime the scale/* scenarios exercise.
[[nodiscard]] AlgorithmBuilder decay_windowed(Round active_phases,
                                              Round rebroadcast_period) {
  return [active_phases, rebroadcast_period](const DualGraph& net) {
    return make_decay_factory(net.node_count(),
                              {.active_phases = active_phases,
                               .rebroadcast_period = rebroadcast_period});
  };
}

[[nodiscard]] AlgorithmBuilder gossip() {
  return [](const DualGraph& net) {
    return make_uniform_gossip_factory(net.node_count());
  };
}

[[nodiscard]] AlgorithmBuilder cms() {
  return [](const DualGraph& net) {
    return make_cms_oblivious_factory(
        net.node_count(),
        {.delta = static_cast<NodeId>(net.g_prime_csr().max_in_degree())});
  };
}

// Adversary factories.

[[nodiscard]] AdversaryFactory benign() {
  return make_adversary_factory<BenignAdversary>();
}

[[nodiscard]] AdversaryFactory greedy() {
  return make_adversary_factory<GreedyBlockerAdversary>();
}

[[nodiscard]] AdversaryFactory full_interference() {
  return make_adversary_factory<FullInterferenceAdversary>();
}

[[nodiscard]] AdversaryFactory bernoulli(double p) {
  return make_seeded_adversary_factory<BernoulliAdversary>(p);
}

// Scenario specs (parse_spec): each field maps onto the helpers above.

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("dualrad: bad scenario spec '" +
                              std::string(spec) + "': " + why);
}

[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char sep) {
  std::vector<std::string_view> parts;
  for (std::size_t begin = 0;;) {
    const std::size_t end = text.find(sep, begin);
    parts.push_back(text.substr(begin, end - begin));
    if (end == std::string_view::npos) return parts;
    begin = end + 1;
  }
}

/// `text` as a non-negative T, if std::to_chars spells that value back as
/// exactly `text` (fixed notation for doubles): no sign, no leading or
/// trailing zero, no exponent, so every value has one spelling.
template <class T>
[[nodiscard]] std::optional<T> plain_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  if (text.starts_with('-') ||
      std::from_chars(text.data(), end, value).ptr != end) {
    return std::nullopt;
  }
  char buf[64];
  std::to_chars_result spelled{};
  if constexpr (std::is_floating_point_v<T>) {
    spelled = std::to_chars(buf, buf + sizeof buf, value,
                            std::chars_format::fixed);
  } else {
    spelled = std::to_chars(buf, buf + sizeof buf, value);
  }
  if (std::string_view(buf, spelled.ptr - buf) != text) return std::nullopt;
  return value;
}

[[nodiscard]] NetworkBuilder spec_network(std::string_view spec,
                                          std::string_view field) {
  const std::vector<std::string_view> parts = split(field, ':');
  const std::string family(parts.front());
  // The family's builder arguments, every one required, in this order.
  const auto args = [&](std::initializer_list<std::string_view> keys) {
    std::string form = family;
    for (const std::string_view key : keys) {
      form += ":" + std::string(key) + (key == "seed" ? "=S" : "=N");
    }
    const auto bad = [&] {
      bad_spec(spec, "network '" + std::string(field) + "' is not " + form +
                         " with plain decimals");
    };
    if (parts.size() != keys.size() + 1) bad();
    std::vector<std::uint64_t> values;
    for (const std::string_view key : keys) {
      const std::string_view part = parts[values.size() + 1];
      const std::optional<std::uint64_t> value =
          part.starts_with(std::string(key) + "=")
              ? plain_number<std::uint64_t>(part.substr(key.size() + 1))
              : std::nullopt;
      const bool fits = value.has_value() &&
                        (key == "seed" || std::in_range<NodeId>(*value));
      if (!fits) bad();
      values.push_back(*value);
    }
    return values;
  };
  const auto node = [](std::uint64_t v) { return static_cast<NodeId>(v); };
  if (family == "bridge") return bridge(node(args({"n"})[0]));
  if (family == "layered") {
    const std::vector<std::uint64_t> a = args({"layers", "width"});
    return layered(node(a[0]), node(a[1]));
  }
  if (family == "grayzone") {
    const std::vector<std::uint64_t> a = args({"n", "seed"});
    return gray_zone(node(a[0]), a[1]);
  }
  if (family == "backbone") {
    const std::vector<std::uint64_t> a = args({"n", "seed"});
    return backbone(node(a[0]), a[1]);
  }
  if (family == "theorem11") return theorem11(node(args({"n"})[0]));
  if (family == "theorem12") return theorem12(node(args({"n"})[0]));
  if (family == "clique") return clique(node(args({"n"})[0]));
  bad_spec(spec, "unknown network family '" + family + "'");
}

[[nodiscard]] AlgorithmBuilder spec_algorithm(std::string_view spec,
                                              std::string_view name) {
  if (name == "round-robin") return round_robin();
  if (name == "strong-select") return strong_select();
  if (name == "strong-select-forever") return strong_select_forever();
  if (name == "harmonic") return harmonic();
  if (name == "decay") return decay();
  if (name == "gossip") return gossip();
  if (name == "cms") return cms();
  bad_spec(spec, "unknown algorithm '" + std::string(name) + "'");
}

[[nodiscard]] AdversaryFactory spec_adversary(std::string_view spec,
                                              std::string_view name) {
  if (name == "benign") return benign();
  if (name == "greedy") return greedy();
  if (name == "full-interference") return full_interference();
  constexpr std::string_view kBernoulli = "bernoulli:";
  if (name.starts_with(kBernoulli)) {
    const std::optional<double> p =
        plain_number<double>(name.substr(kBernoulli.size()));
    if (p.has_value() && *p <= 1.0) return bernoulli(*p);
    bad_spec(spec, "bernoulli:P needs P in [0, 1] as a plain decimal");
  }
  bad_spec(spec, "unknown adversary '" + std::string(name) + "'");
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  // --- Classical-model baselines (G == G', benign channel). ---
  registry.add({.name = "classical/round-robin/bridge/benign",
                .description = "Deterministic O(n) baseline: round robin on "
                               "the diameter-2 bridge topology (Table 1, "
                               "classical row)",
                .tags = {"classical", "deterministic", "table1", "quick"},
                .network = classical_bridge(33),
                .algorithm = round_robin(),
                .adversary = benign(),
                .rule = CollisionRule::CR3,
                .start = StartRule::Synchronous,
                .max_rounds = 1'000'000,
                .trials = 1});

  registry.add({.name = "classical/decay/bridge/benign",
                .description = "Randomized polylog baseline: BGI Decay on the "
                               "classical bridge topology (Table 2, classical "
                               "row)",
                .tags = {"classical", "randomized", "table2", "quick"},
                .network = classical_bridge(33),
                .algorithm = decay(),
                .adversary = benign(),
                .rule = CollisionRule::CR3,
                .start = StartRule::Synchronous,
                .max_rounds = 1'000'000,
                .trials = 5});

  registry.add({.name = "classical/gossip/clique/benign",
                .description = "Uniform gossip with p = 1/(n-1) on a clique: "
                               "the ~e*n solo-isolation curve under the "
                               "Theorem 4 ceiling",
                .tags = {"classical", "randomized", "theorem4", "quick"},
                .network = clique(33),
                .algorithm = gossip(),
                .adversary = benign(),
                .rule = CollisionRule::CR3,
                .start = StartRule::Synchronous,
                .max_rounds = 1'000'000,
                .trials = 5});

  // --- Deterministic algorithms on dual graphs. ---
  registry.add({.name = "dual/round-robin/layered/full-interference",
                .description = "Round robin is adversary-proof (each covered "
                               "node is isolated once every n rounds): full "
                               "interference on the layered family",
                .tags = {"dual", "deterministic", "section4", "quick"},
                .network = layered(8, 4),
                .algorithm = round_robin(),
                .adversary = full_interference(),
                .trials = 1});

  registry.add({.name = "dual/strong-select/layered/greedy",
                .description = "Strong Select (Section 5) vs the greedy "
                               "collision-blocker on the layered "
                               "complete-G' family",
                .tags = {"dual", "deterministic", "table1", "section5"},
                .network = layered(8, 4),
                .algorithm = strong_select(),
                .adversary = greedy(),
                .trials = 1});

  registry.add({.name = "dual/strong-select/layered/bernoulli:0.5",
                .description = "Strong Select under stochastic link firing "
                               "(each unreliable edge fires w.p. 1/2)",
                .tags = {"dual", "deterministic", "section5"},
                .network = layered(8, 4),
                .algorithm = strong_select(),
                .adversary = bernoulli(0.5),
                .trials = 5});

  registry.add({.name = "dual/strong-select/grayzone/greedy",
                .description = "Strong Select on the geometric gray-zone "
                               "family vs the greedy blocker",
                .tags = {"dual", "deterministic", "grayzone"},
                .network = gray_zone(48, 7),
                .algorithm = strong_select(),
                .adversary = greedy(),
                .trials = 1});

  registry.add({.name = "dual/cms/layered/greedy",
                .description = "CMS oblivious baseline (Section 2.2, knows "
                               "Delta) vs the greedy blocker",
                .tags = {"dual", "deterministic", "section2.2", "quick"},
                .network = layered(8, 4),
                .algorithm = cms(),
                .adversary = greedy(),
                .trials = 1});

  // --- Randomized algorithms on dual graphs. ---
  registry.add({.name = "dual/harmonic/layered/greedy",
                .description = "Harmonic Broadcast (Section 7) vs the greedy "
                               "blocker: the ~n log^2 n upper-bound workload",
                .tags = {"dual", "randomized", "table2", "section7"},
                .network = layered(8, 4),
                .algorithm = harmonic(),
                .adversary = greedy(),
                .max_rounds = 20'000'000,
                .trials = 5});

  registry.add({.name = "dual/harmonic/layered/full-interference",
                .description = "Harmonic Broadcast under blanket unreliable "
                               "interference",
                .tags = {"dual", "randomized", "section7"},
                .network = layered(8, 4),
                .algorithm = harmonic(),
                .adversary = full_interference(),
                .max_rounds = 20'000'000,
                .trials = 5});

  registry.add({.name = "dual/harmonic/grayzone/bernoulli:0.3",
                .description = "Harmonic Broadcast on the gray-zone family "
                               "with stochastic gray links",
                .tags = {"dual", "randomized", "grayzone", "section7"},
                .network = gray_zone(48, 7),
                .algorithm = harmonic(),
                .adversary = bernoulli(0.3),
                .max_rounds = 20'000'000,
                .trials = 5});

  registry.add({.name = "dual/harmonic/backbone/bernoulli:0.5",
                .description = "Harmonic Broadcast on a reliable backbone "
                               "plus stochastic unreliable extras",
                .tags = {"dual", "randomized", "backbone", "section7"},
                .network = backbone(48, 11),
                .algorithm = harmonic(),
                .adversary = bernoulli(0.5),
                .max_rounds = 20'000'000,
                .trials = 5});

  registry.add({.name = "dual/gossip/layered/bernoulli:0.5",
                .description = "Uniform gossip on the layered family with "
                               "stochastic unreliable links",
                .tags = {"dual", "randomized"},
                .network = layered(8, 4),
                .algorithm = gossip(),
                .adversary = bernoulli(0.5),
                .max_rounds = 2'000'000,
                .trials = 5});

  registry.add({.name = "dual/decay/layered/greedy",
                .description = "Decay carries no dual-graph guarantee "
                               "(Table 2's contrast): the greedy blocker can "
                               "starve it, so trials may hit the round cap",
                .tags = {"dual", "randomized", "table2", "negative"},
                .network = layered(8, 4),
                .algorithm = decay(),
                .adversary = greedy(),
                .max_rounds = 100'000,
                .trials = 3});

  // --- Engine-scaling workloads: 10^3..10^6 nodes on sparse families. ---
  // Decay under asynchronous start keeps the awake set equal to the covered
  // set, which is exactly the regime the sparse CSR engine is built for;
  // bench_engine_scaling measures these same scenarios against the dense
  // reference engine (and, at 100k+, the serial kernel against the sharded
  // parallel one). The 100k instances are tagged "slow" and the 10^6
  // instances additionally "1m" so quick filters skip them; one trial each
  // keeps a full-catalogue run tractable.
  struct ScalePoint {
    const char* label;
    NetworkBuilder network;
    std::size_t trials;
    bool slow;
    bool huge;
  };
  const ScalePoint scale_points[] = {
      {"layered-1k", scale_layered(50, 20), 3, false, false},
      {"layered-10k", scale_layered(125, 80), 2, false, false},
      {"layered-100k", scale_layered(250, 400), 1, true, false},
      {"layered-1m", scale_layered(500, 2'000), 1, true, true},
      {"grayzone-1k", scale_grayzone(1'000), 3, false, false},
      {"grayzone-10k", scale_grayzone(10'000), 2, false, false},
      {"grayzone-100k", scale_grayzone(100'000), 1, true, false},
      {"grayzone-1m", scale_grayzone(1'000'000), 1, true, true},
  };
  struct ScaleChannel {
    const char* label;
    AdversaryFactory adversary;
    const char* blurb;
    bool adversarial;
  };
  const ScaleChannel scale_channels[] = {
      {"benign", benign(), " family over reliable links only", false},
      {"bernoulli:0.1", bernoulli(0.1),
       " family with stochastic unreliable links", false},
      // The sparse frontier blocker (O(boundary) per round, no per-round
      // allocations) is what makes a worst-case-shaped adversary viable at
      // 10^5-10^6 nodes — the workload PR 4's ROADMAP flagged as blocked.
      {"greedy", greedy(),
       " family against the sparse greedy collision-blocker", true},
  };
  for (const ScalePoint& point : scale_points) {
    for (const ScaleChannel& channel : scale_channels) {
      Scenario s;
      s.name = std::string("scale/decay/") + point.label + "/" + channel.label;
      s.description = std::string("Engine-scaling workload: Decay on the "
                                  "sparse ") +
                      point.label + channel.blurb;
      s.tags = {"scale", "randomized"};
      if (channel.adversarial) s.tags.push_back("adversarial");
      if (point.slow) s.tags.push_back("slow");
      if (point.huge) s.tags.push_back("1m");
      s.network = point.network;
      s.algorithm =
          decay_windowed(/*active_phases=*/2, /*rebroadcast_period=*/32);
      s.adversary = channel.adversary;
      // CR3 (collisions are silent) is the classic no-collision-detection
      // radio assumption and keeps the steady state adversary-callback-free
      // under the benign/bernoulli channels; under greedy it means a jammed
      // solo delivery is simply lost, the blocker's intended effect.
      s.rule = CollisionRule::CR3;
      s.max_rounds = 200'000;
      s.trials = point.trials;
      registry.add(std::move(s));
    }
  }

  // --- Multi-message broadcast over the abstract MAC layer (src/mac/). ---
  mac::register_mac_scenarios(registry);

  // --- Byzantine node faults vs certified propagation (src/byz/). ---
  byz::register_byz_scenarios(registry);
}

ScenarioRegistry builtin_registry() {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  return registry;
}

Scenario parse_spec(std::string_view spec) {
  if (!spec.starts_with(kSpecPrefix)) bad_spec(spec, "no adhoc/ prefix");
  const std::vector<std::string_view> fields =
      split(spec.substr(kSpecPrefix.size()), '/');
  if (fields.size() != 5) {
    bad_spec(spec,
             "want adhoc/<network>/<algorithm>/<adversary>/<rule>/<start>");
  }
  Scenario s;
  s.name = std::string(spec);
  s.network = spec_network(spec, fields[0]);
  s.algorithm = spec_algorithm(spec, fields[1]);
  s.adversary = spec_adversary(spec, fields[2]);
  const std::string_view rule = fields[3];
  if (rule == "cr1") {
    s.rule = CollisionRule::CR1;
  } else if (rule == "cr2") {
    s.rule = CollisionRule::CR2;
  } else if (rule == "cr3") {
    s.rule = CollisionRule::CR3;
  } else if (rule == "cr4") {
    s.rule = CollisionRule::CR4;
  } else {
    bad_spec(spec, "unknown collision rule '" + std::string(rule) + "'");
  }
  const std::string_view start = fields[4];
  if (start == "sync") {
    s.start = StartRule::Synchronous;
  } else if (start == "async") {
    s.start = StartRule::Asynchronous;
  } else {
    bad_spec(spec, "unknown start rule '" + std::string(start) + "'");
  }
  s.trials = 1;
  return s;
}

std::vector<Scenario> select_scenarios(const ScenarioRegistry& registry,
                                       std::string_view filter) {
  if (filter.starts_with(kSpecPrefix)) return {parse_spec(filter)};
  return registry.match(filter);
}

}  // namespace dualrad::campaign
