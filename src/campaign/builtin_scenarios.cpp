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
#include "algorithms/cms_oblivious.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/strong_select.hpp"
#include "algorithms/uniform_gossip.hpp"
#include "byz/adaptive.hpp"
#include "byz/cpa.hpp"
#include "byz/plan.hpp"
#include "core/rng.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "lowerbound/theorem11_network.hpp"
#include "mac/bmmb.hpp"

namespace dualrad::campaign {

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

/// Windowed Decay (`decay-windowed`), BGI-style bounded windows plus
/// maintenance beacons: the decay schedule for two phases after the token
/// arrives, then one phase in every 32. Completion stays certain while
/// steady-state rounds carry only the frontier plus a thin beacon trickle.
constexpr Round kDecayActivePhases = 2;
constexpr Round kDecayBeaconPeriod = 32;

/// The uncertified relay's and CPA's schedule: like windowed Decay, a
/// bounded active window after the first acceptance or adoption, then
/// sparse beacons, so steady-state rounds stay cheap at 10k-100k nodes.
constexpr double kRelayP = 0.5;
constexpr Round kRelayActiveRounds = 64;
constexpr Round kRelayBeaconPeriod = 16;

/// The corruption budget of the `byz:f=F:adaptive` fault.
constexpr std::size_t kAdaptiveBudget = 4;

/// The byz trial body: draw a fresh f-locally-bounded placement of
/// clamp(n / 200, 4, kMaxForgers) faults from the trial's seed stream, run
/// the execution with the plan wired into the engine, optionally letting an
/// adaptive adversary grow the placement from the coverage frontier. Pure in
/// its arguments (the placement depends only on the network and
/// config.seed), so campaign runs stay bit-identical across workers,
/// engines, and threads-per-trial.
[[nodiscard]] TrialRunner byz_runner(int f, byz::ByzBehavior behavior,
                                     std::size_t adaptive_budget) {
  return [f, behavior, adaptive_budget](
             const DualGraph& net, const ProcessFactory& factory,
             Adversary& adversary, const SimConfig& config) {
    const std::size_t count = std::clamp<std::size_t>(
        static_cast<std::size_t>(net.node_count()) / 200, 4,
        byz::ByzantinePlan::kMaxForgers);
    byz::ByzantinePlan plan =
        byz::make_random_plan(net, f, count, behavior, config.token_sources,
                              mix_seed(config.seed, 0xB12));
    SimConfig cfg = config;
    cfg.byzantine = &plan;
    if (adaptive_budget > 0) {
      byz::AdaptiveByzAdversary adaptive(
          adversary, plan, {.budget = adaptive_budget, .behavior = behavior});
      return run_broadcast(net, factory, adaptive, cfg);
    }
    return run_broadcast(net, factory, adversary, cfg);
  };
}

// Scenario specs (parse_spec).

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

/// `text` as a plain decimal T of at least `min`; `what` names the value in
/// the error.
template <class T>
[[nodiscard]] T integer(std::string_view spec, std::string_view text,
                        std::uint64_t min, std::string_view what) {
  const std::optional<std::uint64_t> value = plain_number<std::uint64_t>(text);
  if (!value.has_value() || *value < min || !std::in_range<T>(*value)) {
    bad_spec(spec, std::string(what) + " needs a plain decimal >= " +
                       std::to_string(min) + " that fits its type, not '" +
                       std::string(text) + "'");
  }
  return static_cast<T>(*value);
}

/// The argument texts of `field`, which must read `<name>:<key>=V...` with
/// exactly `keys`, in this order.
[[nodiscard]] std::vector<std::string_view> read_args(
    std::string_view spec, std::string_view field,
    std::initializer_list<std::string_view> keys) {
  const std::vector<std::string_view> parts = split(field, ':');
  std::string form(parts.front());
  for (const std::string_view key : keys) form.append(":").append(key) += "=V";
  std::vector<std::string_view> values;
  for (const std::string_view key : keys) {
    const std::size_t i = values.size() + 1;
    if (parts.size() != keys.size() + 1 ||
        !parts[i].starts_with(std::string(key) + "=")) {
      bad_spec(spec, "'" + std::string(field) + "' is not " + form);
    }
    values.push_back(parts[i].substr(key.size() + 1));
  }
  return values;
}

[[nodiscard]] NetworkBuilder spec_network(std::string_view spec,
                                          std::string_view field) {
  const std::string_view family = field.substr(0, field.find(':'));
  const auto node = [&](std::string_view text) {
    return integer<NodeId>(spec, text, 0, "a network size");
  };
  const auto seed = [&](std::string_view text) {
    return integer<std::uint64_t>(spec, text, 0, "a topology seed");
  };
  if (family == "layered" || family == "scale-layered") {
    const std::vector<std::string_view> a =
        read_args(spec, field, {"layers", "width"});
    const NodeId layers = node(a[0]);
    const NodeId width = node(a[1]);
    if (family == "scale-layered") return scale_layered(layers, width);
    return [layers, width] {
      return duals::layered_complete_gprime(layers, width);
    };
  }
  if (family == "grayzone" || family == "backbone") {
    const std::vector<std::string_view> a =
        read_args(spec, field, {"n", "seed"});
    const NodeId n = node(a[0]);
    const std::uint64_t s = seed(a[1]);
    if (family == "backbone") {
      return [n, s] {
        return duals::backbone_plus_unreliable(
            {.n = n, .p_reliable = 0.05, .p_unreliable = 0.2, .seed = s});
      };
    }
    return [n, s] {
      return duals::gray_zone(
          {.n = n, .r_reliable = 0.22, .r_gray = 0.55, .seed = s});
    };
  }
  // The families sized by n alone.
  using BySize = DualGraph (*)(NodeId);
  static constexpr std::pair<std::string_view, BySize> kBySize[] = {
      {"bridge", [](NodeId n) { return duals::bridge_network(n); }},
      {"classical-bridge",
       [](NodeId n) {
         return duals::strip_unreliable(duals::bridge_network(n));
       }},
      {"clique", [](NodeId n) { return make_classical(gen::clique(n), 0); }},
      {"theorem11",
       [](NodeId n) { return lowerbound::theorem11_network(n); }},
      {"theorem12", [](NodeId n) { return duals::theorem12_network(n); }},
  };
  for (const auto& [name, build] : kBySize) {
    if (family != name) continue;
    const NodeId n = node(read_args(spec, field, {"n"})[0]);
    return [build, n] { return build(n); };
  }
  if (family == "scale-grayzone") {
    return scale_grayzone(node(read_args(spec, field, {"n"})[0]));
  }
  bad_spec(spec, "unknown network family '" + std::string(family) + "'");
}

[[nodiscard]] AlgorithmBuilder spec_algorithm(std::string_view spec,
                                              std::string_view field) {
  // The algorithms whose factory needs only n.
  using ByN = ProcessFactory (*)(NodeId);
  static constexpr std::pair<std::string_view, ByN> kByN[] = {
      {"round-robin", [](NodeId n) { return make_round_robin_factory(n); }},
      {"strong-select",
       [](NodeId n) { return make_strong_select_factory(n); }},
      // Section 5's contrast with the paper's participate-once rule: join
      // every family iteration forever.
      {"strong-select-forever",
       [](NodeId n) {
         return make_strong_select_factory(n, {.participate_forever = true});
       }},
      {"harmonic",
       [](NodeId n) { return make_harmonic_factory(n, {.eps = 0.1}); }},
      {"decay", [](NodeId n) { return make_decay_factory(n); }},
      {"decay-windowed",
       [](NodeId n) {
         return make_decay_factory(
             n, {.active_phases = kDecayActivePhases,
                 .rebroadcast_period = kDecayBeaconPeriod});
       }},
      {"gossip", [](NodeId n) { return make_uniform_gossip_factory(n); }},
      {"relay",
       [](NodeId n) {
         return byz::make_uncertified_relay_factory(
             n, {.relay_p = kRelayP,
                 .active_rounds = kRelayActiveRounds,
                 .rebroadcast_period = kRelayBeaconPeriod});
       }},
      {"bmmb", [](NodeId n) { return mac::make_bmmb_factory(n); }},
  };
  for (const auto& [name, make] : kByN) {
    if (field == name) {
      return [make](const DualGraph& net) { return make(net.node_count()); };
    }
  }
  if (field == "cms") {
    return [](const DualGraph& net) {
      return make_cms_oblivious_factory(
          net.node_count(),
          {.delta = static_cast<NodeId>(net.g_prime_csr().max_in_degree())});
    };
  }
  if (field.starts_with("cpa:")) {
    const std::int32_t f = integer<std::int32_t>(
        spec, read_args(spec, field, {"f"})[0], 1, "cpa:f");
    return [f](const DualGraph& net) {
      // No adversary of the grammar remaps processes, so the source's
      // process id is the source node: messages with that origin really
      // come from the source — the "source-adjacent accept" rule.
      return byz::make_cpa_factory(
          net.node_count(),
          {.f = f,
           .trusted_origins = {static_cast<ProcessId>(net.source())},
           .relay_p = kRelayP,
           .active_rounds = kRelayActiveRounds,
           .rebroadcast_period = kRelayBeaconPeriod});
    };
  }
  bad_spec(spec, "unknown algorithm '" + std::string(field) + "'");
}

[[nodiscard]] AdversaryFactory spec_adversary(std::string_view spec,
                                              std::string_view name) {
  if (name == "benign") return make_adversary_factory<BenignAdversary>();
  if (name == "greedy") return make_adversary_factory<GreedyBlockerAdversary>();
  if (name == "full-interference") {
    return make_adversary_factory<FullInterferenceAdversary>();
  }
  constexpr std::string_view kBernoulli = "bernoulli:";
  if (name.starts_with(kBernoulli)) {
    const std::optional<double> p =
        plain_number<double>(name.substr(kBernoulli.size()));
    if (p.has_value() && *p <= 1.0) {
      return make_seeded_adversary_factory<BernoulliAdversary>(*p);
    }
    bad_spec(spec, "bernoulli:P needs P in [0, 1] as a plain decimal");
  }
  bad_spec(spec, "unknown adversary '" + std::string(name) + "'");
}

/// `byz:f=F:<fault>` after its `byz:` prefix.
[[nodiscard]] TrialRunner spec_byz(std::string_view spec,
                                   std::string_view field) {
  const std::vector<std::string_view> parts = split(field, ':');
  if (parts.size() != 2 || !parts[0].starts_with("f=")) {
    bad_spec(spec, "want byz:f=F:silent, byz:f=F:forge or "
                   "byz:f=F:adaptive");
  }
  const int f = integer<int>(spec, parts[0].substr(2), 1, "byz:f");
  const std::string_view fault = parts[1];
  if (fault == "silent") return byz_runner(f, byz::ByzBehavior::Silent, 0);
  if (fault == "forge") return byz_runner(f, byz::ByzBehavior::Forge, 0);
  if (fault == "adaptive") {
    return byz_runner(f, byz::ByzBehavior::Forge, kAdaptiveBudget);
  }
  bad_spec(spec, "unknown Byzantine fault '" + std::string(fault) + "'");
}

/// One builtin: its name, the spec of its tuple (without kSpecPrefix), its
/// trial count and tags.
struct Builtin {
  std::string name;
  std::string spec;
  std::size_t trials;
  std::vector<std::string> tags;
};

/// The catalogue, in registration order (the row order of campaign output).
/// Sizes are chosen so the catalogue below the slow tag runs in seconds to
/// low minutes; the campaign CLI's --trials flag scales sampling up.
[[nodiscard]] std::vector<Builtin> catalogue() {
  const std::string layered8x4 = "layered:layers=8:width=4";
  const std::string grayzone48 = "grayzone:n=48:seed=7";
  std::vector<Builtin> rows = {
      // Classical-model baselines (G == G', benign channel).
      {"classical/round-robin/bridge/benign",
       "classical-bridge:n=33/round-robin/benign/cr3/sync/cap=1000000", 1,
       {"classical", "deterministic", "table1", "quick"}},
      {"classical/decay/bridge/benign",
       "classical-bridge:n=33/decay/benign/cr3/sync/cap=1000000", 5,
       {"classical", "randomized", "table2", "quick"}},
      {"classical/gossip/clique/benign",
       "clique:n=33/gossip/benign/cr3/sync/cap=1000000", 5,
       {"classical", "randomized", "theorem4", "quick"}},
      // Deterministic algorithms on dual graphs.
      {"dual/round-robin/layered/full-interference",
       layered8x4 + "/round-robin/full-interference/cr4/async", 1,
       {"dual", "deterministic", "section4", "quick"}},
      {"dual/strong-select/layered/greedy",
       layered8x4 + "/strong-select/greedy/cr4/async", 1,
       {"dual", "deterministic", "table1", "section5"}},
      {"dual/strong-select/layered/bernoulli:0.5",
       layered8x4 + "/strong-select/bernoulli:0.5/cr4/async", 5,
       {"dual", "deterministic", "section5"}},
      {"dual/strong-select/grayzone/greedy",
       grayzone48 + "/strong-select/greedy/cr4/async", 1,
       {"dual", "deterministic", "grayzone"}},
      {"dual/cms/layered/greedy", layered8x4 + "/cms/greedy/cr4/async", 1,
       {"dual", "deterministic", "section2.2", "quick"}},
      // Randomized algorithms on dual graphs.
      {"dual/harmonic/layered/greedy",
       layered8x4 + "/harmonic/greedy/cr4/async/cap=20000000", 5,
       {"dual", "randomized", "table2", "section7"}},
      {"dual/harmonic/layered/full-interference",
       layered8x4 + "/harmonic/full-interference/cr4/async/cap=20000000", 5,
       {"dual", "randomized", "section7"}},
      {"dual/harmonic/grayzone/bernoulli:0.3",
       grayzone48 + "/harmonic/bernoulli:0.3/cr4/async/cap=20000000", 5,
       {"dual", "randomized", "grayzone", "section7"}},
      {"dual/harmonic/backbone/bernoulli:0.5",
       "backbone:n=48:seed=11/harmonic/bernoulli:0.5/cr4/async/cap=20000000",
       5, {"dual", "randomized", "backbone", "section7"}},
      {"dual/gossip/layered/bernoulli:0.5",
       layered8x4 + "/gossip/bernoulli:0.5/cr4/async/cap=2000000", 5,
       {"dual", "randomized"}},
      // Decay carries no dual-graph guarantee (Table 2's contrast): the
      // greedy blocker can starve it, so trials may hit the round cap.
      {"dual/decay/layered/greedy",
       layered8x4 + "/decay/greedy/cr4/async/cap=100000", 3,
       {"dual", "randomized", "table2", "negative"}},
  };

  // Engine scaling, 10^3..10^6 nodes: windowed Decay under asynchronous
  // start keeps the awake set equal to the covered set, the regime the
  // sparse CSR engine is built for. CR3 (collisions are silent) keeps the
  // benign and Bernoulli steady state free of adversary callbacks; under
  // the sparse greedy blocker a jammed solo delivery is simply lost.
  struct ScalePoint {
    const char* label;
    std::string network;
    std::size_t trials;
    std::vector<std::string> size_tags;
  };
  const ScalePoint scale_points[] = {
      {"layered-1k", "scale-layered:layers=50:width=20", 3, {}},
      {"layered-10k", "scale-layered:layers=125:width=80", 2, {}},
      {"layered-100k", "scale-layered:layers=250:width=400", 1, {"slow"}},
      {"layered-1m", "scale-layered:layers=500:width=2000", 1, {"slow", "1m"}},
      {"grayzone-1k", "scale-grayzone:n=1000", 3, {}},
      {"grayzone-10k", "scale-grayzone:n=10000", 2, {}},
      {"grayzone-100k", "scale-grayzone:n=100000", 1, {"slow"}},
      {"grayzone-1m", "scale-grayzone:n=1000000", 1, {"slow", "1m"}},
  };
  for (const ScalePoint& point : scale_points) {
    for (const char* channel : {"benign", "bernoulli:0.1", "greedy"}) {
      Builtin row{std::string("scale/decay/") + point.label + "/" + channel,
                  point.network + "/decay-windowed/" + channel +
                      "/cr3/async/cap=200000",
                  point.trials,
                  {"scale", "randomized"}};
      if (std::string_view(channel) == "greedy") {
        row.tags.push_back("adversarial");
      }
      row.tags.insert(row.tags.end(), point.size_tags.begin(),
                      point.size_tags.end());
      rows.push_back(std::move(row));
    }
  }

  // Multi-message broadcast: BMMB over DecayMac with k tokens at spread
  // sources; completion means every process holds every token.
  rows.insert(
      rows.end(),
      {{"mac/bmmb-decay/layered/k=1/benign",
        layered8x4 + "/bmmb/benign/cr4/async/cap=500000", 3,
        {"mac", "multi-message", "randomized", "k=1"}},
       {"mac/bmmb-decay/layered/k=4/benign",
        layered8x4 + "/bmmb/benign/cr4/async/tokens=4/cap=500000", 3,
        {"mac", "multi-message", "randomized", "k=4"}},
       {"mac/bmmb-decay/layered/k=16/bernoulli:0.5",
        layered8x4 + "/bmmb/bernoulli:0.5/cr4/async/tokens=16/cap=500000", 3,
        {"mac", "multi-message", "randomized", "k=16"}},
       // The greedy blocker can starve the MAC layer as it starves Decay,
       // so these trials may hit the round cap.
       {"mac/bmmb-decay/layered/k=4/greedy",
        layered8x4 + "/bmmb/greedy/cr4/async/tokens=4/cap=100000", 2,
        {"mac", "multi-message", "randomized", "k=4", "negative"}},
       {"mac/bmmb-decay/grayzone/k=4/bernoulli:0.3",
        grayzone48 + "/bmmb/bernoulli:0.3/cr4/async/tokens=4/cap=500000", 3,
        {"mac", "multi-message", "randomized", "k=4"}},
       {"mac/bmmb-decay/grayzone/k=16/benign",
        grayzone48 + "/bmmb/benign/cr4/async/tokens=16/cap=500000", 3,
        {"mac", "multi-message", "randomized", "k=16"}}});

  // Byzantine node faults against certified propagation ("cpa") and the
  // uncertified relay ("decay" in the names) on the scale grid's
  // topologies, so byz/* numbers compare with the fault-free scale/* rows.
  const std::string layered1k = "scale-layered:layers=50:width=20/";
  const std::string grayzone1k = "scale-grayzone:n=1000/";
  const std::vector<std::string> byz = {"byz", "randomized", "adversarial"};
  const std::vector<std::string> byz_slow = {"byz", "randomized",
                                             "adversarial", "slow"};
  rows.insert(
      rows.end(),
      {{"byz/layered-1k/cpa/f=1-silent",
        layered1k + "cpa:f=1/benign/cr3/async/byz:f=1:silent/cap=20000", 3,
        byz},
       {"byz/layered-1k/cpa/f=1-forge",
        layered1k + "cpa:f=1/benign/cr3/async/byz:f=1:forge/cap=20000", 3,
        byz},
       {"byz/layered-1k/decay/f=1-silent",
        layered1k + "relay/benign/cr3/async/byz:f=1:silent/cap=20000", 3, byz},
       {"byz/layered-1k/decay/f=1-forge",
        layered1k + "relay/benign/cr3/async/byz:f=1:forge/cap=20000", 3, byz},
       {"byz/layered-1k/cpa/f=2-forge",
        layered1k + "cpa:f=2/benign/cr3/async/byz:f=2:forge/cap=20000", 3,
        byz},
       {"byz/layered-1k/decay/f=2-forge",
        layered1k + "relay/benign/cr3/async/byz:f=2:forge/cap=20000", 3, byz},
       {"byz/grayzone-1k/cpa/f=1-forge",
        grayzone1k + "cpa:f=1/bernoulli:0.25/cr3/async/byz:f=1:forge/cap=20000",
        3, byz},
       {"byz/grayzone-1k/decay/f=1-forge",
        grayzone1k + "relay/bernoulli:0.25/cr3/async/byz:f=1:forge/cap=20000",
        3, byz},
       {"byz/grayzone-1k/cpa/f=2-silent",
        grayzone1k +
            "cpa:f=2/bernoulli:0.25/cr3/async/byz:f=2:silent/cap=20000",
        3, byz},
       {"byz/layered-10k/cpa/f=1-forge",
        "scale-layered:layers=125:width=80/cpa:f=1/benign/cr3/async/"
        "byz:f=1:forge/cap=20000",
        2, byz},
       {"byz/layered-10k/decay/f=1-forge",
        "scale-layered:layers=125:width=80/relay/benign/cr3/async/"
        "byz:f=1:forge/cap=20000",
        2, byz},
       {"byz/layered-10k/cpa/f=1-adaptive",
        "scale-layered:layers=125:width=80/cpa:f=1/benign/cr3/async/"
        "byz:f=1:adaptive/cap=20000",
        2, byz},
       {"byz/grayzone-10k/cpa/f=2-forge",
        "scale-grayzone:n=10000/cpa:f=2/bernoulli:0.25/cr3/async/"
        "byz:f=2:forge/cap=20000",
        2, byz},
       {"byz/layered-100k/cpa/f=1-forge",
        "scale-layered:layers=250:width=400/cpa:f=1/benign/cr3/async/"
        "byz:f=1:forge/cap=40000",
        1, byz_slow},
       {"byz/grayzone-100k/cpa/f=2-silent",
        "scale-grayzone:n=100000/cpa:f=2/bernoulli:0.25/cr3/async/"
        "byz:f=2:silent/cap=40000",
        1, byz_slow}});
  return rows;
}

}  // namespace

ScenarioRegistry builtin_registry() {
  ScenarioRegistry registry;
  for (Builtin& row : catalogue()) {
    Scenario s = parse_spec(std::string(kSpecPrefix) + row.spec);
    s.name = std::move(row.name);
    s.trials = row.trials;
    s.tags = std::move(row.tags);
    registry.add(std::move(s));
  }
  return registry;
}

Scenario parse_spec(std::string_view spec) {
  if (!spec.starts_with(kSpecPrefix)) bad_spec(spec, "no adhoc/ prefix");
  const std::vector<std::string_view> fields =
      split(spec.substr(kSpecPrefix.size()), '/');
  if (fields.size() < 5) {
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

  // The optional fields, in grammar order, each at most once. All are
  // checked before tokens=K builds the network to place its sources.
  std::size_t next = 5;
  const auto optional = [&](std::string_view prefix) {
    std::optional<std::string_view> value;
    if (next < fields.size() && fields[next].starts_with(prefix)) {
      value = fields[next++].substr(prefix.size());
    }
    return value;
  };
  std::optional<TokenId> tokens;
  if (const auto k = optional("tokens=")) {
    tokens = integer<TokenId>(spec, *k, 2, "tokens=K");
  }
  if (const auto byz = optional("byz:")) s.runner = spec_byz(spec, *byz);
  if (const auto cap = optional("cap=")) {
    const Round rounds = integer<Round>(spec, *cap, 1, "cap=N");
    if (rounds == Scenario{}.max_rounds) {
      bad_spec(spec, "cap=" + std::string(*cap) +
                         " is the default; leave the field out");
    }
    s.max_rounds = rounds;
  }
  if (next < fields.size()) {
    bad_spec(spec, "unexpected field '" + std::string(fields[next]) +
                       "': after <start> come [/tokens=K][/byz:f=F:<fault>]"
                       "[/cap=N], in this order, each at most once");
  }
  if (tokens.has_value()) {
    s.token_sources = mac::spread_token_sources(s.network(), *tokens);
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
