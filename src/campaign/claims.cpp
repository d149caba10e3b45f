#include "campaign/claims.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <tuple>
#include <utility>

#include "adversary/greedy_blocker.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/strong_select.hpp"
#include "algorithms/uniform_gossip.hpp"
#include "algorithms/wakeup_analysis.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "core/rng.hpp"
#include "graph/algorithms.hpp"
#include "graph/broadcastability.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "interference/interference.hpp"
#include "lowerbound/theorem12.hpp"
#include "lowerbound/theorem2.hpp"
#include "lowerbound/theorem4.hpp"
#include "repeated/repeated.hpp"
#include "selectors/kautz_singleton.hpp"
#include "selectors/randomized_ssf.hpp"
#include "stats/stats.hpp"

namespace dualrad::campaign {

namespace {

using Points = std::vector<ClaimPoint>;
using Bound = std::function<double(const DualGraph&)>;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kInvalid = std::numeric_limits<double>::quiet_NaN();

[[nodiscard]] double rounds_or_inf(bool completed, Round rounds) {
  return completed ? static_cast<double>(rounds) : kInf;
}

[[nodiscard]] double nodes(const DualGraph& net) {
  return static_cast<double>(net.node_count());
}

/// D of Tables 1 and 2: the source's eccentricity in G.
[[nodiscard]] double depth(const DualGraph& net) {
  return static_cast<double>(graphalg::eccentricity(net.g_csr(), net.source()));
}

/// Section 5's O(n^{3/2} sqrt(log n)), with constant 1.
[[nodiscard]] double envelope(const DualGraph& net) {
  const double n = nodes(net);
  return n * std::sqrt(n * std::log2(n));
}

/// The T of the grammar's `harmonic` (eps = 0.1, the proof's constant 12).
[[nodiscard]] Round spec_T(NodeId n) { return harmonic_T(n, {.eps = 0.1}); }

/// Append `claims` to `table`, all measured by one call of `measure`, which
/// returns their point lists in order; the first claim checked makes it.
void add_together(std::vector<Claim>& table, std::vector<Claim> claims,
                  const std::function<std::vector<Points>()>& measure) {
  auto cache = std::make_shared<std::optional<std::vector<Points>>>();
  for (std::size_t i = 0; i < claims.size(); ++i) {
    claims[i].measure = [cache, measure, i] {
      if (!cache->has_value()) *cache = measure();
      return (**cache)[i];
    };
    table.push_back(std::move(claims[i]));
  }
}

// Simulator points.

/// One scenario's trials, folded. A trial that does not complete makes the
/// round statistics +infinity.
struct Sample {
  NodeId n = 0;
  double failures = 0.0;
  double max_rounds = 0.0;
  double mean_rounds = 0.0;
  double mean_sends = 0.0;
  /// The most busy rounds (Lemma 15, under the grammar's Harmonic T) of a
  /// trial's wake-up pattern, up to its completion round; 0 unless asked.
  double max_busy = 0.0;
};

struct Runs {
  std::vector<Scenario> scenarios;
  std::vector<Sample> samples;
};

/// Run `scenarios` as one campaign at master seed 1 and fold each one.
[[nodiscard]] Runs run_points(std::vector<Scenario> scenarios,
                              bool busy = false) {
  std::map<std::string, double> busiest;
  CampaignConfig config;
  if (busy) {
    config.observer = [&busiest](const Scenario& s, const TrialRow& row,
                                 const SimResult& result) {
      double value = kInf;
      if (row.completed) {
        std::vector<Round> pattern = result.first_token;
        std::sort(pattern.begin(), pattern.end());
        value = static_cast<double>(wakeup::busy_rounds(
            pattern, spec_T(static_cast<NodeId>(pattern.size())),
            result.completion_round));
      }
      double& worst = busiest[s.name];
      worst = std::max(worst, value);
    };
  }
  const CampaignResult result = run_campaign(scenarios, config);
  Runs runs{std::move(scenarios), {}};
  for (std::size_t i = 0; i < runs.scenarios.size(); ++i) {
    const ScenarioSummary& s = result.summaries[i];
    const bool all = s.failures == 0;
    runs.samples.push_back({.n = runs.scenarios[i].network().node_count(),
                            .failures = static_cast<double>(s.failures),
                            .max_rounds = all ? s.rounds.max : kInf,
                            .mean_rounds = all ? s.rounds.mean : kInf,
                            .mean_sends = s.mean_sends,
                            .max_busy = busiest[s.scenario]});
  }
  return runs;
}

/// Every spec `pattern` spells with its "{}" placeholders filled, in order,
/// from `values` (the first list varies slowest), each with `trials`
/// trials.
[[nodiscard]] std::vector<Scenario> specs(
    const std::string& pattern,
    const std::vector<std::vector<std::string>>& values,
    std::size_t trials = 1) {
  std::vector<std::string> filled = {std::string(kSpecPrefix) + pattern};
  for (const std::vector<std::string>& list : values) {
    std::vector<std::string> next;
    for (const std::string& partial : filled) {
      for (const std::string& value : list) {
        next.push_back(std::string(partial).replace(partial.find("{}"), 2,
                                                    value));
      }
    }
    filled = std::move(next);
  }
  std::vector<Scenario> out;
  for (const std::string& spec : filled) {
    out.push_back(parse_spec(spec));
    out.back().trials = trials;
  }
  return out;
}

[[nodiscard]] std::vector<Scenario> join(std::vector<Scenario> a,
                                         std::vector<Scenario> b) {
  a.insert(a.end(), std::make_move_iterator(b.begin()),
           std::make_move_iterator(b.end()));
  return a;
}

[[nodiscard]] std::string repro(const Scenario& s) {
  return std::string("dualrad_campaign --filter=")
      .append(s.name)
      .append(" --trials=")
      .append(std::to_string(s.trials));
}

/// "fn(arg, arg, ...)": the one-line repro of a direct library call.
[[nodiscard]] std::string call(std::string_view fn,
                               std::initializer_list<std::string_view> args) {
  std::string out(fn);
  out += '(';
  std::string_view separator;
  for (const std::string_view arg : args) {
    out.append(separator).append(arg);
    separator = ", ";
  }
  return out.append(")");
}

/// Each run's `stat` against `bound` of its own network.
[[nodiscard]] Points points_of(const Runs& runs, double Sample::*stat,
                               const Bound& bound) {
  Points points;
  points.reserve(runs.samples.size());
  for (std::size_t i = 0; i < runs.samples.size(); ++i) {
    points.push_back({runs.samples[i].n, runs.samples[i].*stat,
                      bound(runs.scenarios[i].network()),
                      repro(runs.scenarios[i])});
  }
  return points;
}

[[nodiscard]] Claim spec_claim(std::string anchor, std::string statistic,
                               Relation relation,
                               std::vector<Scenario> scenarios,
                               double Sample::*stat, Bound bound) {
  return {std::move(anchor), std::move(statistic), relation,
          [scenarios = std::move(scenarios), stat, bound = std::move(bound)] {
            return points_of(run_points(scenarios), stat, bound);
          }};
}

/// A claim whose point i measures `measured[i]`'s `stat` against
/// `against[i]`'s.
[[nodiscard]] Claim paired_claim(std::string anchor, std::string statistic,
                                 Relation relation,
                                 std::vector<Scenario> measured,
                                 std::vector<Scenario> against,
                                 double Sample::*stat) {
  return {std::move(anchor), std::move(statistic), relation,
          [measured = std::move(measured), against = std::move(against),
           stat] {
            const std::size_t k = measured.size();
            const Runs r = run_points(join(measured, against));
            Points points;
            points.reserve(k);
            for (std::size_t i = 0; i < k; ++i) {
              points.push_back(
                  {r.samples[i].n, r.samples[i].*stat, r.samples[k + i].*stat,
                   repro(measured[i]).append(" against ").append(
                       against[i].name)});
            }
            return points;
          }};
}

/// Harmonic on layered Lx4 under the greedy blocker, 5 trials: max rounds
/// against 2nTH(n) (Theorem 18) and, from the same runs, the most busy
/// rounds against nTH(n) (Lemma 15).
[[nodiscard]] std::vector<Points> harmonic_points(
    const std::vector<std::string>& layers) {
  const Runs r = run_points(
      specs("layered:layers={}:width=4/harmonic/greedy/cr4/async/cap=20000000",
            {layers}, 5),
      true);
  return {points_of(r, &Sample::max_rounds,
                    [](const DualGraph& net) {
                      const NodeId n = net.node_count();
                      return static_cast<double>(
                          harmonic_round_bound(n, spec_T(n)));
                    }),
          points_of(r, &Sample::max_busy, [](const DualGraph& net) {
            const NodeId n = net.node_count();
            return static_cast<double>(wakeup::lemma15_bound(n, spec_T(n)));
          })};
}

// Direct calls.

struct Algorithm {
  const char* name;  ///< its spelling in the scenario grammar
  ProcessFactory (*make)(NodeId n);
};

/// The deterministic algorithms the lower bounds are run against; the
/// Theorem 2 claim takes the first two.
constexpr Algorithm kDeterministic[] = {
    {"round-robin", [](NodeId n) { return make_round_robin_factory(n); }},
    {"strong-select", [](NodeId n) { return make_strong_select_factory(n); }},
    {"strong-select-forever", [](NodeId n) {
       return make_strong_select_factory(n, {.participate_forever = true});
     }}};

[[nodiscard]] Points theorem2_points() {
  Points points;
  for (const Algorithm& a : {kDeterministic[0], kDeterministic[1]}) {
    for (const NodeId n : {9, 17, 33, 65, 129}) {
      const auto r = lowerbound::run_theorem2(n, a.make(n), 1'000'000);
      points.push_back(
          {n, rounds_or_inf(r.worst_rounds != kNever, r.worst_rounds),
           static_cast<double>(r.theorem_bound),
           call("lowerbound::run_theorem2",
                {std::to_string(n), a.name, "1000000"})});
    }
  }
  return points;
}

/// One construction per (algorithm, n): its committed rounds (+inf when it
/// stalls) and the processes it leaves covered.
[[nodiscard]] std::vector<Points> theorem12_points() {
  std::vector<Points> points(2);
  for (const Algorithm& a : kDeterministic) {
    for (const NodeId n : {9, 17, 33, 65, 129, 257}) {
      const auto r = lowerbound::run_theorem12(n, a.make(n));
      const std::string repro =
          call("lowerbound::run_theorem12", {std::to_string(n), a.name});
      points[0].push_back(
          {n, r.valid ? rounds_or_inf(!r.stalled, r.total_rounds) : kInvalid,
           static_cast<double>(lowerbound::theorem12_bound(n)), repro});
      points[1].push_back(
          {n, r.valid ? static_cast<double>(r.covered_processes) : kInvalid,
           (static_cast<double>(n) + 1.0) / 2.0, repro});
    }
  }
  return points;
}

/// The min success probability over bridge ids within k rounds, against
/// k/(n-2) plus the executor's own slack of one Wilson half-width.
[[nodiscard]] Points theorem4_points() {
  constexpr NodeId n = 34;
  constexpr std::size_t trials = 150;
  std::vector<Round> ks;
  for (Round k = 1; k <= n - 3; k += 4) ks.push_back(k);
  ks.push_back(n - 3);
  const std::tuple<std::string, ProcessFactory, std::uint64_t> arms[] = {
      {"gossip", make_uniform_gossip_factory(n), 17},
      {"decay", make_decay_factory(n), 13},
      {"harmonic", make_harmonic_factory(n, {.eps = 0.1}), 11}};
  Points points;
  for (const auto& [name, factory, seed] : arms) {
    for (const auto& p :
         lowerbound::run_theorem4(n, factory, ks, trials, seed).points) {
      points.push_back(
          {n, p.min_success_prob,
           p.bound + stats::wilson_half_width(p.min_successes, trials),
           call("lowerbound::run_theorem4",
                {"34", name,
                 std::string("{").append(std::to_string(p.k)).append("}"),
                 "150", std::to_string(seed)})});
    }
  }
  return points;
}

/// Lemma 1's reading of (G_T, G_I) = (G, G'): G_T a connected random
/// backbone, G_I adds longer-range interference edges.
[[nodiscard]] DualGraph lemma1_network(NodeId n) {
  constexpr std::uint64_t seed = 7;
  const CsrGraph gt = gen::gnp_connected(n, 0.04, seed);
  CsrGraphBuilder gi(gt);
  StreamRng rng(mix_seed(seed, 0x1f));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (!gt.contains(u, v) && rng.bernoulli(0.1)) {
        gi.add_undirected_edge(u, v);
      }
    }
  }
  return DualGraph(gt, gi.freeze(RowOrder::Emission), 0);
}

/// Each execution in the explicit-interference model against the same one
/// on the dual graph under the Appendix A adversary.
[[nodiscard]] Points lemma1_points() {
  Points points;
  for (const NodeId n : {32, 64, 128}) {
    const DualGraph net = lemma1_network(n);
    const std::pair<std::string, ProcessFactory> algorithms[] = {
        {"strong-select", make_strong_select_factory(n)},
        {"harmonic", make_harmonic_factory(n, {.eps = 0.1})}};
    for (const auto& [name, factory] : algorithms) {
      for (const CollisionRule rule :
           {CollisionRule::CR1, CollisionRule::CR4}) {
        const SimConfig config{.rule = rule,
                               .start = StartRule::Synchronous,
                               .max_rounds = 10'000'000,
                               .seed = 3};
        const SimResult interference =
            run_interference_broadcast(net, factory, config);
        InterferenceSimAdversary adversary(rule);
        const SimResult dual = run_broadcast(net, factory, adversary, config);
        points.push_back(
            {n,
             rounds_or_inf(interference.completed,
                           interference.completion_round),
             rounds_or_inf(dual.completed, dual.completion_round),
             call("lemma1_network", {std::to_string(n)})
                 .append(", ")
                 .append(name)
                 .append(", ")
                 .append(to_string(rule))});
      }
    }
  }
  return points;
}

/// Strong Select over the Kautz-Singleton and randomized SSF providers, on
/// wider layered networks than the grammar's default provider rows.
[[nodiscard]] Points ssf_points() {
  const std::pair<std::string, SsfProvider> providers[] = {
      {"kautz-singleton",
       [](NodeId n, NodeId k) { return kautz_singleton_ssf(n, k); }},
      {"randomized", make_randomized_ssf_provider({.factor = 4.0, .seed = 2})}};
  Points points;
  for (const NodeId layers : {16, 32, 48}) {
    const DualGraph net = duals::layered_complete_gprime(layers, 8);
    for (const auto& [name, provider] : providers) {
      GreedyBlockerAdversary greedy;
      const SimResult r = run_broadcast(
          net,
          make_strong_select_factory(net.node_count(), {.provider = provider}),
          greedy,
          {.rule = CollisionRule::CR4,
           .start = StartRule::Asynchronous,
           .max_rounds = 20'000'000});
      points.push_back(
          {net.node_count(), rounds_or_inf(r.completed, r.completion_round),
           envelope(net),
           call("run_broadcast",
                {call("layered_complete_gprime", {std::to_string(layers), "8"}),
                 std::string("strong select over ").append(name),
                 "greedy, cr4, async"})});
    }
  }
  return points;
}

[[nodiscard]] Points kautz_singleton_size_points() {
  constexpr NodeId n = 1024;
  const double log_n = std::log2(static_cast<double>(n));
  Points points;
  for (const NodeId k : {2, 4, 8, 16, 32}) {
    points.push_back({n, static_cast<double>(kautz_singleton_ssf(n, k).size()),
                      static_cast<double>(k) * k * log_n * log_n,
                      call("kautz_singleton_ssf", {"1024", std::to_string(k)})
                          .append(".size()")});
  }
  return points;
}

/// Harmonic with T = ceil(c ln(n/eps)) on layered 16x4, 5 trials per c:
/// max rounds against 2nTH(n) where Theorem 18 applies (c >= 12), and each
/// c's mean rounds against the next smaller c's. The grammar spells only
/// c = 12, so these scenarios are built here.
[[nodiscard]] std::vector<Points> harmonic_T_points() {
  constexpr double kConstants[] = {1, 2, 4, 8, 12, 16};
  std::vector<Scenario> scenarios;
  for (const double c : kConstants) {
    Scenario s = parse_spec(std::string(kSpecPrefix) +
                            "layered:layers=16:width=4/harmonic/greedy/cr4/"
                            "async");
    s.name = std::string("claims/harmonic-T/c=")
                 .append(std::to_string(static_cast<int>(c)));
    s.algorithm = [c](const DualGraph& net) {
      return make_harmonic_factory(net.node_count(),
                                   {.eps = 0.1, .constant = c});
    };
    s.trials = 5;
    scenarios.push_back(std::move(s));
  }
  const Runs r = run_points(std::move(scenarios));
  std::vector<Points> points(2);
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    const Sample& s = r.samples[i];
    const std::string repro =
        std::string("run_campaign of ")
            .append(r.scenarios[i].name)
            .append(" (layered 16x4, Harmonic with constant c, greedy, cr4, "
                    "async, 5 trials, master seed 1)");
    if (kConstants[i] >= 12) {
      const Round T = harmonic_T(s.n, {.eps = 0.1, .constant = kConstants[i]});
      points[0].push_back({s.n, s.max_rounds,
                           static_cast<double>(harmonic_round_bound(s.n, T)),
                           repro});
    }
    if (i > 0) {
      points[1].push_back(
          {s.n, s.mean_rounds, r.samples[i - 1].mean_rounds, repro});
    }
  }
  return points;
}

/// The greedy single-sender oracle on X2's networks (against the source's
/// eccentricity), and on the bridge (against 2).
[[nodiscard]] std::vector<Points> oracle_points() {
  const auto point = [](const std::string& name, const DualGraph& net,
                        double bound) {
    return ClaimPoint{
        net.node_count(),
        static_cast<double>(
            broadcastability::greedy_oracle_schedule(net).rounds()),
        bound, call("broadcastability::greedy_oracle_schedule", {name})};
  };
  const std::pair<std::string, DualGraph> networks[] = {
      {"bridge_network(33)", duals::bridge_network(33)},
      {"bridge_network(65)", duals::bridge_network(65)},
      {"theorem12_network(33)", duals::theorem12_network(33)},
      {"layered_complete_gprime(16, 4)", duals::layered_complete_gprime(16, 4)},
      {"gray_zone({.n = 64, .seed = 3})",
       duals::gray_zone({.n = 64, .seed = 3})}};
  std::vector<Points> points(2);
  for (const auto& [name, net] : networks) {
    points[0].push_back(point(name, net, depth(net)));
  }
  for (const NodeId n : {33, 65, 129}) {
    points[1].push_back(point(call("bridge_network", {std::to_string(n)}),
                              duals::bridge_network(n), 2.0));
  }
  return points;
}

/// X1, Section 8's future work: ten broadcasts under the greedy blocker,
/// rerunning the algorithm each time (naive) against four training runs and
/// then a TDMA schedule over the learned topology, one run per (network,
/// algorithm) seeded as trial 0 of scenario `x1/greedy/<net>/<algo>` at
/// master seed 1. Point lists: the learned total against the naive total,
/// and, for Harmonic, the slowest post-training broadcast against the
/// schedule's period (Strong Select's training never learns a usable
/// topology here, so it has no period).
[[nodiscard]] std::vector<Points> repeated_points() {
  const std::tuple<std::string, std::string, DualGraph> networks[] = {
      {"grayzone",
       "gray_zone({.n = 48, .r_reliable = 0.25, .r_gray = 0.6, .seed = 7})",
       duals::gray_zone(
           {.n = 48, .r_reliable = 0.25, .r_gray = 0.6, .seed = 7})},
      {"backbone",
       "backbone_plus_unreliable({.n = 48, .p_reliable = 0.06, "
       ".p_unreliable = 0.25, .seed = 7})",
       duals::backbone_plus_unreliable(
           {.n = 48, .p_reliable = 0.06, .p_unreliable = 0.25, .seed = 7})}};
  const Algorithm algorithms[] = {
      {"harmonic", [](NodeId n) { return make_harmonic_factory(n); }},
      kDeterministic[1]};
  const auto measured = [](Round rounds) {
    return rounds_or_inf(rounds != kNever, rounds);
  };
  std::vector<Points> points(2);
  for (const auto& [net_name, spelled, net] : networks) {
    for (const Algorithm& a : algorithms) {
      const std::string name =
          std::string("x1/greedy/").append(net_name).append("/").append(
              a.name);
      GreedyBlockerAdversary greedy;
      const repeated::RepeatedOptions options{
          .broadcasts = 10,
          .training = 4,
          .min_samples = 5,
          .config = {.max_rounds = 10'000'000,
                     .seed = trial_seed(1, name, 0)}};
      const repeated::RepeatedReport r = repeated::run_repeated_broadcast(
          net, a.make(net.node_count()), greedy, options);
      const std::string repro =
          call("repeated::run_repeated_broadcast",
               {spelled, a.name, "greedy",
                "{10 broadcasts, 4 training, min_samples 5}",
                std::string("seed trial_seed(1, ").append(name).append(
                    ", 0)")});
      points[0].push_back({net.node_count(), measured(r.learned_total()),
                           measured(r.naive_total()), repro});
      if (std::string_view(a.name) == "harmonic") {
        double slowest = 0.0;
        for (std::size_t b = static_cast<std::size_t>(options.training);
             b < r.learned_rounds.size(); ++b) {
          slowest = std::max(slowest, measured(r.learned_rounds[b]));
        }
        points[1].push_back({net.node_count(), slowest,
                             static_cast<double>(r.tdma_period), repro});
      }
    }
  }
  return points;
}

/// A measured value or bound as printed: +infinity is a run that never
/// completes, NaN an invalid one.
[[nodiscard]] std::string number(double value) {
  if (std::isnan(value)) return "invalid";
  if (std::isinf(value)) return "never";
  std::ostringstream out;
  if (value == std::floor(value)) {
    out << static_cast<long long>(value);
  } else {
    out << std::fixed << std::setprecision(3) << value;
  }
  return out.str();
}

}  // namespace

bool holds(Relation relation, const ClaimPoint& point) {
  switch (relation) {
    case Relation::AtMost:
      return point.measured <= point.bound;
    case Relation::AtLeast:
      return point.measured >= point.bound;
    case Relation::Equal:
      return point.measured == point.bound;
  }
  return false;
}

ClaimCheck check_claims(const std::vector<Claim>& claims, std::ostream& out) {
  constexpr const char* kSymbol[] = {"<=", ">=", "=="};
  ClaimCheck check;
  for (const Claim& claim : claims) {
    out << "\n[" << claim.anchor << "]\n  " << claim.statistic << "\n";
    for (ClaimPoint& point : claim.measure()) {
      const bool ok = holds(claim.relation, point);
      out << (ok ? "  ok     " : "  BROKEN ") << "n=" << std::left
          << std::setw(5) << point.n << std::right << std::setw(10)
          << number(point.measured) << ' '
          << kSymbol[static_cast<int>(claim.relation)] << ' ' << std::left
          << std::setw(10) << number(point.bound) << std::right << "  "
          << point.repro << "\n";
      ++check.points;
      if (!ok) check.broken.push_back(std::move(point));
    }
  }
  out << "\n";
  for (const ClaimPoint& point : check.broken) {
    out << "broken: " << point.repro << "\n";
  }
  out << check.points - check.broken.size() << " of " << check.points
      << " claim points hold\n";
  return check;
}

std::vector<Claim> paper_claims() {
  const std::vector<std::string> layers = {"4", "8", "16", "32", "64"};
  const std::vector<std::string> bridges = {"17", "33", "65", "129", "257"};
  const std::vector<std::string> theorem11 = {"16", "36", "64", "100", "196"};

  std::vector<Claim> claims;
  claims.push_back(spec_claim(
      "Table 1, classical, O(n) [5]",
      "round robin rounds <= D n, D the source's eccentricity in G",
      Relation::AtMost,
      join(specs("classical-bridge:n={}/round-robin/benign/cr3/sync/"
                 "cap=1000000",
                 {bridges}),
           specs("theorem11:n={}/round-robin/greedy/cr4/async", {theorem11})),
      &Sample::max_rounds,
      [](const DualGraph& net) { return depth(net) * nodes(net); }));
  claims.push_back(spec_claim(
      "Table 1, dual graph, O(n^{3/2} sqrt(log n)) (Section 5)",
      "strong select rounds <= n^1.5 sqrt(log2 n)", Relation::AtMost,
      join(join(specs("layered:layers={}:width=4/strong-select/{}/cr4/async",
                      {layers,
                       {"benign", "bernoulli:0.5", "full-interference",
                        "greedy"}}),
                specs("grayzone:n={}:seed={}/strong-select/greedy/cr4/async",
                      {{"32", "64", "128", "256"}, {"1", "2", "3"}})),
           specs("theorem11:n={}/strong-select/{}/cr4/async",
                 {theorem11, {"benign", "greedy"}})),
      &Sample::max_rounds, envelope));
  claims.push_back({"Table 1, dual graph, Omega(n) (Theorem 2)",
                    "worst run_theorem2 execution, rounds >= n - 2",
                    Relation::AtLeast, theorem2_points});
  add_together(claims,
               {{"Table 1, dual graph, Omega(n log n) (Theorem 12)",
                 "rounds the construction commits (never: stalled) >= "
                 "(n-1)/4 (log2(n-1) - 2)",
                 Relation::AtLeast},
                {"Theorem 12, at most half the processes covered",
                 "covered processes <= (n+1)/2", Relation::AtMost}},
               theorem12_points);
  claims.push_back(spec_claim(
      "Table 2, classical, O(D log(n/D) + log^2 n) [12]",
      "Decay max rounds of 5 trials <= D log2(n/D) + log2^2 n",
      Relation::AtMost,
      specs("classical-bridge:n={}/decay/benign/cr3/sync/cap=1000000",
            {bridges}, 5),
      &Sample::max_rounds, [](const DualGraph& net) {
        const double d = depth(net);
        const double log_n = std::log2(nodes(net));
        return d * std::log2(nodes(net) / d) + log_n * log_n;
      }));
  // Theorem 18 and Lemma 15 read the same Harmonic runs.
  add_together(claims,
               {{"Table 2, dual graph, O(n log^2 n) (Theorem 18)",
                 "Harmonic max rounds of 5 trials <= 2nTH(n)",
                 Relation::AtMost},
                {"Lemma 15: busy rounds of a wake-up pattern",
                 "most busy rounds of those Harmonic runs, up to completion, "
                 "<= nTH(n)",
                 Relation::AtMost}},
               [layers] { return harmonic_points(layers); });
  claims.push_back({"Table 2, Theorem 4: success within k rounds on the bridge",
                    "min over bridge ids of P[done by round k] (150 trials) "
                    "<= k/(n-2) + one Wilson half-width",
                    Relation::AtMost, theorem4_points});
  claims.push_back({"Lemma 1: explicit interference runs like the dual graph",
                    "interference-model rounds == dual-graph rounds under the "
                    "Appendix A adversary (sync start, seed 3)",
                    Relation::Equal, lemma1_points});
  claims.push_back(paired_claim(
      "Section 5, participate once (A1)",
      "participate-forever sends >= participate-once sends (greedy)",
      Relation::AtLeast,
      specs("layered:layers={}:width=4/strong-select-forever/greedy/cr4/async",
            {{"8", "16", "32"}}),
      specs("layered:layers={}:width=4/strong-select/greedy/cr4/async",
            {{"8", "16", "32"}}),
      &Sample::mean_sends));
  claims.push_back({"Section 5, SSF substrate (A2)",
                    "strong select rounds on layered_complete_gprime(L, 8), "
                    "greedy, cr4, async <= n^1.5 sqrt(log2 n)",
                    Relation::AtMost, ssf_points});
  claims.push_back({"Section 5, constructive SSF size (A2)",
                    "|kautz_singleton_ssf(n, k)| <= k^2 log2^2 n",
                    Relation::AtMost, kautz_singleton_size_points});
  add_together(claims,
               {{"Theorem 18 over T (A3), c >= 12",
                 "Harmonic max rounds of 5 trials <= 2nTH(n), T = ceil(c "
                 "ln(n/0.1))",
                 Relation::AtMost},
                {"Theorem 18 over T (A3), rounds grow with T",
                 "Harmonic mean rounds of 5 trials at c >= the mean at the "
                 "next smaller c (1, 2, 4, 8, 12, 16)",
                 Relation::AtLeast}},
               harmonic_T_points);
  claims.push_back(paired_claim(
      "Section 2.2, CMS with the true Delta (A4)",
      "CMS rounds <= strong select rounds (greedy)", Relation::AtMost,
      specs("backbone:n=64:seed={}/cms/greedy/cr4/async", {{"3", "4", "11"}}),
      specs("backbone:n=64:seed={}/strong-select/greedy/cr4/async",
            {{"3", "4", "11"}}),
      &Sample::max_rounds));
  add_together(claims,
               {{"Section 3: broadcastability is at least the depth",
                 "greedy oracle rounds >= the source's eccentricity in G",
                 Relation::AtLeast},
                {"Section 3: the bridge network is 2-broadcastable",
                 "greedy oracle rounds <= 2", Relation::AtMost}},
               oracle_points);
  add_together(claims,
               {{"Section 8, repeated broadcast with topology learning (X1)",
                 "rounds of 10 broadcasts (4 training, then a TDMA schedule "
                 "over the learned topology) <= rerunning the algorithm 10 "
                 "times (greedy)",
                 Relation::AtMost},
                {"Section 8, the learned schedule is adversary-proof (X1)",
                 "slowest post-training broadcast of Harmonic <= one period "
                 "of the learned TDMA schedule",
                 Relation::AtMost}},
               repeated_points);
  // BMMB over DecayMac (M1): every mac/* builtin under a benign or
  // Bernoulli channel completes all its trials.
  std::vector<Scenario> mac_arms;
  for (Scenario& s : builtin_registry().match("mac/")) {
    if (s.name.find("greedy") == std::string::npos) {
      mac_arms.push_back(std::move(s));
    }
  }
  claims.push_back(spec_claim(
      "BMMB over DecayMac (Ghaffari-Kantor-Lynch-Newport), benign and "
      "Bernoulli channels",
      "trials of the builtin (at its own count) that do not complete == 0",
      Relation::Equal, std::move(mac_arms), &Sample::failures,
      [](const DualGraph&) { return 0.0; }));
  return claims;
}

}  // namespace dualrad::campaign
