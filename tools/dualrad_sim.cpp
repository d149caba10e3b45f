// dualrad_sim — command-line driver for the dual graph radio network
// simulator.
//
// Examples:
//   dualrad_sim --network=grayzone --n=64 --algorithm=harmonic
//               --adversary=greedy --rule=cr4 --start=async --trials=5
//   dualrad_sim --network=bridge --n=32 --algorithm=strong_select
//               --adversary=bernoulli:0.5 --csv
//
// Prints one line per trial (or CSV with --csv): completion round, sends,
// collision events; then a summary.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/cms_oblivious.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/strong_select.hpp"
#include "algorithms/uniform_gossip.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "lowerbound/theorem11_network.hpp"
#include "stats/stats.hpp"

namespace {

using namespace dualrad;

struct Options {
  std::string network = "grayzone";
  NodeId n = 64;
  std::string algorithm = "harmonic";
  std::string adversary = "greedy";
  std::string rule = "cr4";
  std::string start = "async";
  std::uint64_t seed = 1;
  int trials = 1;
  Round max_rounds = 10'000'000;
  bool csv = false;
  bool help = false;
};

void usage() {
  std::puts(
      "usage: dualrad_sim [--key=value ...]\n"
      "  --network=  bridge | layered | grayzone | backbone | theorem11 |\n"
      "              theorem12 | clique (classical G=G')\n"
      "  --n=        network size (default 64)\n"
      "  --algorithm= strong_select | strong_select_forever | harmonic |\n"
      "              round_robin | decay | gossip | cms\n"
      "  --adversary= benign | full | greedy | bernoulli:<p>\n"
      "  --rule=     cr1 | cr2 | cr3 | cr4\n"
      "  --start=    sync | async\n"
      "  --seed=     master seed (default 1)\n"
      "  --trials=   repetitions with derived seeds (default 1)\n"
      "  --max-rounds= cap (default 10'000'000)\n"
      "  --csv       machine-readable output\n");
}

std::optional<Options> parse(int argc, char** argv) try {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> std::optional<std::string> {
      const std::string p(prefix);
      if (arg.rfind(p, 0) == 0) return arg.substr(p.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (auto v = value("--network=")) {
      options.network = *v;
    } else if (auto v = value("--n=")) {
      options.n = static_cast<NodeId>(std::stol(*v));
    } else if (auto v = value("--algorithm=")) {
      options.algorithm = *v;
    } else if (auto v = value("--adversary=")) {
      options.adversary = *v;
    } else if (auto v = value("--rule=")) {
      options.rule = *v;
    } else if (auto v = value("--start=")) {
      if (*v != "sync" && *v != "async") {
        std::fprintf(stderr, "unknown start rule: %s\n", v->c_str());
        return std::nullopt;
      }
      options.start = *v;
    } else if (auto v = value("--seed=")) {
      options.seed = std::stoull(*v);
    } else if (auto v = value("--trials=")) {
      options.trials = std::stoi(*v);
    } else if (auto v = value("--max-rounds=")) {
      options.max_rounds = std::stoll(*v);
    } else if (arg == "--csv") {
      options.csv = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return options;
} catch (const std::exception&) {
  std::fprintf(stderr, "malformed numeric argument\n");
  return std::nullopt;
}

DualGraph build_network(const Options& options) {
  const NodeId n = options.n;
  if (options.network == "bridge") return duals::bridge_network(n);
  if (options.network == "layered") {
    return duals::layered_complete_gprime(std::max<NodeId>(3, (n - 1) / 4), 4);
  }
  if (options.network == "grayzone") {
    return duals::gray_zone({.n = n, .r_reliable = 0.22, .r_gray = 0.55,
                             .seed = options.seed});
  }
  if (options.network == "backbone") {
    return duals::backbone_plus_unreliable(
        {.n = n, .p_reliable = 0.05, .p_unreliable = 0.2,
         .seed = options.seed});
  }
  if (options.network == "theorem11") {
    return lowerbound::theorem11_network(n);
  }
  if (options.network == "theorem12") return duals::theorem12_network(n);
  if (options.network == "clique") return make_classical(gen::clique(n), 0);
  throw std::invalid_argument("unknown network: " + options.network);
}

ProcessFactory build_algorithm(const Options& options, const DualGraph& net) {
  const NodeId n = net.node_count();
  if (options.algorithm == "strong_select") {
    return make_strong_select_factory(n);
  }
  if (options.algorithm == "strong_select_forever") {
    StrongSelectOptions opts;
    opts.participate_forever = true;
    return make_strong_select_factory(n, opts);
  }
  if (options.algorithm == "harmonic") return make_harmonic_factory(n);
  if (options.algorithm == "round_robin") return make_round_robin_factory(n);
  if (options.algorithm == "decay") return make_decay_factory(n);
  if (options.algorithm == "gossip") return make_uniform_gossip_factory(n);
  if (options.algorithm == "cms") {
    return make_cms_oblivious_factory(
        n, {.delta = static_cast<NodeId>(net.g_prime_csr().max_in_degree())});
  }
  throw std::invalid_argument("unknown algorithm: " + options.algorithm);
}

std::unique_ptr<Adversary> build_adversary(const Options& options) {
  if (options.adversary == "benign") return std::make_unique<BenignAdversary>();
  if (options.adversary == "full") {
    return std::make_unique<FullInterferenceAdversary>();
  }
  if (options.adversary == "greedy") {
    return std::make_unique<GreedyBlockerAdversary>();
  }
  if (options.adversary.rfind("bernoulli:", 0) == 0) {
    const double p = std::stod(options.adversary.substr(10));
    return std::make_unique<BernoulliAdversary>(p, options.seed + 0xADu);
  }
  throw std::invalid_argument("unknown adversary: " + options.adversary);
}

CollisionRule parse_rule(const std::string& rule) {
  if (rule == "cr1") return CollisionRule::CR1;
  if (rule == "cr2") return CollisionRule::CR2;
  if (rule == "cr3") return CollisionRule::CR3;
  if (rule == "cr4") return CollisionRule::CR4;
  throw std::invalid_argument("unknown rule: " + rule);
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed.has_value()) {
    usage();
    return 2;
  }
  const Options& options = *parsed;
  if (options.help) {
    usage();
    return 0;
  }
  try {
    const DualGraph net = build_network(options);
    const ProcessFactory factory = build_algorithm(options, net);
    const auto adversary = build_adversary(options);

    SimConfig config;
    config.rule = parse_rule(options.rule);
    config.start = options.start == "sync" ? StartRule::Synchronous
                                           : StartRule::Asynchronous;
    config.max_rounds = options.max_rounds;

    if (options.csv) {
      std::puts("trial,seed,completed,rounds,sends,collision_events");
    } else {
      std::printf("network=%s n=%d (|E|=%zu unreliable=%zu) algorithm=%s "
                  "adversary=%s %s %s\n",
                  options.network.c_str(), net.node_count(),
                  net.g_csr().edge_count(), net.unreliable_edge_count(),
                  options.algorithm.c_str(), options.adversary.c_str(),
                  to_string(config.rule).c_str(),
                  to_string(config.start).c_str());
    }

    std::vector<Round> rounds;
    for (int t = 0; t < options.trials; ++t) {
      config.seed = mix_seed(options.seed, static_cast<std::uint64_t>(t));
      const SimResult result =
          run_broadcast(net, factory, *adversary, config);
      if (options.csv) {
        std::printf("%d,%llu,%d,%lld,%llu,%llu\n", t,
                    static_cast<unsigned long long>(config.seed),
                    result.completed ? 1 : 0,
                    static_cast<long long>(result.completion_round),
                    static_cast<unsigned long long>(result.total_sends),
                    static_cast<unsigned long long>(
                        result.total_collision_events));
      } else {
        std::printf("trial %2d: completed=%s rounds=%lld sends=%llu "
                    "collisions=%llu\n",
                    t, result.completed ? "yes" : "no",
                    static_cast<long long>(result.completion_round),
                    static_cast<unsigned long long>(result.total_sends),
                    static_cast<unsigned long long>(
                        result.total_collision_events));
      }
      if (result.completed) rounds.push_back(result.completion_round);
    }
    if (!options.csv && options.trials > 1 && !rounds.empty()) {
      const auto summary = dualrad::stats::summarize_rounds(rounds);
      std::printf("summary: mean=%.1f median=%.0f min=%.0f max=%.0f "
                  "(%zu/%d completed)\n",
                  summary.mean, summary.median, summary.min, summary.max,
                  rounds.size(), options.trials);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
