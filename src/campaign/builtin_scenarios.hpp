#pragma once

#include <string_view>
#include <vector>

#include "campaign/registry.hpp"

/// \file builtin_scenarios.hpp
/// The standard scenario catalogue: the paper's Table 1 / Table 2 workloads,
/// the realistic dual-graph families, and the multi-message MAC-layer suite
/// (src/mac/mac_scenarios.hpp), as registered campaign scenarios — plus the
/// scenario spec grammar that spells any single-token run from the same
/// builders.
///
/// Naming convention: <model>/<algorithm>/<network>/<adversary>, where model
/// is "classical" (G == G'), "dual", or "mac" (multi-message over the
/// abstract MAC layer). Tags include the model, the algorithm family
/// ("deterministic"/"randomized"), and the paper anchor ("table1", "table2",
/// "section7", ...).

namespace dualrad::campaign {

/// Register the built-in catalogue (>= 18 scenarios) into `registry`.
/// Throws if any name collides with an already-registered scenario.
void register_builtin_scenarios(ScenarioRegistry& registry);

/// A fresh registry holding exactly the built-in catalogue.
[[nodiscard]] ScenarioRegistry builtin_registry();

/// Network builders shared by the catalogue's registrars (this one, the MAC
/// suite and the Byzantine suite), so equal names mean equal networks.
/// layered: duals::layered_complete_gprime. gray_zone: duals::gray_zone with
/// r_reliable 0.22 and r_gray 0.55.
[[nodiscard]] NetworkBuilder layered(NodeId layers, NodeId width);
[[nodiscard]] NetworkBuilder gray_zone(NodeId n, std::uint64_t seed);
/// The large-n families of the scale/* and byz/* grids: bounded degree, O(n)
/// memory, topology seed 17 (duals::layered_sparse with forward degree 3 and
/// unreliable degree 2; duals::gray_zone_grid with mean degree 12 and gray
/// factor 1.5).
[[nodiscard]] NetworkBuilder scale_layered(NodeId layers, NodeId width);
[[nodiscard]] NetworkBuilder scale_grayzone(NodeId n);

/// Every scenario spec starts with this; no builtin name does.
inline constexpr std::string_view kSpecPrefix = "adhoc/";

/// Parse a scenario spec: the paper's model tuple as one name,
///
///   adhoc/<network>/<algorithm>/<adversary>/<rule>/<start>
///   e.g. adhoc/grayzone:n=64:seed=7/harmonic/greedy/cr4/async
///
///   network    bridge:n=N | layered:layers=L:width=W | grayzone:n=N:seed=S
///              | backbone:n=N:seed=S | theorem11:n=N | theorem12:n=N
///              | clique:n=N (classical, G = G')
///   algorithm  round-robin | strong-select | strong-select-forever
///              | harmonic | decay | gossip | cms
///   adversary  benign | greedy | full-interference | bernoulli:P
///   rule       cr1 | cr2 | cr3 | cr4
///   start      sync | async
///
/// Each scenario has exactly one spelling: fields in this order, every
/// builder argument present and in this order, and numbers as unsigned
/// decimals in their shortest form (n=64 and P=0.5; never n=064, n=+64,
/// P=0.50, P=.5 or P=5e-1). The Scenario's name is therefore the spec, so
/// its trial seeds, journal rows and exports work like a builtin's. It runs
/// one trial unless overridden. Throws std::invalid_argument naming the bad
/// field if `spec` is not such a string. Builder preconditions (e.g. n >= 3
/// for bridge) are checked when the network is built.
[[nodiscard]] Scenario parse_spec(std::string_view spec);

/// The scenarios a front end runs for `filter`: a filter starting with
/// kSpecPrefix names exactly the scenario it spells (parse_spec, which may
/// throw); any other filter is registry.match(filter).
[[nodiscard]] std::vector<Scenario> select_scenarios(
    const ScenarioRegistry& registry, std::string_view filter);

}  // namespace dualrad::campaign
