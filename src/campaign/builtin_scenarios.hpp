#pragma once

#include <string_view>
#include <vector>

#include "campaign/registry.hpp"

/// \file builtin_scenarios.hpp
/// The scenario spec grammar, which spells any run of the paper's model
/// tuple as one name, and the standard catalogue built from it: the paper's
/// Table 1 / Table 2 workloads, the realistic dual-graph families, the
/// engine-scaling grid, the multi-message MAC-layer suite and the Byzantine
/// node-fault suite.
///
/// Builtin names follow <model>/<algorithm>/<network>/<adversary>, where
/// model is "classical" (G == G'), "dual", "scale", "mac" (multi-message
/// over the abstract MAC layer) or "byz" (Byzantine node faults). Tags
/// include the model, the algorithm family ("deterministic"/"randomized"),
/// and the paper anchor ("table1", "table2", "section7", ...).

namespace dualrad::campaign {

/// A fresh registry holding exactly the built-in catalogue. Each builtin is
/// one row of a private table of (name, spec, trials, tags): its Scenario is
/// parse_spec of the spec, renamed to the builtin's name (trial seeds hash
/// the name, so they do not depend on the spec) and given the row's trials
/// and tags.
[[nodiscard]] ScenarioRegistry builtin_registry();

/// The large-n families of the scale-layered / scale-grayzone networks:
/// bounded degree, O(n) memory, topology seed 17 (duals::layered_sparse
/// with forward degree 3 and unreliable degree 2; duals::gray_zone_grid
/// with mean degree 12 and gray factor 1.5).
[[nodiscard]] NetworkBuilder scale_layered(NodeId layers, NodeId width);
[[nodiscard]] NetworkBuilder scale_grayzone(NodeId n);

/// Every scenario spec starts with this; no builtin name does.
inline constexpr std::string_view kSpecPrefix = "adhoc/";

/// Parse a scenario spec: the paper's model tuple as one name,
///
///   adhoc/<network>/<algorithm>/<adversary>/<rule>/<start>
///        [/tokens=K][/byz:f=F:<fault>][/cap=N]
///   e.g. adhoc/grayzone:n=64:seed=7/harmonic/greedy/cr4/async
///
///   network    bridge:n=N | classical-bridge:n=N (bridge with G' = G)
///              | layered:layers=L:width=W | grayzone:n=N:seed=S
///              | backbone:n=N:seed=S | theorem11:n=N | theorem12:n=N
///              | clique:n=N (classical, G = G')
///              | scale-layered:layers=L:width=W | scale-grayzone:n=N
///   algorithm  round-robin | strong-select | strong-select-forever
///              | harmonic | decay | decay-windowed (Decay for 2 phases
///              after the token arrives, then one phase in every 32) | gossip
///              | cms | cpa:f=F (F >= 1: certified propagation, accepting on
///              f + 1 confirmations) | relay (the uncertified relay on CPA's
///              schedule) | bmmb (BMMB over DecayMac)
///   adversary  benign | greedy | full-interference | bernoulli:P
///   rule       cr1 | cr2 | cr3 | cr4
///   start      sync | async
///   tokens=K   K >= 2 tokens at mac::spread_token_sources; absent, one
///              token starts at the source
///   byz:f=F:<fault>  F >= 1; fault silent | forge | adaptive (forge plus
///              an AdaptiveByzAdversary with budget 4). Each trial draws an
///              f-locally-bounded placement of clamp(n / 200, 4, 64) faulty
///              nodes from its seed; absent, no node is faulty
///   cap=N      max_rounds N >= 1; absent, 10000000
///
/// Each scenario has exactly one spelling: fields in this order, every
/// builder argument present and in this order, each optional field left out
/// when it has its default value (tokens=1 and cap=10000000 are errors),
/// and numbers as unsigned decimals in their shortest form (n=64 and P=0.5;
/// never n=064, n=+64, P=0.50, P=.5 or P=5e-1). The Scenario's name is
/// therefore the spec, so its trial seeds, journal rows and exports work
/// like a builtin's. It runs one trial unless overridden. Throws
/// std::invalid_argument naming the bad field if `spec` is not such a
/// string. Builder preconditions (e.g. n >= 3 for bridge) are checked when
/// the network is built — at parse time with tokens=K, which builds the
/// network to place the sources once every field has passed its checks, so
/// every parse of such a spec (the CLIs validate a spec filter, then select
/// it) pays one network build.
[[nodiscard]] Scenario parse_spec(std::string_view spec);

/// The scenarios a front end runs for `filter`: a filter starting with
/// kSpecPrefix names exactly the scenario it spells (parse_spec, which may
/// throw); any other filter is registry.match(filter).
[[nodiscard]] std::vector<Scenario> select_scenarios(
    const ScenarioRegistry& registry, std::string_view filter);

}  // namespace dualrad::campaign
