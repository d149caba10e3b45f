#pragma once

#include <vector>

#include "core/process.hpp"

/// \file cpa.hpp
/// Certified Propagation (CPA) — the classical receiver rule for the
/// f-locally-bounded Byzantine node-fault model (byz/plan.hpp), plus the
/// deliberately uncertified relay it is contrasted against.
///
/// A CPA process *accepts* a token only when it is certain the token is
/// genuine:
///   * directly from the environment (the process is a token source), or
///   * directly from a trusted origin (the scenario configures the source
///     process ids — channels are locally authenticated, so a message whose
///     origin is a source pid really was transmitted by that source; this is
///     the "source-adjacent nodes accept directly" case), or
///   * after hearing it from >= f + 1 *distinct* origins. Under an
///     f-locally-bounded placement at most f of a node's in-neighbors are
///     Byzantine, so f + 1 distinct confirmations include a correct one.
/// Only accepted tokens are ever relayed, which is what makes acceptance
/// inductive: a correct node's confirmation is itself certified.
///
/// CPA and the uncertified relay below send on the counter-coin schedule
/// Decay runs (algorithms/coin_schedule.hpp), started at the first
/// acceptance: a coin with probability relay_p per on-air round, an initial
/// active window of rounds, then periodic beacon rounds. The coin and the duty cycle depend
/// only on (seed, round, first-acceptance round) — NOT on which tokens are
/// accepted — so next_send_round is exact, and later acceptances never
/// perturb the schedule.
///
/// UncertifiedRelayProcess is the foil: it adopts the first token it hears
/// — whatever the origin — and relays it on the same schedule. Under a
/// forging fault it demonstrably lets the forged token win (the node-fault
/// audit dimension); CPA under a valid placement never does.

namespace dualrad::byz {

struct CpaOptions {
  /// The placement bound the receiver defends against: acceptance needs
  /// f + 1 distinct confirming origins.
  std::int32_t f = 1;
  /// Process ids whose messages are accepted directly (the token sources).
  std::vector<ProcessId> trusted_origins{};
  /// Per-round transmission probability while on air (must be > 0).
  double relay_p = 0.5;
  /// Rounds of continuous relaying after the first acceptance; 0 means the
  /// process stays on air forever (small-graph / unit-test mode).
  Round active_rounds = 0;
  /// With a bounded window: beacon every `rebroadcast_period` rounds after
  /// it, counted from the first acceptance (staggered across nodes). 0 goes
  /// permanently quiet when the window ends.
  Round rebroadcast_period = 0;
};

struct UncertifiedRelayOptions {
  double relay_p = 0.5;
  Round active_rounds = 0;
  Round rebroadcast_period = 0;
};

[[nodiscard]] ProcessFactory make_cpa_factory(NodeId n,
                                              const CpaOptions& options = {});

[[nodiscard]] ProcessFactory make_uncertified_relay_factory(
    NodeId n, const UncertifiedRelayOptions& options = {});

}  // namespace dualrad::byz
