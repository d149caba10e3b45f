#pragma once

#include "core/process.hpp"

/// \file decay.hpp
/// The classical randomized baseline: Bar-Yehuda-Goldreich-Itai style Decay.
///
/// Rounds are grouped into phases of length ceil(log2 n) + 1; in offset j of
/// each phase an informed node transmits with probability 2^{-j}. In the
/// classical (reliable, G == G') model this completes in
/// O((D + log n) log n) rounds w.h.p. — the right-shape stand-in for the
/// optimal O(D log(n/D) + log^2 n) algorithm of [12] cited in Table 2. In
/// dual graphs it carries no guarantee (the adversary can starve it), which
/// is exactly the contrast Table 2 draws.

namespace dualrad {

struct DecayOptions {
  /// Phase length; 0 derives ceil(log2 n) + 1.
  Round phase_length = 0;
  /// Number of phases an informed node keeps transmitting after it first
  /// receives the token, as in BGI's bounded per-message decay windows;
  /// 0 means it transmits forever (the repo's historical behavior). A
  /// bounded window makes steady-state rounds sparse — only the coverage
  /// frontier is on the air — which is both the realistic protocol shape
  /// and the regime the sparse round engine (core/simulator.cpp) is built
  /// for; the scale/* scenarios use it.
  Round active_phases = 0;
  /// Duty-cycled maintenance (only meaningful with active_phases > 0):
  /// after the initial window, the node re-enters the decay schedule for
  /// one phase out of every `rebroadcast_period` phases (counted from its
  /// token receipt, so nodes' duty windows are staggered). This is the
  /// anti-entropy beacon that keeps a bounded window from stranding
  /// late pockets: coverage completes with probability 1 while the
  /// steady-state sender fraction drops by the duty factor. 0 disables
  /// maintenance (the node goes permanently quiet when its window ends).
  Round rebroadcast_period = 0;
};

[[nodiscard]] Round decay_phase_length(NodeId n, const DecayOptions& options = {});

/// Decay's send probability in `round`: 2^{-((round - 1) mod phase)}, so
/// offsets are globally aligned and every phase opens with a sure send.
[[nodiscard]] double decay_probability(Round round, Round phase);

[[nodiscard]] ProcessFactory make_decay_factory(NodeId n,
                                                const DecayOptions& options = {});

}  // namespace dualrad
