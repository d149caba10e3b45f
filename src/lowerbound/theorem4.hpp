#pragma once

#include <cstdint>
#include <vector>

#include "core/process.hpp"
#include "core/types.hpp"

/// \file theorem4.hpp
/// Monte-Carlo executor for the Theorem 4 randomized lower bound: on the
/// bridge network with the restricted (fixed-rule) adversary class, no
/// algorithm solves broadcast within k rounds with probability greater than
/// k/(n-2), for 1 <= k <= n-3.
///
/// The restricted adversary only chooses the proc mapping (the bridge id);
/// communication resolves by the deterministic rules of Theorem 2. The
/// harness estimates, for each bridge id i, the probability that the
/// algorithm finishes within k rounds, and reports min_i — the success
/// probability against the best adversary response — next to the k/(n-2)
/// bound.

namespace dualrad::lowerbound {

struct Theorem4Point {
  Round k = 0;
  double min_success_prob = 0.0;     ///< min_successes / trials
  std::size_t min_successes = 0;     ///< min over bridge ids
  double mean_success_prob = 0.0;    ///< mean over bridge ids (reference)
  ProcessId worst_bridge_id = kInvalidProcess;
  double bound = 0.0;                ///< k / (n-2)
  std::size_t trials = 0;
};

struct Theorem4Result {
  NodeId n = 0;
  std::vector<Theorem4Point> points{};
  /// True iff every point satisfies min_success_prob <= bound + CI slack,
  /// the Wilson half-width of min_successes in trials.
  bool bound_respected = true;
};

[[nodiscard]] Theorem4Result run_theorem4(NodeId n,
                                          const ProcessFactory& factory,
                                          const std::vector<Round>& ks,
                                          std::size_t trials,
                                          std::uint64_t seed = 1);

}  // namespace dualrad::lowerbound
