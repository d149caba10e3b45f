#pragma once

#include "core/process.hpp"

/// \file round_robin_bcast.hpp
/// Deterministic round-robin broadcast: a node holding the message sends in
/// exactly the rounds congruent to its id modulo n. This is the strategy the
/// paper's Section 4 notes match the Omega(n) bound of Theorem 2: it
/// completes in O(n) rounds on (directed or undirected) dual graphs of
/// constant diameter and in O(n * depth) rounds in general — in *any* dual
/// graph, because each covered node is isolated once every n rounds
/// regardless of the adversary. It is also the O(n min{n, Delta log n})
/// dynamic-fault baseline of [11] in its Delta = n form.

namespace dualrad {

/// The identity TDMA schedule (algorithms/scheduled.hpp): slot s goes to
/// process (s + 1) mod n.
[[nodiscard]] ProcessFactory make_round_robin_factory(NodeId n);

}  // namespace dualrad
