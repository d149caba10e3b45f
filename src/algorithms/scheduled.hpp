#pragma once

#include <vector>

#include "core/process.hpp"
#include "selectors/ssf.hpp"

/// \file scheduled.hpp
/// TDMA-style scheduled broadcast: a fixed schedule of sender sets over
/// process ids, repeated cyclically. With one sender per slot no collisions
/// can occur, so the schedule's coverage is adversary-proof — this is the
/// "oracle" side of k-broadcastability (Section 3) turned into an
/// executable algorithm, and the payoff of topology learning in the
/// repeated-broadcast experiments (the paper's future-work direction).
/// Round robin (round_robin_bcast.hpp) is the identity schedule, and the
/// CMS baseline (cms_oblivious.hpp) cycles through the sets of a selective
/// family.
///
/// Each process keeps its own slot offsets within a period, ascending, so
/// its next send is a binary search away and the sparse engine never polls
/// it in a slot that does not name it.

namespace dualrad {

/// slots[r] is the process id transmitting in rounds r+1, r+1+P, ... where
/// P = slots.size(); a process transmits only once it holds the token.
[[nodiscard]] ProcessFactory make_scheduled_factory(
    NodeId n, std::vector<ProcessId> slots);

/// The same with a set of senders per slot: family.set(r) transmits in
/// rounds r+1, r+1+P, ... where P = family.size(). The family must be over
/// the n process ids.
[[nodiscard]] ProcessFactory make_scheduled_factory(NodeId n,
                                                    const SsfFamily& family);

}  // namespace dualrad
