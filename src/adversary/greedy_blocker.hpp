#pragma once

#include <cstdint>
#include <vector>

#include "core/adversary.hpp"

/// \file greedy_blocker.hpp
/// The greedy collision-blocker: the strongest computable adversary we field
/// against the upper-bound algorithms.
///
/// Strategy, per round, with full knowledge of who is covered:
///   * If an uncovered node v would receive exactly one message over
///     reliable edges (progress!), look for another sender w with an
///     unreliable edge (w, v) and fire it, turning the solo delivery into a
///     collision. Under CR1/CR2 v then hears top; under CR3 silence; under
///     CR4 this adversary resolves the collision to silence (or to a
///     tokenless message if one is available, which is even less useful to
///     the algorithm).
///   * No unreliable edge is ever fired toward covered nodes, and no edge is
///     fired that would itself constitute a solo delivery.
///
/// This is exactly the obstruction the paper's lower-bound constructions
/// weaponize (Theorems 2 and 12): a node whose reliable neighbors are all
/// covered can still blanket uncovered G'-neighbors with collisions. The
/// upper-bound theorems hold against every adversary, so measurements under
/// this one are legal executions; they realize the qualitative worst-case
/// shape without claiming to be the exact worst case (see EXPERIMENTS.md,
/// "The sparse greedy blocker").
///
/// Cost: the blocker is frontier-based. All per-node state lives in one
/// epoch-stamped slot array sized once per execution; a round touches only
/// the *boundary* — the senders, their reliable out-rows, and their
/// unreliable out-rows — so its cost is O(sum of sender degrees), not O(n).
/// (The old implementation allocated three O(n) arrays per round, which
/// capped adversarial runs at ~10^4 nodes; this one runs the scale/*-greedy
/// scenarios at 10^5-10^6.)

namespace dualrad {

class GreedyBlockerAdversary : public Adversary {
 public:
  GreedyBlockerAdversary() = default;

  void on_execution_start(const DualGraph& net) override;

  void choose_unreliable_reach(const AdversaryView& view,
                               std::span<const NodeId> senders,
                               ReachSink& sink) override;

  [[nodiscard]] Reception resolve_cr4(
      const AdversaryView& view, NodeId node,
      const std::vector<Message>& arrivals) override;

 private:
  /// Per-node scratch, valid only while `epoch` equals the blocker's current
  /// epoch — nothing is ever cleared between rounds.
  struct Slot {
    std::uint64_t epoch = 0;
    std::uint32_t reliable_arrivals = 0;
    std::uint8_t is_sender = 0;
    std::uint8_t jammed = 0;
  };

  Slot& slot_at(NodeId v) { return slots_[static_cast<std::size_t>(v)]; }

  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 0;
};

}  // namespace dualrad
