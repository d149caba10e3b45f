#pragma once

#include "byz/plan.hpp"
#include "core/adversary.hpp"

/// \file adaptive.hpp
/// Coverage-chasing adaptive Byzantine corruption.
///
/// A decorator adversary that watches the execution through the standard
/// on_round_end coverage-delta hook and spends a corruption budget on nodes
/// the moment the broadcast reaches them — the natural adaptive strategy in
/// the node-fault model: corrupting the frontier maximizes the damage a
/// silent node does (it was about to become a relay) and places forgers
/// exactly where correct neighbors are listening.
///
/// Every corruption goes through ByzantinePlan::try_corrupt, so the grown
/// placement stays f-locally bounded by construction. on_execution_start
/// rolls the plan back to its frozen baseline, which is what lets one plan
/// object be shared across the serial / sharded / reference-engine replays of
/// the equivalence suite: the engines call on_execution_start before they
/// construct their Byzantine runtime, so every replay sees the same baseline
/// and — because the coverage deltas are bit-identical — re-grows the same
/// corruptions in the same order (forged ids depend only on the bind seed
/// and the corrupted node, byz/plan.hpp).
///
/// All radio-model choices (proc mapping, unreliable reach, CR4 resolution)
/// are delegated to the wrapped inner adversary; this class only corrupts.

namespace dualrad::byz {

struct AdaptiveByzOptions {
  /// Corruptions per execution on top of the plan's frozen baseline.
  std::size_t budget = 2;
  ByzBehavior behavior = ByzBehavior::Forge;
};

class AdaptiveByzAdversary final : public Adversary {
 public:
  /// `inner` handles the radio-model choices and `plan` (bound, frozen)
  /// receives the corruptions; both are borrowed and must outlive this.
  AdaptiveByzAdversary(Adversary& inner, ByzantinePlan& plan,
                       const AdaptiveByzOptions& options);

  [[nodiscard]] std::vector<ProcessId> assign_processes(
      const DualGraph& net) override;
  void choose_unreliable_reach(const AdversaryView& view,
                               std::span<const NodeId> senders,
                               ReachSink& sink) override;
  [[nodiscard]] Reception resolve_cr4(
      const AdversaryView& view, NodeId node,
      const std::vector<Message>& arrivals) override;
  void on_execution_start(const DualGraph& net) override;
  void on_round_end(const AdversaryView& view) override;

  /// Corruptions placed so far this execution (on top of the baseline).
  [[nodiscard]] std::size_t corrupted() const { return corrupted_; }

 private:
  Adversary* inner_;
  ByzantinePlan* plan_;
  AdaptiveByzOptions options_;
  std::size_t corrupted_ = 0;
};

}  // namespace dualrad::byz
