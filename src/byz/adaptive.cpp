#include "byz/adaptive.hpp"

namespace dualrad::byz {

AdaptiveByzAdversary::AdaptiveByzAdversary(Adversary& inner,
                                           ByzantinePlan& plan,
                                           const AdaptiveByzOptions& options)
    : inner_(&inner), plan_(&plan), options_(options) {
  DUALRAD_REQUIRE(plan.bound(), "adaptive corruption needs a bound plan");
}

std::vector<ProcessId> AdaptiveByzAdversary::assign_processes(
    const DualGraph& net) {
  return inner_->assign_processes(net);
}

void AdaptiveByzAdversary::choose_unreliable_reach(
    const AdversaryView& view, std::span<const NodeId> senders,
    ReachSink& sink) {
  inner_->choose_unreliable_reach(view, senders, sink);
}

Reception AdaptiveByzAdversary::resolve_cr4(
    const AdversaryView& view, NodeId node,
    const std::vector<Message>& arrivals) {
  return inner_->resolve_cr4(view, node, arrivals);
}

void AdaptiveByzAdversary::on_execution_start(const DualGraph& net) {
  // Roll back the previous execution's corruptions before the engine builds
  // its Byzantine runtime, so replays (other engine, other thread count)
  // start from the identical frozen baseline.
  plan_->reset_adaptive();
  corrupted_ = 0;
  inner_->on_execution_start(net);
}

void AdaptiveByzAdversary::on_round_end(const AdversaryView& view) {
  // Chase the coverage frontier: corrupt freshly-covered nodes, in the
  // deltas' ascending node order (bit-identical across engines), skipping
  // nodes whose corruption would break the f-locally-bounded invariant.
  // Faults activate the round after the corruption decision.
  for (const NodeId v : view.newly_covered) {
    if (corrupted_ >= options_.budget) break;
    if (plan_->try_corrupt(v, options_.behavior,
                           /*active_from=*/view.round + 1)) {
      ++corrupted_;
    }
  }
  inner_->on_round_end(view);
}

}  // namespace dualrad::byz
