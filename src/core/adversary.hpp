#pragma once

#include <numeric>
#include <span>
#include <vector>

#include "core/message.hpp"
#include "core/reception.hpp"
#include "core/types.hpp"
#include "graph/dual_graph.hpp"

/// \file adversary.hpp
/// The adversary interface (Section 2.1), sparse batch edition.
///
/// In general an adversary may choose (a) the proc mapping from nodes to
/// processes, (b) for each sender and round, which G'-only out-neighbors the
/// message additionally reaches, and (c) under CR4, how collisions at
/// non-senders resolve. An *adversary class* restricts these choices and the
/// information available; the lower-bound adversaries in this library are
/// heavily restricted (they follow fixed rules from the proofs), while the
/// benchmark adversaries use full knowledge, which only strengthens
/// upper-bound experiments.
///
/// Choice (b) flows through a `ReachSink`: a flat, engine-owned append
/// buffer of (sender slot, extra node) pairs laid out CSR-style per sender.
/// The engines hand the same sink to the adversary every round (capacity is
/// retained), so a round's adversary callback allocates nothing — the
/// property that lets adversarial workloads run at 10^5-10^6 nodes, where
/// the old per-round vector-of-vectors return value dominated the round.

namespace dualrad {

/// Per-node boolean flags as plain bytes. The round engines share these
/// arrays with the sharded parallel kernel, whose workers write disjoint
/// node indices concurrently — legal on byte elements, a data race on
/// std::vector<bool>'s packed words.
using NodeFlags = std::vector<std::uint8_t>;

/// Flat CSR-style append buffer for the adversary's per-round unreliable
/// deliveries: (sender slot, extra node) pairs, where *slot* indexes into
/// the round's `senders` span. The engine calls `begin_round` / `seal` and
/// reads rows back through `extras`; the adversary only appends, in
/// nondecreasing slot order (the natural order of a sweep over `senders` —
/// enforced, because the engines replay rows in slot order to keep delivery
/// order bit-identical to the dense reference engine).
///
/// Rows are two flat arrays (offsets + nodes) with capacity retained across
/// rounds, so steady-state appends are branch + store.
class ReachSink {
 public:
  /// Engine-side: reset for a round with `sender_count` slots. Keeps
  /// capacity; O(1) plus amortized growth of the offsets array.
  void begin_round(std::size_t sender_count) {
    slot_count_ = sender_count;
    offsets_.resize(sender_count + 1);
    offsets_[0] = 0;
    open_ = 0;
    nodes_.clear();
    sealed_ = false;
  }

  /// Adversary-side: senders[slot]'s message additionally reaches `extra`
  /// (which must be a G'-only out-neighbor of that sender — validated by the
  /// engines at delivery). Slots must be appended in nondecreasing order.
  void add(std::size_t slot, NodeId extra) {
    DUALRAD_CHECK(!sealed_, "ReachSink: add after seal");
    DUALRAD_CHECK(slot < slot_count_, "ReachSink: sender slot out of range");
    DUALRAD_CHECK(slot >= open_,
                  "ReachSink: slots must be appended in nondecreasing order");
    while (open_ < slot) offsets_[++open_] = nodes_.size();
    nodes_.push_back(extra);
  }

  /// Append a whole span for one slot (e.g. an unreliable_out row).
  void add_span(std::size_t slot, std::span<const NodeId> extras) {
    if (extras.empty()) return;
    add(slot, extras.front());
    nodes_.insert(nodes_.end(), extras.begin() + 1, extras.end());
  }

  /// Engine-side: close all remaining rows. After sealing, `extras` is
  /// readable and `add` is rejected until the next begin_round.
  void seal() {
    while (open_ < slot_count_) offsets_[++open_] = nodes_.size();
    sealed_ = true;
  }

  [[nodiscard]] std::size_t slot_count() const { return slot_count_; }
  /// Pairs appended this round.
  [[nodiscard]] std::size_t total() const { return nodes_.size(); }
  [[nodiscard]] bool sealed() const { return sealed_; }

  /// Extras recorded for `slot`, in append order. Requires seal().
  [[nodiscard]] std::span<const NodeId> extras(std::size_t slot) const {
    DUALRAD_CHECK(sealed_, "ReachSink: extras before seal");
    DUALRAD_CHECK(slot < slot_count_, "ReachSink: sender slot out of range");
    return {nodes_.data() + offsets_[slot],
            offsets_[slot + 1] - offsets_[slot]};
  }

 private:
  std::vector<std::size_t> offsets_;  ///< size slot_count_ + 1 once sealed
  std::vector<NodeId> nodes_;
  std::size_t slot_count_ = 0;
  std::size_t open_ = 0;  ///< highest slot whose row start is recorded
  bool sealed_ = true;
};

/// Read-only view of execution state offered to adversaries. Worst-case
/// adversaries may use all of it; restricted adversaries ignore most fields.
///
/// The frozen CSR snapshots (`g`, `unreliable`) are the network's own
/// g_csr() and unreliable_csr(), hoisted so per-round adversary code walks
/// flat span rows with no DualGraph indirection. `newly_covered` is the
/// *delta* of the dense `covered` array: the nodes whose covered flag rose
/// during the previous round's deliveries (for round 1, the environment's
/// token sources), ascending — stateful adversaries track coverage in
/// O(|delta|) per round instead of rescanning O(n) flags.
struct AdversaryView {
  const CsrGraph* g = nullptr;
  const CsrGraph* unreliable = nullptr;
  /// node -> process id (the proc mapping currently in force).
  const std::vector<ProcessId>* process_of_node = nullptr;
  /// node -> whether the process there already holds at least one broadcast
  /// token (state *before* this round's deliveries). In the single-message
  /// problem this is exactly "holds the broadcast token".
  const NodeFlags* covered = nullptr;
  /// Nodes first covered by the previous round's deliveries, ascending.
  std::span<const NodeId> newly_covered{};
  Round round = 0;

  [[nodiscard]] static AdversaryView of(
      const DualGraph& net, const std::vector<ProcessId>& process_of_node,
      const NodeFlags& covered, std::span<const NodeId> newly_covered,
      Round round) {
    return AdversaryView{&net.g_csr(),
                         &net.unreliable_csr(),
                         &process_of_node,
                         &covered,
                         newly_covered,
                         round};
  }
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Choose the proc mapping: result[node] = process id placed at node.
  /// Must be a permutation of {0..n-1}. Default: identity.
  [[nodiscard]] virtual std::vector<ProcessId> assign_processes(
      const DualGraph& net) {
    std::vector<ProcessId> ids(static_cast<std::size_t>(net.node_count()));
    std::iota(ids.begin(), ids.end(), 0);
    return ids;
  }

  /// For each sending node (senders[i], ascending), append the G'-only
  /// out-neighbors its message additionally reaches this round as
  /// (slot = i, extra) pairs into `sink` (begin_round already called; the
  /// engine seals). Appends must be in nondecreasing slot order and only
  /// name G'-only out-neighbors of the slot's sender; the engines validate
  /// edge legality at delivery, and the conformance suite
  /// (tests/test_adversary_api.cpp) additionally pins no-duplicate rows for
  /// every shipped adversary. Default: no unreliable edge fires.
  virtual void choose_unreliable_reach(const AdversaryView& view,
                                       std::span<const NodeId> senders,
                                       ReachSink& sink) {
    (void)view;
    (void)senders;
    (void)sink;
  }

  /// CR4 only: node `node` (which did not send) is reached by >= 2 messages;
  /// return Silence or one of `arrivals`. Default: silence (which coincides
  /// with CR3).
  [[nodiscard]] virtual Reception resolve_cr4(
      const AdversaryView& view, NodeId node,
      const std::vector<Message>& arrivals) {
    (void)view;
    (void)node;
    (void)arrivals;
    return Reception::silence();
  }

  /// Called once at the start of each execution, so stateful adversaries can
  /// reset. Default: no-op.
  virtual void on_execution_start(const DualGraph& net) { (void)net; }

  /// Called once after each round's deliveries, with view.round = the round
  /// that just finished and view.newly_covered = the nodes that round's
  /// deliveries first covered (view.covered already includes them). Both
  /// engines invoke it identically (after CR4 resolutions, before the next
  /// round's poll), so stateful adversaries may advance incremental state
  /// here without perturbing bit-identical replay. Default: no-op.
  virtual void on_round_end(const AdversaryView& view) { (void)view; }
};

}  // namespace dualrad
