#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "byz/runtime.hpp"
#include "core/ascending_set.hpp"
#include "core/simulator.hpp"

/// \file execution.hpp
/// The execution frame every round kernel runs on: the sparse CSR kernel
/// (simulator.cpp), the dense reference kernel (reference_engine.cpp) and
/// the explicit-interference kernel (interference/interference.cpp) differ
/// only in how a round polls, propagates and computes receptions, and the
/// sparse kernel also in how it delivers; everything else about an
/// execution lives here once:
///
///  * validation of the config and the token sources, before anything is
///    built; the adversary's execution-start hooks and the proc-mapping
///    permutation check; process instantiation;
///  * environment input and synchronous start (before round 1);
///  * the Byzantine runtime (byz/runtime.hpp): the per-send legality check,
///    the post-poll sender rewrite, forged-token delivery provenance;
///  * coverage, per-token holdings, and first-hold rounds, fed by the
///    kernels' per-delivery token accounting;
///  * the adversary's reach choice and round-end hook, CR4 resolution and
///    its validation;
///  * the Compressed trace, the completion test, and
///    finalization (forged tokens, first_token, process metrics).
///
/// A round, in kernel order: begin_round; the kernel's poll, calling
/// add_sender per send; end_poll; choose_reach; the kernel's propagation,
/// calling check_reach per adversary extra; the kernel's receptions (when
/// recording a trace, storing each touched node's reception and then
/// naming the node to trace_touched) and delivery, calling account per
/// delivery; add_coverage + publish_coverage; notify_round_end — the dense
/// kernels deliver through deliver_all, which does all three; end_round,
/// which records the round from the senders, their G rows, the sink's
/// extras and the touched nodes' receptions.
///
/// add_sender runs once per send and account once per delivery, so both are
/// inline. account writes only node-v state and returns its deltas, so
/// sharded delivery workers may call it concurrently for disjoint nodes.

namespace dualrad {

class ExecutionFrame {
 public:
  /// Everything up to (not including) environment input. `network`, the
  /// adversary, and `cfg` must outlive the frame.
  ExecutionFrame(const DualGraph& network, const ProcessFactory& factory,
                 Adversary& adversary, const SimConfig& cfg);

  /// Environment input — token i+1 arrives at its source before round 1
  /// (Section 3) — then, under synchronous start, every other process
  /// wakes. `on_activate(v)` runs after each activation (awake[v] already
  /// set); it may be empty.
  void start(const std::function<void(NodeId)>& on_activate);

  void begin_round(Round round) {
    result_.rounds_executed = round;
    senders.clear();
  }

  /// Check that the process at v may send `m`, then enlist v as a sender.
  void add_sender(NodeId v, const Message& m) {
    const auto uv = static_cast<std::size_t>(v);
    const TokenId tok = m.token;
    if (byzrt_ && byz::ByzRuntime::is_forged(tok)) {
      // Relaying a forged token you actually heard is protocol-legal (that
      // relay is exactly the forgery "win" the audit reports); inventing a
      // forged id out of thin air is not.
      DUALRAD_CHECK(byzrt_->may_transmit(v, tok),
                    "process sent a forged token it never received");
    } else {
      DUALRAD_CHECK(tok >= kNoToken && tok <= static_cast<TokenId>(k_),
                    "process sent an unknown token id");
      DUALRAD_CHECK(tok == kNoToken ||
                        holds_[static_cast<std::size_t>(tok - 1) * un + uv],
                    "process sent a broadcast token without holding it");
    }
    is_sender[uv] = 1;
    sent_msg[uv] = m;
    senders.push_back(v);
  }

  /// Close the poll (senders ascending): Byzantine behaviors rewrite the
  /// sender set before anything observes it — the adversary, propagation,
  /// traces, and total_sends all see the post-fault senders.
  void end_poll(Round round);

  /// The adversary fills `sink` with the round's unreliable reach (`view`
  /// shows coverage before the round's deliveries).
  void choose_reach(Round round);

  /// Adversary extras must be G'-only edges of their sender (this also
  /// rejects targets outside the network).
  void check_reach(NodeId u, NodeId v) const {
    DUALRAD_CHECK(unreliable_.contains(u, v),
                  "adversary chose a non-G'-only edge");
  }

  /// The adversary's CR4 resolution at non-sender v, validated against the
  /// arrivals.
  [[nodiscard]] Reception resolve_cr4(NodeId v,
                                      const std::vector<Message>& arrivals);

  /// Name a node that had an arrival this round (record_trace only). The
  /// kernel calls it serially, after storing the node's reception in
  /// trace_receptions.
  void trace_touched(NodeId v) { touched_.insert(v); }

  struct Delta {
    bool covered = false;  ///< v held no token before this delivery
    bool held = false;     ///< v newly holds the delivered token
  };
  /// Token accounting for reception `rec` delivered at v. Forged tokens
  /// only feed the Byzantine runtime's provenance: completion counts only
  /// environment-injected tokens.
  [[nodiscard]] Delta account(NodeId v, const Reception& rec, Round round) {
    if (!rec.has_token()) return {};
    const TokenId tok = rec.message->token;
    if (byzrt_ && byz::ByzRuntime::is_forged(tok)) {
      byzrt_->note_delivery(tok, v);
      return {};
    }
    const auto uv = static_cast<std::size_t>(v);
    const auto t = static_cast<std::size_t>(tok - 1);
    Delta d;
    if (!covered_[uv]) {
      covered_[uv] = 1;
      d.covered = true;
    }
    if (!holds_[t * un + uv]) {
      holds_[t * un + uv] = 1;
      result_.token_first[t][uv] = round;
      d.held = true;
    }
    return d;
  }

  /// Fold delivery deltas (`newly` covered nodes in any order, `held` new
  /// holdings); publish_coverage then makes them the round's ascending
  /// coverage delta.
  void add_coverage(std::span<const NodeId> newly, std::size_t held) {
    next_delta_.insert(next_delta_.end(), newly.begin(), newly.end());
    held_count_ += held;
  }
  void publish_coverage();

  /// The adversary's round epilogue, with the round's coverage delta.
  void notify_round_end();

  /// Delivery for the dense kernels, in node order: each process gets
  /// receptions[v] (an asleep one wakes on a message, asynchronous start),
  /// its tokens are accounted, and the round's coverage is published to the
  /// adversary's round epilogue.
  void deliver_all(Round round, std::span<const Reception> receptions);

  /// Trace the round, reset sender flags, and test completion. Returns true
  /// when the execution should stop.
  [[nodiscard]] bool end_round(Round round, std::uint32_t collision_events);

  [[nodiscard]] SimResult finish();

  [[nodiscard]] std::span<const NodeId> covered_delta() const {
    return covered_delta_;
  }

  const DualGraph& net;
  const SimConfig& config;
  const NodeId n;
  const std::size_t un;
  std::vector<std::unique_ptr<Process>> procs;  ///< indexed by node
  /// Per-node flags are byte arrays, not vector<bool>: sharded delivery
  /// writes disjoint indices concurrently.
  NodeFlags awake;
  /// The round's senders, ascending once end_poll ran; sent_msg[v] and
  /// is_sender[v] are live for v in senders.
  std::vector<NodeId> senders;
  std::vector<Message> sent_msg;
  NodeFlags is_sender;
  ReachSink sink;
  AdversaryView view;
  /// A Compressed trace records rounds: the kernel stores the reception of
  /// every node with an arrival in trace_receptions[v] (sharded workers
  /// concurrently, each at its own nodes) and names the node to
  /// trace_touched; the frame records everything else. Entries of untouched
  /// nodes are stale and never read, so the store is sized once and never
  /// reset.
  const bool record_trace;
  std::vector<Reception> trace_receptions;

 private:
  /// Append the round to the trace.
  void record_round(Round round);

  Adversary& adversary_;
  SimResult result_;
  std::vector<NodeId> sources_;
  std::size_t k_ = 0;
  /// The round's touched nodes (record_trace), drained ascending into
  /// touched_order_ when the round is recorded.
  AscendingNodeSet touched_;
  std::vector<NodeId> touched_order_;
  std::optional<byz::ByzRuntime> byzrt_;
  std::vector<NodeId> byz_removed_;
  std::vector<NodeId> byz_added_;
  const CsrGraph& unreliable_;
  /// covered[v]: the process at v holds at least one token (what the
  /// adversary view exposes); holds[t*n + v]: it holds token id t+1.
  NodeFlags covered_;
  NodeFlags holds_;
  std::size_t held_count_ = 0;
  /// covered_delta_: nodes first covered by the previous round's deliveries
  /// (AdversaryView::newly_covered), ascending; next_delta_ collects the
  /// running round's.
  std::vector<NodeId> covered_delta_;
  std::vector<NodeId> next_delta_;
};

}  // namespace dualrad
