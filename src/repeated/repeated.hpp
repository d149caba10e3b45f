#pragma once

#include <vector>

#include "core/adversary.hpp"
#include "core/process.hpp"
#include "core/simulator.hpp"
#include "core/trace.hpp"
#include "graph/broadcastability.hpp"
#include "graph/dual_graph.hpp"

/// \file repeated.hpp
/// Repeated broadcast with topology learning — the paper's stated future
/// work ("we hope to improve long-term efficiency by learning the topology
/// of the graph", Section 8).
///
/// The pipeline:
///   1. run a few broadcasts with a topology-oblivious algorithm, recording
///      their traces (core/trace.hpp): who sent, and whom each message
///      reached;
///   2. estimate the reliable subgraph ETX-style: an observed link whose
///      delivery never failed over enough samples is presumed reliable
///      (exactly the link-quality-assessment practice the introduction
///      cites [13]);
///   3. compute a greedy single-sender TDMA schedule on the learned graph
///      and run all subsequent broadcasts on it — one sender per round means
///      no collisions, so the schedule is adversary-proof *if* the learned
///      links really are reliable. A mislearned link (an unreliable link the
///      adversary delivered consistently during training) surfaces as a
///      failed scheduled broadcast, which the driver reports: the exact
///      gray-zone trap ETX deployments face.

namespace dualrad::repeated {

struct LinkEstimate {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  std::size_t deliveries = 0;
  std::size_t sends = 0;  ///< sends by `from` (== opportunities to deliver)
};

struct LearnedTopology {
  /// Links observed to deliver on every opportunity, with at least
  /// `min_samples` opportunities.
  CsrGraph estimated_reliable;
  std::vector<LinkEstimate> estimates{};
  /// True iff the estimate is a subgraph of the true reliable graph (for
  /// evaluation only — a deployment cannot know this).
  bool sound = false;
  /// True iff the estimate preserves source-reachability.
  bool usable = false;
};

/// Estimate reliable links from recorded execution traces (ETX-style). A
/// trace that was not recorded (TraceLevel::None), or whose rounds fail to
/// decode against `net`, throws std::invalid_argument.
[[nodiscard]] LearnedTopology estimate_reliable_links(
    const DualGraph& net, const std::vector<Trace>& traces,
    std::size_t min_samples = 3);

struct RepeatedOptions {
  int broadcasts = 10;       ///< total broadcasts to perform
  int training = 3;          ///< broadcasts run with the oblivious algorithm
  std::size_t min_samples = 3;
  SimConfig config{};        ///< rule/start/max_rounds for every broadcast
};

struct RepeatedReport {
  /// Rounds per broadcast under the naive strategy (re-run the algorithm).
  std::vector<Round> naive_rounds{};
  /// Rounds per broadcast under learn-then-schedule (training broadcasts
  /// use the algorithm; later ones use the TDMA schedule).
  std::vector<Round> learned_rounds{};
  Round tdma_period = 0;
  LearnedTopology topology{};
  bool all_completed = true;

  /// Sums of naive_rounds and learned_rounds; kNever if a broadcast never
  /// completed.
  [[nodiscard]] Round naive_total() const;
  [[nodiscard]] Round learned_total() const;
};

/// Run the experiment: `broadcasts` rounds of naive vs learn-then-schedule,
/// against the same adversary. The adversary is reset per execution via
/// on_execution_start.
[[nodiscard]] RepeatedReport run_repeated_broadcast(
    const DualGraph& net, const ProcessFactory& algorithm,
    Adversary& adversary, const RepeatedOptions& options);

}  // namespace dualrad::repeated
