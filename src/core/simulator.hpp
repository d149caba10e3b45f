#pragma once

#include <memory>
#include <vector>

#include "core/adversary.hpp"
#include "core/process.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "graph/dual_graph.hpp"

/// \file simulator.hpp
/// The synchronous-round execution engine for the dual graph model
/// (Section 2.1).
///
/// Per round: awake processes choose actions; each sender's message reaches
/// all of its G-out-neighbors, an adversary-chosen subset of its G'-only
/// out-neighbors, and the sender itself; receptions are computed under the
/// configured collision rule (CR1-CR4); processes transition. Under
/// asynchronous start, a process is activated by its first received message.
///
/// The broadcast message arrives at the source process from the environment
/// before round 1 (Section 3). Multi-message executions (the MAC-layer
/// workloads of src/mac/) instead inject k tokens, one per configured source
/// node; completion then means every process holds every token.
///
/// Implementation: a sparse round kernel (simulator.cpp) built on a frozen
/// CSR adjacency snapshot, epoch-stamped arrival slots with a touched-node
/// list, and calendar-based send scheduling driven by the optional
/// Process::next_send_round / silence_transparent hints — a round costs
/// O(#polled senders + #deliveries) rather than O(n), which is what makes
/// 10^5-node executions practical. Everything outside the round kernel
/// (validation, process setup, token accounting, Byzantine faults, traces,
/// finalization) lives in the execution frame (core/execution.hpp), shared
/// with the dense reference kernel run_broadcast_reference
/// (core/reference_engine.hpp), which tests/test_engine_equivalence.cpp
/// holds bit-identical to this one.

namespace dualrad {

namespace obs {
class RoundTelemetry;
}  // namespace obs

namespace byz {
class ByzantinePlan;
}  // namespace byz

struct SimConfig {
  CollisionRule rule = CollisionRule::CR4;
  StartRule start = StartRule::Asynchronous;
  Round max_rounds = 1'000'000;
  /// Master seed; process i receives mix_seed(seed, i).
  std::uint64_t seed = 1;
  TraceLevel trace = TraceLevel::None;
  /// Worker threads of the sharded parallel round kernel; 0 or 1 runs the
  /// round loop inline. The SimResult is bit-identical for every value: the
  /// kernel partitions nodes into contiguous shards, all cross-shard state
  /// is merged in deterministic shard order, and every observable (process
  /// call sets, adversary call order, RNG streams) is per-node independent.
  unsigned threads = 1;
  /// Stop as soon as every process holds every token. When false the
  /// execution runs to max_rounds (useful for termination experiments).
  bool stop_on_completion = true;
  /// Multi-message broadcast: token_sources[i] is the node where token id
  /// i+1 originates (distinct nodes; each receives its token from the
  /// environment before round 1). Empty means the classic single-message
  /// problem: kBroadcastToken originates at net.source().
  std::vector<NodeId> token_sources{};
  /// Optional telemetry sink (obs/telemetry.hpp): per-round hot-path
  /// counters, monotonic phase timers, and per-shard sub-counters. Strictly
  /// out-of-band — the SimResult is bit-identical whether or not telemetry
  /// is attached — and compiled to branch-on-null no-ops when nullptr, so
  /// the disabled overhead is a handful of predicted branches per round.
  /// The object must outlive the run. Sparse engine only: the reference
  /// engine rejects it.
  obs::RoundTelemetry* telemetry = nullptr;
  /// Optional Byzantine node-fault plan (byz/plan.hpp), bound to the same
  /// network and alive for the whole run. Both engines apply it identically:
  /// active silent/forging nodes have their protocol sends dropped, forgers
  /// inject forged-token messages each active round, and per-token forgery
  /// provenance lands in SimResult::forged_tokens. Adaptive plans are
  /// mutated by the adversary (byz/adaptive.hpp) through its own non-const
  /// reference; the engines only read.
  const byz::ByzantinePlan* byzantine = nullptr;
};

/// One collected Process::final_metrics entry (node identifies the slot,
/// pid the automaton that ran there).
struct ProcessMetricSample {
  NodeId node = kInvalidNode;
  ProcessId pid = kInvalidProcess;
  std::string name;
  double value = 0.0;
};

/// Provenance of one forged token (SimConfig::byzantine executions): who
/// forged it, when it first flew, and whether it *won* — was ever relayed by
/// a protocol-following (non-forger) node. Consumed by the trace auditor
/// (core/audit.hpp), which independently recomputes every field from the
/// execution's trace, and by the broadcast-contract checker
/// (campaign/contract.hpp), which reports wins as no-creation violations.
struct ForgedTokenRecord {
  TokenId token = kNoToken;
  NodeId forger = kInvalidNode;
  Round first_injected = kNever;
  std::uint64_t injections = 0;
  /// First non-forger node that transmitted the token (kInvalidNode: none).
  NodeId first_victim = kInvalidNode;
  Round first_victim_round = kNever;
  std::uint64_t victim_sends = 0;
  /// Distinct nodes the token was delivered to (forger included).
  std::uint64_t receptions = 0;

  /// "Did this forged token win": some correct node accepted and relayed it.
  [[nodiscard]] bool won() const { return first_victim != kInvalidNode; }

  friend bool operator==(const ForgedTokenRecord&,
                         const ForgedTokenRecord&) = default;
};

struct SimResult {
  /// True iff every process received every broadcast token.
  bool completed = false;
  /// First round at whose end all processes held all tokens (0 if trivial).
  Round completion_round = kNever;
  Round rounds_executed = 0;
  /// first_token[node]: round at whose end the process at `node` first held
  /// token kBroadcastToken (0 for its source), kNever if it never did.
  /// Identical to token_first[0]; kept as the single-message API.
  std::vector<Round> first_token{};
  /// token_first[i][node]: round at whose end the process at `node` first
  /// held token id i+1. token_first.size() == token count (1 when
  /// SimConfig::token_sources is empty).
  std::vector<std::vector<Round>> token_first{};
  /// proc mapping used: process_of_node[node] = process id.
  std::vector<ProcessId> process_of_node{};
  std::uint64_t total_sends = 0;
  /// Number of (node, round) pairs at which the process observed a
  /// collision: >= 2 messages reached the node and the node was not a
  /// sender, except under CR1 where senders collide too (under CR2-CR4 a
  /// sender deterministically hears its own message).
  std::uint64_t total_collision_events = 0;
  /// Process::final_metrics of every process, in node order. Empty unless
  /// some process exports metrics (e.g. the MAC layer's ack latencies).
  std::vector<ProcessMetricSample> process_metrics{};
  /// Forged-token provenance, in fault order; empty unless the execution ran
  /// with a Byzantine plan containing forgers.
  std::vector<ForgedTokenRecord> forged_tokens{};
  Trace trace{};

  [[nodiscard]] TokenId token_count() const {
    return static_cast<TokenId>(token_first.size());
  }
};

/// Run one execution under the sparse engine. Throws std::invalid_argument
/// on a bad config (before anything is built) and std::logic_error when a
/// process, the proc mapping, or the adversary breaks the model.
[[nodiscard]] SimResult run_broadcast(const DualGraph& net,
                                      const ProcessFactory& factory,
                                      Adversary& adversary,
                                      const SimConfig& config);

/// Validate SimConfig::token_sources against an n-node network: every source
/// must be an in-range node id, sources must be pairwise distinct (each
/// token id maps to exactly one origin), and the token count must stay below
/// byz::kForgedTokenBase so legitimate ids can never collide with forged
/// ones. Throws std::invalid_argument with a message naming the offending
/// entry. Both engines run it before building anything; exposed for direct
/// unit testing.
void validate_token_sources(NodeId n, const std::vector<NodeId>& sources);

}  // namespace dualrad
