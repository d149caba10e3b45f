#include "core/execution.hpp"

#include <algorithm>
#include <string>

#include "core/rng.hpp"

namespace dualrad {

void validate_token_sources(NodeId n, const std::vector<NodeId>& sources) {
  DUALRAD_REQUIRE(
      sources.size() < static_cast<std::size_t>(byz::kForgedTokenBase),
      "too many token sources: legitimate token ids would reach the "
      "forged-token band (byz::kForgedTokenBase)");
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const NodeId s = sources[i];
    DUALRAD_REQUIRE(s >= 0 && s < n,
                    "token source out of range: token_sources[" +
                        std::to_string(i) + "] = " + std::to_string(s) +
                        " is not a node of the " + std::to_string(n) +
                        "-node network");
    DUALRAD_REQUIRE(!seen[static_cast<std::size_t>(s)],
                    "token sources must be distinct: node " +
                        std::to_string(s) + " appears again at token_sources[" +
                        std::to_string(i) + "]");
    seen[static_cast<std::size_t>(s)] = true;
  }
}

ExecutionFrame::ExecutionFrame(const DualGraph& network,
                               const ProcessFactory& factory,
                               Adversary& adversary, const SimConfig& cfg)
    : net(network),
      config(cfg),
      n(network.node_count()),
      un(static_cast<std::size_t>(n)),
      record_trace(cfg.trace == TraceLevel::Compressed),
      adversary_(adversary),
      unreliable_(network.unreliable_csr()) {
  DUALRAD_REQUIRE(config.max_rounds >= 1, "max_rounds must be positive");
  DUALRAD_REQUIRE(static_cast<bool>(factory), "process factory must be set");
  // The classic problem injects kBroadcastToken at the network source;
  // multi-message executions inject token i+1 at token_sources[i].
  sources_ = config.token_sources;
  if (sources_.empty()) sources_.push_back(net.source());
  validate_token_sources(n, sources_);
  k_ = sources_.size();

  adversary_.on_execution_start(net);
  result_.process_of_node = adversary_.assign_processes(net);
  DUALRAD_CHECK(result_.process_of_node.size() == un,
                "proc mapping has wrong size");
  {
    std::vector<bool> seen(un, false);
    for (const ProcessId p : result_.process_of_node) {
      DUALRAD_CHECK(p >= 0 && p < n && !seen[static_cast<std::size_t>(p)],
                    "proc mapping must be a permutation");
      seen[static_cast<std::size_t>(p)] = true;
    }
  }

  procs.resize(un);
  for (std::size_t v = 0; v < un; ++v) {
    const ProcessId pid = result_.process_of_node[v];
    procs[v] = factory(pid, n,
                       mix_seed(config.seed, static_cast<std::uint64_t>(pid)));
    DUALRAD_CHECK(procs[v] != nullptr, "factory returned null process");
    DUALRAD_CHECK(procs[v]->id() == pid,
                  "factory produced process with wrong id");
  }

  // Constructed after the adversary hooks above so an adaptive adversary's
  // on_execution_start reset is already applied when the runtime syncs the
  // plan's baseline.
  if (config.byzantine != nullptr) {
    byzrt_.emplace(*config.byzantine, result_.process_of_node);
  }

  awake.assign(un, 0);
  sent_msg.resize(un);
  is_sender.assign(un, 0);
  covered_.assign(un, 0);
  holds_.assign(k_ * un, 0);
  result_.token_first.assign(k_, std::vector<Round>(un, kNever));
  result_.trace.level = config.trace;
  if (record_trace) {
    trace_receptions.resize(un);
    touched_ = AscendingNodeSet(un);
  }
}

void ExecutionFrame::start(const std::function<void(NodeId)>& on_activate) {
  const auto activate = [&](NodeId v, const std::optional<Message>& initial) {
    procs[static_cast<std::size_t>(v)]->on_activate(0, initial);
    awake[static_cast<std::size_t>(v)] = 1;
    if (on_activate) on_activate(v);
  };
  for (std::size_t t = 0; t < k_; ++t) {
    const NodeId src = sources_[t];
    const auto usrc = static_cast<std::size_t>(src);
    covered_[usrc] = 1;
    holds_[t * un + usrc] = 1;
    result_.token_first[t][usrc] = 0;
    ++held_count_;
    activate(src, Message{/*token=*/static_cast<TokenId>(t + 1),
                          /*origin=*/kInvalidProcess,
                          /*round_tag=*/0, /*payload=*/0});
    covered_delta_.push_back(src);
  }
  std::sort(covered_delta_.begin(), covered_delta_.end());
  if (config.start == StartRule::Synchronous) {
    for (NodeId v = 0; v < n; ++v) {
      if (!awake[static_cast<std::size_t>(v)]) activate(v, std::nullopt);
    }
  }
}

void ExecutionFrame::end_poll(Round round) {
  if (byzrt_) {
    byz_removed_.clear();
    byz_added_.clear();
    byzrt_->rewrite_senders(round, senders, sent_msg, byz_removed_,
                            byz_added_);
    for (const NodeId v : byz_removed_) {
      is_sender[static_cast<std::size_t>(v)] = 0;
    }
    for (const NodeId v : byz_added_) {
      is_sender[static_cast<std::size_t>(v)] = 1;
    }
  }
  result_.total_sends += senders.size();
}

void ExecutionFrame::choose_reach(Round round) {
  view = AdversaryView::of(net, result_.process_of_node, covered_,
                           covered_delta_, round);
  sink.begin_round(senders.size());
  adversary_.choose_unreliable_reach(view, senders, sink);
  sink.seal();
}

Reception ExecutionFrame::resolve_cr4(NodeId v,
                                      const std::vector<Message>& arrivals) {
  Reception rec = adversary_.resolve_cr4(view, v, arrivals);
  DUALRAD_CHECK(!rec.is_collision(),
                "CR4 resolution cannot be collision notification");
  DUALRAD_CHECK(!rec.is_message() ||
                    std::find(arrivals.begin(), arrivals.end(),
                              *rec.message) != arrivals.end(),
                "CR4 resolution must pick an arriving message");
  return rec;
}

void ExecutionFrame::record_round(Round round) {
  touched_order_.clear();
  touched_.drain(touched_order_);
  const CsrGraph& g = net.g_csr();
  CompressedRound out(result_.trace, round, senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    const NodeId u = senders[i];
    out.sender(u, sent_msg[static_cast<std::size_t>(u)], g.row(u),
               sink.extras(i));
  }
  out.receptions(touched_order_, trace_receptions);
}

void ExecutionFrame::publish_coverage() {
  std::sort(next_delta_.begin(), next_delta_.end());
  covered_delta_.swap(next_delta_);
  next_delta_.clear();
}

void ExecutionFrame::notify_round_end() {
  view.newly_covered = covered_delta_;
  adversary_.on_round_end(view);
}

void ExecutionFrame::deliver_all(Round round,
                                 std::span<const Reception> receptions) {
  for (NodeId v = 0; v < n; ++v) {
    const auto uv = static_cast<std::size_t>(v);
    const Reception& rec = receptions[uv];
    if (awake[uv]) {
      procs[uv]->on_receive(round, rec);
    } else if (rec.is_message()) {
      procs[uv]->on_activate(round, rec.message);
      awake[uv] = 1;
    }
    const Delta d = account(v, rec, round);
    if (d.covered) next_delta_.push_back(v);
    if (d.held) ++held_count_;
  }
  publish_coverage();
  notify_round_end();
}

bool ExecutionFrame::end_round(Round round, std::uint32_t collision_events) {
  result_.total_collision_events += collision_events;
  if (record_trace) record_round(round);
  for (const NodeId v : senders) is_sender[static_cast<std::size_t>(v)] = 0;
  if (held_count_ == k_ * un && !result_.completed) {
    result_.completed = true;
    result_.completion_round = round;
    return config.stop_on_completion;
  }
  return false;
}

SimResult ExecutionFrame::finish() {
  if (byzrt_) result_.forged_tokens = byzrt_->finalize();
  result_.first_token = result_.token_first.front();
  for (std::size_t v = 0; v < un; ++v) {
    for (ProcessMetric& m : procs[v]->final_metrics()) {
      result_.process_metrics.push_back(ProcessMetricSample{
          static_cast<NodeId>(v), result_.process_of_node[v],
          std::move(m.name), m.value});
    }
  }
  return std::move(result_);
}

}  // namespace dualrad
