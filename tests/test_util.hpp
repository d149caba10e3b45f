#pragma once

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/broadcast_algorithm.hpp"
#include "core/process.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "core/trace.hpp"

/// Test helpers: tiny controllable processes, decoding and re-encoding
/// execution traces, and execution digests for pinning.

namespace dualrad::testing {

/// Sends (token iff it has it) in exactly the given rounds, regardless of
/// state. Useful for steering the simulator from tests.
class ScriptedSender final : public TokenProcess {
 public:
  ScriptedSender(ProcessId id, std::set<Round> send_rounds)
      : TokenProcess(id), send_rounds_(std::move(send_rounds)) {}
  ScriptedSender(const ScriptedSender&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    if (!send_rounds_.contains(round)) return Action::silent();
    return Action::transmit(Message{has_token(), id(), round, 0});
  }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<ScriptedSender>(*this);
  }

 private:
  std::set<Round> send_rounds_;
};

/// Never sends; records everything it receives.
class Recorder final : public TokenProcess {
 public:
  explicit Recorder(ProcessId id,
                    std::vector<std::pair<Round, Reception>>* sink = nullptr)
      : TokenProcess(id), sink_(sink) {}
  Recorder(const Recorder&) = default;

  [[nodiscard]] Action next_action(Round) const override {
    return Action::silent();
  }

  void on_receive(Round round, const Reception& reception) override {
    TokenProcess::on_receive(round, reception);
    if (sink_ != nullptr) sink_->emplace_back(round, reception);
  }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<Recorder>(*this);
  }

 private:
  std::vector<std::pair<Round, Reception>>* sink_;
};

/// Factory over per-id scripts; ids missing from the table are Recorders.
inline ProcessFactory scripted_factory(
    std::vector<std::pair<ProcessId, std::set<Round>>> scripts,
    std::vector<std::pair<Round, Reception>>* recorder_sink = nullptr,
    ProcessId recorded_id = -1) {
  return [scripts = std::move(scripts), recorder_sink, recorded_id](
             ProcessId id, NodeId, std::uint64_t) -> std::unique_ptr<Process> {
    for (const auto& [pid, rounds] : scripts) {
      if (pid == id) return std::make_unique<ScriptedSender>(id, rounds);
    }
    return std::make_unique<Recorder>(
        id, id == recorded_id ? recorder_sink : nullptr);
  };
}

/// Every round of `trace`, decoded against an n-node network.
inline std::vector<SparseRound> decode_rounds(const Trace& trace, NodeId n) {
  std::vector<SparseRound> rounds(trace.compressed_rounds());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    trace.decode_round(i, n, rounds[i]);
  }
  return rounds;
}

/// Node v's reception in a decoded round: silence unless listed.
inline Reception reception_at(const SparseRound& round, NodeId v) {
  for (const SparseRound::Heard& h : round.receptions) {
    if (h.node == v) return h.reception;
  }
  return Reception::silence();
}

/// Set node v's reception, keeping the list ascending and silence unlisted.
inline void set_reception(SparseRound& round, NodeId v,
                          const Reception& reception) {
  auto it = std::find_if(
      round.receptions.begin(), round.receptions.end(),
      [v](const SparseRound::Heard& h) { return h.node >= v; });
  if (it != round.receptions.end() && it->node == v) {
    it = round.receptions.erase(it);
  }
  if (!reception.is_silence()) round.receptions.insert(it, {v, reception});
}

/// Sender i's reach list, as a vector to edit and hand to set_reach.
inline std::vector<NodeId> reach_of(const SparseRound& round, std::size_t i) {
  const auto reach = round.reach(round.senders[i]);
  return {reach.begin(), reach.end()};
}

/// Replace sender i's reach list, keeping every other sender's.
inline void set_reach(SparseRound& round, std::size_t i,
                      const std::vector<NodeId>& reach) {
  std::vector<NodeId> reached;
  for (std::size_t j = 0; j < round.senders.size(); ++j) {
    SparseRound::Sender& s = round.senders[j];
    const std::vector<NodeId> own = j == i ? reach : reach_of(round, j);
    s.reach_begin = reached.size();
    reached.insert(reached.end(), own.begin(), own.end());
    s.reach_end = reached.size();
  }
  round.reached = std::move(reached);
}

/// Re-encode decoded (and possibly edited) rounds as the whole of `trace`,
/// through CompressedRound — what the execution frame writes.
inline void encode_rounds(Trace& trace,
                          const std::vector<SparseRound>& rounds) {
  trace.blob.clear();
  trace.blob_offsets.clear();
  for (const SparseRound& round : rounds) {
    CompressedRound out(trace, round.round, round.senders.size());
    for (const SparseRound::Sender& s : round.senders) {
      out.sender(s.node, s.message, round.reach(s), {});
    }
    std::vector<NodeId> nodes;
    std::vector<Reception> at;
    for (const SparseRound::Heard& h : round.receptions) {
      nodes.push_back(h.node);
      at.resize(std::max(at.size(), static_cast<std::size_t>(h.node) + 1));
      at[static_cast<std::size_t>(h.node)] = h.reception;
    }
    out.receptions(nodes, at);
  }
}

/// An execution's digest: the FNV-1a of its trace blob, then its completion
/// round and total_sends. A drift in a send schedule or a reception rule
/// changes the blob.
inline std::string digest(const SimResult& result) {
  const std::vector<std::uint8_t>& blob = result.trace.blob;
  const std::uint64_t h = fnv1a64(std::string_view(
      reinterpret_cast<const char*>(blob.data()), blob.size()));
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx/%lld/%llu",
                static_cast<unsigned long long>(h),
                static_cast<long long>(result.completion_round),
                static_cast<unsigned long long>(result.total_sends));
  return buf;
}

/// Decode `trace`, let `edit` change its rounds, and re-encode them.
template <class Edit>
void edit_rounds(Trace& trace, NodeId n, Edit&& edit) {
  std::vector<SparseRound> rounds = decode_rounds(trace, n);
  edit(rounds);
  encode_rounds(trace, rounds);
}

}  // namespace dualrad::testing
