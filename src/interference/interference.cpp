#include "interference/interference.hpp"

#include <algorithm>
#include <numeric>

#include "core/rng.hpp"

namespace dualrad {

InterferenceNetwork::InterferenceNetwork(const Graph& transmission,
                                         const Graph& interference,
                                         NodeId source)
    : dual_(transmission, interference, source) {}

InterferenceResult run_interference_broadcast(const InterferenceNetwork& net,
                                              const ProcessFactory& factory,
                                              const InterferenceConfig& config) {
  const DualGraph& dual = net.to_dual();
  const NodeId n = net.node_count();
  const auto un = static_cast<std::size_t>(n);

  InterferenceResult result;
  result.first_token.assign(un, kNever);
  result.trace.level = config.trace;
  // A traced round lists every node's reception; the writer drops silence.
  std::vector<NodeId> all_nodes(un);
  std::iota(all_nodes.begin(), all_nodes.end(), NodeId{0});

  std::vector<std::unique_ptr<Process>> proc_at(un);
  for (NodeId v = 0; v < n; ++v) {
    proc_at[static_cast<std::size_t>(v)] = factory(
        v, n, mix_seed(config.seed, static_cast<std::uint64_t>(v)));
  }

  std::vector<bool> awake(un, false);
  std::vector<bool> covered(un, false);

  const NodeId src = net.source();
  const Message env_msg{/*token=*/true, /*origin=*/kInvalidProcess,
                        /*round_tag=*/0, /*payload=*/0};
  covered[static_cast<std::size_t>(src)] = true;
  result.first_token[static_cast<std::size_t>(src)] = 0;
  proc_at[static_cast<std::size_t>(src)]->on_activate(0, env_msg);
  awake[static_cast<std::size_t>(src)] = true;
  if (config.start == StartRule::Synchronous) {
    for (NodeId v = 0; v < n; ++v) {
      if (v == src) continue;
      proc_at[static_cast<std::size_t>(v)]->on_activate(0, std::nullopt);
      awake[static_cast<std::size_t>(v)] = true;
    }
  }

  std::vector<NodeId> senders;
  std::vector<Message> sent_msg(un);
  std::vector<bool> is_sender(un, false);
  // Arrivals: all messages from G_I-senders; receivable: subset over G_T.
  std::vector<int> arrival_count(un, 0);
  std::vector<int> receivable_count(un, 0);
  std::vector<Message> sole_receivable(un);
  std::vector<Reception> receptions(un);

  NodeId covered_count = 1;

  for (Round round = 1; round <= config.max_rounds; ++round) {
    result.rounds_executed = round;
    senders.clear();
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      is_sender[uv] = false;
      arrival_count[uv] = 0;
      receivable_count[uv] = 0;
      if (!awake[uv]) continue;
      const Action action = proc_at[uv]->next_action(round);
      if (!action.send) continue;
      DUALRAD_CHECK(!action.message.token || covered[uv],
                    "process sent the broadcast token without holding it");
      is_sender[uv] = true;
      sent_msg[uv] = action.message;
      senders.push_back(v);
    }
    result.total_sends += senders.size();

    for (NodeId u : senders) {
      const auto uu = static_cast<std::size_t>(u);
      ++arrival_count[uu];
      ++receivable_count[uu];
      sole_receivable[uu] = sent_msg[uu];
      for (NodeId v : dual.g_csr().row(u)) {
        const auto uv = static_cast<std::size_t>(v);
        ++arrival_count[uv];
        ++receivable_count[uv];
        sole_receivable[uv] = sent_msg[uu];
      }
      for (NodeId v : dual.unreliable_out(u)) {
        ++arrival_count[static_cast<std::size_t>(v)];
      }
    }

    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      const int arrivals = arrival_count[uv];
      Reception rec = Reception::silence();
      const auto single = [&]() -> Reception {
        // Exactly one message reached v; deliverable only if it came over a
        // G_T edge (or is v's own).
        if (receivable_count[uv] == 1) return Reception::of(sole_receivable[uv]);
        return Reception::silence();
      };
      switch (config.rule) {
        case CollisionRule::CR1:
          if (arrivals == 1) {
            rec = single();
          } else if (arrivals >= 2) {
            rec = Reception::collision();
          }
          break;
        case CollisionRule::CR2:
        case CollisionRule::CR3:
        case CollisionRule::CR4:
          if (is_sender[uv]) {
            rec = Reception::of(sent_msg[uv]);
          } else if (arrivals == 1) {
            rec = single();
          } else if (arrivals >= 2) {
            // CR2: top; CR3: silence; CR4: canonical silence resolution.
            rec = config.rule == CollisionRule::CR2 ? Reception::collision()
                                                    : Reception::silence();
          }
          break;
      }
      receptions[uv] = rec;
    }

    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      const Reception& rec = receptions[uv];
      if (awake[uv]) {
        proc_at[uv]->on_receive(round, rec);
      } else if (rec.is_message()) {
        proc_at[uv]->on_activate(round, rec.message);
        awake[uv] = true;
      }
      if (rec.has_token() && !covered[uv]) {
        covered[uv] = true;
        result.first_token[uv] = round;
        ++covered_count;
      }
    }

    if (config.trace == TraceLevel::Compressed) {
      CompressedRound out(result.trace, round, senders.size());
      for (NodeId u : senders) {
        out.sender(u, sent_msg[static_cast<std::size_t>(u)],
                   dual.g_csr().row(u), dual.unreliable_out(u));
      }
      out.receptions(all_nodes, receptions);
    }

    if (covered_count == n && !result.completed) {
      result.completed = true;
      result.completion_round = round;
      if (config.stop_on_completion) break;
    }
  }
  return result;
}

InterferenceSimAdversary::InterferenceSimAdversary(
    const InterferenceNetwork& net, CollisionRule rule)
    : inet_(net), rule_(rule) {}

void InterferenceSimAdversary::choose_unreliable_reach(
    const AdversaryView& view, std::span<const NodeId> senders,
    ReachSink& sink) {
  (void)view;
  const DualGraph& dual = inet_.to_dual();
  const NodeId n = inet_.node_count();
  const auto un = static_cast<std::size_t>(n);

  // Recompute the interference-model outcome for this round.
  std::vector<int> arrival_count(un, 0);
  std::vector<int> receivable_count(un, 0);
  std::vector<bool> is_sender(un, false);
  for (NodeId u : senders) {
    is_sender[static_cast<std::size_t>(u)] = true;
    ++arrival_count[static_cast<std::size_t>(u)];
    ++receivable_count[static_cast<std::size_t>(u)];
    for (NodeId v : dual.g_csr().row(u)) {
      ++arrival_count[static_cast<std::size_t>(v)];
      ++receivable_count[static_cast<std::size_t>(v)];
    }
    for (NodeId v : dual.unreliable_out(u)) {
      ++arrival_count[static_cast<std::size_t>(v)];
    }
  }
  // R: nodes that receive an actual message in the interference execution.
  std::vector<bool> receives(un, false);
  for (NodeId v = 0; v < n; ++v) {
    const auto uv = static_cast<std::size_t>(v);
    switch (rule_) {
      case CollisionRule::CR1:
        receives[uv] = arrival_count[uv] == 1 && receivable_count[uv] == 1;
        break;
      case CollisionRule::CR2:
      case CollisionRule::CR3:
      case CollisionRule::CR4:
        // Senders receive their own message; non-senders receive iff exactly
        // one message reached them and it is receivable (CR4 resolves
        // collisions to silence by convention here).
        receives[uv] = is_sender[uv] ||
                       (arrival_count[uv] == 1 && receivable_count[uv] == 1);
        break;
    }
  }
  // Condition (1), strengthened: u suffers a real collision, i.e. at least
  // two messages reach it in the interference model. The appendix states the
  // condition as "some sender is a G_T-neighbor of u", which misses *pure*
  // interference collisions (>= 2 G_I-only arrivals, no G_T arrival): under
  // CR1/CR2 such a node hears collision notification in the interference
  // model, so the simulating adversary must fire those edges too. The
  // appendix's own Case II ("at least two messages reach u in the original
  // graph, and therefore also in the dual graph") assumes exactly this
  // behavior; firing on arrival_count >= 2 realizes it and is verified
  // round-by-round by the Lemma1Equivalence tests.
  for (std::size_t i = 0; i < senders.size(); ++i) {
    const NodeId v = senders[i];  // condition (3): v sends
    for (NodeId u : dual.unreliable_out(v)) {  // only G_I-only edges
      const auto uu = static_cast<std::size_t>(u);
      if (arrival_count[uu] < 2) continue;  // condition (1), see above
      if (receives[uu]) continue;           // condition (2)
      sink.add(i, u);
    }
  }
}

}  // namespace dualrad
