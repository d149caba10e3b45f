#include "interference/interference.hpp"

#include "adversary/basic_adversaries.hpp"
#include "core/execution.hpp"

namespace dualrad {

SimResult run_interference_broadcast(const DualGraph& net,
                                     const ProcessFactory& factory,
                                     const SimConfig& config) {
  DUALRAD_REQUIRE(config.telemetry == nullptr,
                  "the interference engine has no telemetry");
  // Every G_I-only edge fires, so the sink holds each sender's G_I-only row.
  FullInterferenceAdversary interference;
  ExecutionFrame f(net, factory, interference, config);
  f.start({});

  const NodeId n = f.n;
  const CsrGraph& gt = net.g_csr();
  // Per node: every message that reached it, the receivable ones among them
  // (over a G_T edge, or its own), and the last receivable one.
  std::vector<int> arrivals(f.un);
  std::vector<int> receivable(f.un);
  std::vector<Message> sole(f.un);
  std::vector<Reception> receptions(f.un);

  for (Round round = 1; round <= config.max_rounds; ++round) {
    f.begin_round(round);
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      arrivals[uv] = 0;
      receivable[uv] = 0;
      if (!f.awake[uv]) continue;
      const Action action = f.procs[uv]->next_action(round);
      if (action.send) f.add_sender(v, action.message);
    }
    f.end_poll(round);
    f.choose_reach(round);

    for (std::size_t i = 0; i < f.senders.size(); ++i) {
      const NodeId u = f.senders[i];
      const Message& m = f.sent_msg[static_cast<std::size_t>(u)];
      const auto receive = [&](NodeId v) {
        const auto uv = static_cast<std::size_t>(v);
        ++arrivals[uv];
        ++receivable[uv];
        sole[uv] = m;
      };
      receive(u);
      for (const NodeId v : gt.row(u)) receive(v);
      for (const NodeId v : f.sink.extras(i)) {
        ++arrivals[static_cast<std::size_t>(v)];
      }
    }

    // CR1 reports every collision, senders included; under CR2-CR4 a sender
    // hears its own message, and only CR2 reports collisions elsewhere.
    std::uint32_t collision_events = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      const int arr = arrivals[uv];
      const bool own = config.rule != CollisionRule::CR1 && f.is_sender[uv];
      Reception rec = Reception::silence();
      if (own) {
        rec = Reception::of(f.sent_msg[uv]);
      } else if (arr == 1) {
        if (receivable[uv] == 1) rec = Reception::of(sole[uv]);
      } else if (arr >= 2) {
        ++collision_events;
        if (config.rule == CollisionRule::CR1 ||
            config.rule == CollisionRule::CR2) {
          rec = Reception::collision();
        }
      }
      receptions[uv] = rec;
      if (f.record_trace && arr > 0) {
        f.trace_receptions[uv] = rec;
        f.trace_touched(v);
      }
    }

    f.deliver_all(round, receptions);

    if (f.end_round(round, collision_events)) break;
  }
  return f.finish();
}

void InterferenceSimAdversary::choose_unreliable_reach(
    const AdversaryView& view, std::span<const NodeId> senders,
    ReachSink& sink) {
  const CsrGraph& gt = *view.g;
  const CsrGraph& gi_only = *view.unreliable;
  const auto un = static_cast<std::size_t>(gt.node_count());

  // Recompute the interference-model outcome for this round.
  std::vector<int> arrival_count(un, 0);
  std::vector<int> receivable_count(un, 0);
  std::vector<bool> is_sender(un, false);
  for (NodeId u : senders) {
    is_sender[static_cast<std::size_t>(u)] = true;
    ++arrival_count[static_cast<std::size_t>(u)];
    ++receivable_count[static_cast<std::size_t>(u)];
    for (NodeId v : gt.row(u)) {
      ++arrival_count[static_cast<std::size_t>(v)];
      ++receivable_count[static_cast<std::size_t>(v)];
    }
    for (NodeId v : gi_only.row(u)) {
      ++arrival_count[static_cast<std::size_t>(v)];
    }
  }
  // R: nodes that receive an actual message in the interference execution.
  std::vector<bool> receives(un, false);
  for (std::size_t v = 0; v < un; ++v) {
    switch (rule_) {
      case CollisionRule::CR1:
        receives[v] = arrival_count[v] == 1 && receivable_count[v] == 1;
        break;
      case CollisionRule::CR2:
      case CollisionRule::CR3:
      case CollisionRule::CR4:
        // Senders receive their own message; non-senders receive iff exactly
        // one message reached them and it is receivable (CR4 resolves
        // collisions to silence by convention here).
        receives[v] = is_sender[v] ||
                      (arrival_count[v] == 1 && receivable_count[v] == 1);
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
    for (NodeId u : gi_only.row(v)) {  // only G_I-only edges
      const auto uu = static_cast<std::size_t>(u);
      if (arrival_count[uu] < 2) continue;  // condition (1), see above
      if (receives[uu]) continue;           // condition (2)
      sink.add(i, u);
    }
  }
}

}  // namespace dualrad
