#include "core/reference_engine.hpp"

#include "core/execution.hpp"

namespace dualrad {

SimResult run_broadcast_reference(const DualGraph& net,
                                  const ProcessFactory& factory,
                                  Adversary& adversary,
                                  const SimConfig& config) {
  DUALRAD_REQUIRE(config.telemetry == nullptr,
                  "the reference engine has no telemetry");
  ExecutionFrame f(net, factory, adversary, config);
  f.start({});

  const NodeId n = f.n;
  const CsrGraph& g = net.g_csr();
  std::vector<std::vector<Message>> arrivals(f.un);
  std::vector<Reception> receptions(f.un);

  for (Round round = 1; round <= config.max_rounds; ++round) {
    f.begin_round(round);
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      arrivals[uv].clear();
      if (!f.awake[uv]) continue;
      const Action action = f.procs[uv]->next_action(round);
      if (action.send) f.add_sender(v, action.message);
    }
    f.end_poll(round);  // the node scan produced ascending senders
    f.choose_reach(round);

    // Message propagation: sender itself + G out-neighbors + chosen extras.
    for (std::size_t i = 0; i < f.senders.size(); ++i) {
      const NodeId u = f.senders[i];
      const Message& m = f.sent_msg[static_cast<std::size_t>(u)];
      arrivals[static_cast<std::size_t>(u)].push_back(m);
      for (const NodeId v : g.row(u)) {
        arrivals[static_cast<std::size_t>(v)].push_back(m);
      }
      for (const NodeId v : f.sink.extras(i)) {
        f.check_reach(u, v);
        arrivals[static_cast<std::size_t>(v)].push_back(m);
      }
    }

    // Receptions under the configured collision rule.
    std::uint32_t collision_events = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      const auto& arr = arrivals[uv];
      // A collision event is a (node, round) pair at which the process
      // observes a collision: >= 2 arrivals, except that under CR2-CR4 a
      // sender deterministically hears its own message, so no collision
      // occurs at sender nodes there (CR1 counts senders too).
      if (arr.size() >= 2 &&
          (config.rule == CollisionRule::CR1 || !f.is_sender[uv])) {
        ++collision_events;
      }
      Reception rec = Reception::silence();
      switch (config.rule) {
        case CollisionRule::CR1:
          if (arr.size() == 1) {
            rec = Reception::of(arr.front());
          } else if (arr.size() >= 2) {
            rec = Reception::collision();
          }
          break;
        case CollisionRule::CR2:
        case CollisionRule::CR3:
        case CollisionRule::CR4:
          if (f.is_sender[uv]) {
            rec = Reception::of(f.sent_msg[uv]);
          } else if (arr.size() == 1) {
            rec = Reception::of(arr.front());
          } else if (arr.size() >= 2) {
            if (config.rule == CollisionRule::CR2) {
              rec = Reception::collision();
            } else if (config.rule == CollisionRule::CR4) {
              rec = f.resolve_cr4(v, arr);
            }  // CR3: silence
          }
          break;
      }
      receptions[uv] = rec;
      if (f.record_trace && !arr.empty()) {
        f.trace_receptions[uv] = rec;
        f.trace_touched(v);
      }
    }

    f.deliver_all(round, receptions);

    if (f.end_round(round, collision_events)) break;
  }
  return f.finish();
}

}  // namespace dualrad
