#include "mac/bmmb.hpp"

#include <algorithm>

namespace dualrad::mac {

namespace {

class BmmbClient final : public MacClient {
 public:
  BmmbClient() = default;
  BmmbClient(const BmmbClient&) = default;

  void on_mac_start(AbstractMac& mac, Round round,
                    const std::optional<Message>& initial) override {
    if (initial.has_value()) learn(mac, round, *initial);
  }

  void on_mac_receive(AbstractMac& mac, Round round,
                      const Message& message) override {
    learn(mac, round, message);
  }

  void on_mac_ack(AbstractMac& mac, Round round, const Message&) override {
    // Fresh relays queue ahead by themselves; when the layer goes idle,
    // keep cycling re-broadcasts of held tokens. This is the liveness rule:
    // a time-triggered MAC ack cannot guarantee the neighborhood actually
    // received the message (no feedback channel in the radio model), so a
    // relay-once BMMB can strand a token forever. Cycling makes completion
    // a.s. under benign/stochastic channels — and makes the k = 1 case
    // transmit in exactly plain Decay's schedule, with no gap between runs.
    if (mac.pending() == 0 && !held_.empty()) {
      const TokenId token = held_[cycle_ % held_.size()];
      ++cycle_;
      mac.bcast(Message{token, /*origin=*/mac.mac_id(), /*round_tag=*/round,
                        /*payload=*/0});
    }
  }

  [[nodiscard]] std::unique_ptr<MacClient> clone() const override {
    return std::make_unique<BmmbClient>(*this);
  }

 private:
  void learn(AbstractMac& mac, Round round, const Message& message) {
    const TokenId token = message.token;
    if (token == kNoToken) return;
    if (std::find(held_.begin(), held_.end(), token) != held_.end()) return;
    held_.push_back(token);
    mac.bcast(Message{token, /*origin=*/mac.mac_id(), /*round_tag=*/round,
                      /*payload=*/0});
  }

  std::vector<TokenId> held_{};
  std::size_t cycle_ = 0;
};

}  // namespace

MacClientFactory make_bmmb_client_factory() {
  return [](ProcessId, NodeId, std::uint64_t) {
    return std::make_unique<BmmbClient>();
  };
}

ProcessFactory make_bmmb_factory(NodeId n) {
  return make_decay_mac_factory(n, make_bmmb_client_factory());
}

std::vector<NodeId> spread_token_sources(const DualGraph& net, TokenId k) {
  const NodeId n = net.node_count();
  DUALRAD_REQUIRE(k >= 1 && k <= n, "token count must be in [1, n]");
  std::vector<bool> chosen(static_cast<std::size_t>(n), false);
  std::vector<NodeId> sources;
  sources.reserve(static_cast<std::size_t>(k));
  sources.push_back(net.source());
  chosen[static_cast<std::size_t>(net.source())] = true;
  for (TokenId i = 1; i < k; ++i) {
    NodeId candidate = static_cast<NodeId>(
        (static_cast<std::int64_t>(net.source()) +
         static_cast<std::int64_t>(i) * n / k) %
        n);
    while (chosen[static_cast<std::size_t>(candidate)]) {
      candidate = (candidate + 1) % n;
    }
    chosen[static_cast<std::size_t>(candidate)] = true;
    sources.push_back(candidate);
  }
  return sources;
}

}  // namespace dualrad::mac
