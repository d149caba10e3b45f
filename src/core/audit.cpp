#include "core/audit.hpp"

#include <algorithm>
#include <sstream>

#include "core/ascending_set.hpp"
#include "graph/graph.hpp"

namespace dualrad::audit {
namespace {

std::string at(Round round, NodeId node) {
  std::ostringstream ss;
  ss << "round " << round << " node " << node << ": ";
  return ss.str();
}

}  // namespace

AuditReport audit_execution(const DualGraph& net, const SimResult& result,
                            CollisionRule rule,
                            const std::vector<NodeId>& token_sources) {
  AuditReport report;
  if (result.trace.level != TraceLevel::Compressed) {
    report.fail("audit requires a compressed trace");
    return report;
  }
  const NodeId n = net.node_count();
  const auto un = static_cast<std::size_t>(n);
  if (result.token_first.empty()) {
    report.fail("result has no per-token coverage data");
    return report;
  }
  // first_token is the single-message view of token_first[0]; a result where
  // they disagree is internally inconsistent.
  if (result.first_token != result.token_first.front()) {
    report.fail("first_token does not match token_first[0]");
  }
  // Per-token first-reception reconstruction. The only legitimate round-0
  // holder of a token is its environment source — exactly one node per
  // token, and a known one when the caller pins it — so a result claiming
  // extra (or missing) round-0 coverage fails here rather than becoming
  // ground truth. Everything later must be justified by a traced delivery.
  const std::size_t k = result.token_first.size();
  std::vector<std::vector<Round>> token_seen(
      k, std::vector<Round>(un, kNever));
  for (std::size_t t = 0; t < k; ++t) {
    NodeId holder = kInvalidNode;
    int holders = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (result.token_first[t][static_cast<std::size_t>(v)] == 0) {
        holder = v;
        ++holders;
      }
    }
    NodeId expected = kInvalidNode;
    if (t < token_sources.size()) {
      expected = token_sources[t];
    } else if (k == 1 && token_sources.empty()) {
      expected = net.source();
    }
    if (holders != 1) {
      report.fail("token " + std::to_string(t + 1) + " has " +
                  std::to_string(holders) + " round-0 holders (want 1)");
    } else if (expected != kInvalidNode && holder != expected) {
      report.fail("token " + std::to_string(t + 1) + " originates at node " +
                  std::to_string(holder) + ", expected " +
                  std::to_string(expected));
    } else {
      token_seen[t][static_cast<std::size_t>(holder)] = 0;
    }
  }
  const auto holds = [&](TokenId tok, NodeId v) {
    return tok != kNoToken && static_cast<std::size_t>(tok) <= k &&
           token_seen[static_cast<std::size_t>(tok - 1)]
                     [static_cast<std::size_t>(v)] != kNever;
  };

  // Forged-token provenance (Byzantine executions, src/byz/): the result's
  // ForgedTokenRecords name the planted facts — token id and forger — and
  // the audit recomputes every derived field from the trace, plus per-node
  // first-reception rounds so non-forger relays can be checked for
  // having actually received what they transmit.
  const std::size_t kf = result.forged_tokens.size();
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<std::pair<TokenId, std::size_t>> forged_index;
  std::vector<ForgedTokenRecord> forged_recomputed(kf);
  std::vector<std::vector<Round>> forged_seen(kf,
                                              std::vector<Round>(un, kNever));
  for (std::size_t i = 0; i < kf; ++i) {
    forged_recomputed[i].token = result.forged_tokens[i].token;
    forged_recomputed[i].forger = result.forged_tokens[i].forger;
    forged_index.emplace_back(result.forged_tokens[i].token, i);
  }
  std::sort(forged_index.begin(), forged_index.end());
  const auto forged_slot = [&](TokenId tok) {
    const auto it = std::lower_bound(
        forged_index.begin(), forged_index.end(), tok,
        [](const std::pair<TokenId, std::size_t>& e, TokenId t) {
          return e.first < t;
        });
    if (it == forged_index.end() || it->first != tok) return kNoSlot;
    return it->second;
  };

  // The network's frozen CSR snapshots drive the per-round reconstruction:
  // g_csr.row for "every reliable edge delivered", gp_csr.row for "every
  // reached node is a G' neighbor".
  const CsrGraph& g_csr = net.g_csr();
  const CsrGraph& gp_csr = net.g_prime_csr();

  // Epoch-stamped arrival slots (one epoch per round): count + first message
  // per node, full list spilled on collision, so per-round cost scales with
  // deliveries, not n. reach_seen and gp_seen carry a per-sender stamp: the
  // first for duplicate detection and reliable-edge coverage, the second
  // marks the sender's G' row. `checked` collects the nodes with an arrival
  // or a non-silence reception — the only nodes whose reception can fail a
  // check — and yields them ascending, the order violations are reported in.
  std::vector<std::int64_t> arr_epoch(un, 0);
  std::vector<std::uint32_t> arr_count(un, 0);
  std::vector<Message> arr_first(un);
  std::vector<std::vector<Message>> multi(un);
  std::vector<std::int64_t> reach_seen(un, 0);
  std::vector<std::int64_t> gp_seen(un, 0);
  NodeFlags is_sender(un, 0);
  AscendingNodeSet checked(un);
  std::vector<NodeId> check_order;
  std::int64_t epoch = 0;
  std::int64_t reach_mark = 0;

  // The trace holds one round per executed round, numbered 1, 2, ... in
  // order. Each is decoded into one reused SparseRound, so the audit never
  // materializes the whole history.
  const std::size_t round_count = result.trace.compressed_rounds();
  if (round_count != static_cast<std::size_t>(result.rounds_executed)) {
    report.fail("trace records " + std::to_string(round_count) +
                " rounds, result executed " +
                std::to_string(result.rounds_executed));
  }
  SparseRound record;
  const Reception silence = Reception::silence();
  for (std::size_t ri = 0; ri < round_count; ++ri) {
    result.trace.decode_round(ri, n, record);
    if (record.round != static_cast<Round>(ri + 1)) {
      report.fail("trace round " + std::to_string(ri + 1) +
                  " is numbered " + std::to_string(record.round));
    }
    ++epoch;
    const auto deposit = [&](NodeId v, const Message& m) {
      const auto uv = static_cast<std::size_t>(v);
      if (arr_epoch[uv] != epoch) {
        arr_epoch[uv] = epoch;
        arr_count[uv] = 1;
        arr_first[uv] = m;
        checked.insert(v);
        return;
      }
      if (arr_count[uv] == 1) {
        multi[uv].clear();
        multi[uv].push_back(arr_first[uv]);
      }
      ++arr_count[uv];
      multi[uv].push_back(m);
    };

    // Every sender deposits its own message first, so a sender's arr_first
    // is what it sent.
    for (const auto& sender : record.senders) {
      is_sender[static_cast<std::size_t>(sender.node)] = 1;
      deposit(sender.node, sender.message);
    }
    for (const auto& sender : record.senders) {
      ++reach_mark;
      for (const NodeId v : gp_csr.row(sender.node)) {
        gp_seen[static_cast<std::size_t>(v)] = reach_mark;
      }
      bool duplicates = false;
      for (const NodeId v : record.reach(sender)) {
        const auto uv = static_cast<std::size_t>(v);
        if (reach_seen[uv] == reach_mark) duplicates = true;
        reach_seen[uv] = reach_mark;
        if (gp_seen[uv] != reach_mark) {
          report.fail(at(record.round, sender.node) + "reached non-neighbor " +
                      std::to_string(v));
        }
        deposit(v, sender.message);
      }
      if (duplicates) {
        report.fail(at(record.round, sender.node) + "duplicate reach entries");
      }
      for (NodeId v : g_csr.row(sender.node)) {
        if (reach_seen[static_cast<std::size_t>(v)] != reach_mark) {
          report.fail(at(record.round, sender.node) +
                      "reliable edge skipped to " + std::to_string(v));
        }
      }
      const TokenId stok = sender.message.token;
      if (stok != kNoToken && static_cast<std::size_t>(stok) <= k) {
        if (!holds(stok, sender.node)) {
          report.fail(at(record.round, sender.node) +
                      "transmitted a token without holding it");
        }
      } else if (stok != kNoToken) {
        const std::size_t fi = forged_slot(stok);
        if (fi == kNoSlot) {
          report.fail(at(record.round, sender.node) +
                      "transmitted unregistered token id " +
                      std::to_string(stok));
        } else {
          ForgedTokenRecord& frec = forged_recomputed[fi];
          if (sender.node == frec.forger) {
            ++frec.injections;
            if (frec.first_injected == kNever) {
              frec.first_injected = record.round;
            }
          } else {
            // A correct relay of a forged token is legal only after the
            // token reached the relay (forged_seen holds strictly earlier
            // rounds here: this round's receptions fold in below).
            if (forged_seen[fi][static_cast<std::size_t>(sender.node)] ==
                kNever) {
              report.fail(at(record.round, sender.node) +
                          "transmitted forged token " + std::to_string(stok) +
                          " without having received it");
            }
            ++frec.victim_sends;
            if (frec.first_victim == kInvalidNode) {
              frec.first_victim = sender.node;
              frec.first_victim_round = record.round;
            }
          }
        }
      }
    }

    // Reception consistency. A node outside `checked` heard silence with no
    // arrival, which no check can fault.
    for (const SparseRound::Heard& h : record.receptions) {
      checked.insert(h.node);
    }
    check_order.clear();
    checked.drain(check_order);
    auto heard = record.receptions.begin();
    for (const NodeId v : check_order) {
      const auto uv = static_cast<std::size_t>(v);
      const bool listed =
          heard != record.receptions.end() && heard->node == v;
      const Reception& rec = listed ? (heard++)->reception : silence;
      const std::uint32_t arrived_count =
          arr_epoch[uv] == epoch ? arr_count[uv] : 0;
      // A sender's own message always reaches it. Under CR2-CR4 a sender
      // hears that message; under CR1 it hears it only as its sole arrival
      // (senders collide too). A non-sender hears its sole arrival, and
      // several arrivals as top (CR1, CR2), silence (CR3), or the
      // adversary's pick of silence or one of them (CR4).
      switch (rec.kind) {
        case ReceptionKind::Collision:
          if (rule != CollisionRule::CR1 && rule != CollisionRule::CR2) {
            report.fail(at(record.round, v) +
                        "collision notification under " + to_string(rule));
          } else if (rule == CollisionRule::CR2 && is_sender[uv]) {
            report.fail(at(record.round, v) +
                        "sender heard collision notification under CR2");
          }
          if (arrived_count < 2) {
            report.fail(at(record.round, v) +
                        "collision notification without a collision");
          }
          break;
        case ReceptionKind::Message: {
          // A sender's own message always arrived; any other message is
          // looked up among the arrivals.
          const bool own = is_sender[uv] && *rec.message == arr_first[uv];
          const bool arrived =
              own || (arrived_count == 1
                          ? arr_first[uv] == *rec.message
                          : arrived_count >= 2 &&
                                std::find(multi[uv].begin(), multi[uv].end(),
                                          *rec.message) != multi[uv].end());
          if (!arrived) {
            report.fail(at(record.round, v) +
                        "received a message that did not arrive");
          } else if (is_sender[uv] && !own) {
            report.fail(at(record.round, v) +
                        "sender received a message other than its own");
          }
          if (arrived_count > 1 &&
              (rule == CollisionRule::CR1 ||
               (!is_sender[uv] && rule != CollisionRule::CR4))) {
            report.fail(at(record.round, v) +
                        (is_sender[uv] ? "sender" : "non-sender") +
                        " received one of several messages under " +
                        to_string(rule));
          }
          break;
        }
        case ReceptionKind::Silence:
          if (arrived_count == 1 && !is_sender[uv]) {
            report.fail(at(record.round, v) +
                        "heard silence despite a sole arrival");
          }
          if (arrived_count > 1 && !is_sender[uv] &&
              (rule == CollisionRule::CR1 || rule == CollisionRule::CR2)) {
            report.fail(at(record.round, v) +
                        "heard silence despite a collision under " +
                        to_string(rule));
          }
          if (is_sender[uv]) {
            report.fail(at(record.round, v) + "sender heard silence");
          }
          break;
      }
      if (rec.has_token()) {
        const TokenId tok = rec.message->token;
        if (static_cast<std::size_t>(tok) <= k) {
          auto& seen = token_seen[static_cast<std::size_t>(tok - 1)];
          if (seen[uv] == kNever) seen[uv] = record.round;
        } else {
          const std::size_t fi = forged_slot(tok);
          if (fi == kNoSlot) {
            report.fail(at(record.round, v) +
                        "received unregistered token id " +
                        std::to_string(tok));
          } else if (forged_seen[fi][uv] == kNever) {
            forged_seen[fi][uv] = record.round;
          }
        }
      }
    }

    for (const auto& sender : record.senders) {
      is_sender[static_cast<std::size_t>(sender.node)] = 0;
    }
  }

  for (std::size_t t = 0; t < k; ++t) {
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (result.token_first[t][uv] != token_seen[t][uv]) {
        report.fail("token " + std::to_string(t + 1) +
                    " first-reception mismatch at node " + std::to_string(v) +
                    ": result says " +
                    std::to_string(result.token_first[t][uv]) +
                    ", trace says " + std::to_string(token_seen[t][uv]));
      }
    }
  }

  // Forged-token provenance cross-check: every derived field of every
  // ForgedTokenRecord must match the recomputation, then wins are reported.
  const auto field_mismatch = [&](std::size_t i, const char* field,
                                  std::int64_t claimed, std::int64_t traced) {
    report.fail("forged token " +
                std::to_string(result.forged_tokens[i].token) + " " + field +
                " mismatch: result says " + std::to_string(claimed) +
                ", trace says " + std::to_string(traced));
  };
  for (std::size_t i = 0; i < kf; ++i) {
    const ForgedTokenRecord& claimed = result.forged_tokens[i];
    ForgedTokenRecord& traced = forged_recomputed[i];
    for (const Round r : forged_seen[i]) {
      if (r != kNever) ++traced.receptions;
    }
    if (claimed.first_injected != traced.first_injected) {
      field_mismatch(i, "first_injected", claimed.first_injected,
                     traced.first_injected);
    }
    if (claimed.injections != traced.injections) {
      field_mismatch(i, "injections",
                     static_cast<std::int64_t>(claimed.injections),
                     static_cast<std::int64_t>(traced.injections));
    }
    if (claimed.first_victim != traced.first_victim) {
      field_mismatch(i, "first_victim", claimed.first_victim,
                     traced.first_victim);
    }
    if (claimed.first_victim_round != traced.first_victim_round) {
      field_mismatch(i, "first_victim_round", claimed.first_victim_round,
                     traced.first_victim_round);
    }
    if (claimed.victim_sends != traced.victim_sends) {
      field_mismatch(i, "victim_sends",
                     static_cast<std::int64_t>(claimed.victim_sends),
                     static_cast<std::int64_t>(traced.victim_sends));
    }
    if (claimed.receptions != traced.receptions) {
      field_mismatch(i, "receptions",
                     static_cast<std::int64_t>(claimed.receptions),
                     static_cast<std::int64_t>(traced.receptions));
    }
    if (traced.won()) {
      report.forged_wins.push_back(
          "forged token " + std::to_string(traced.token) +
          " (forger node " + std::to_string(traced.forger) +
          ") won: first relayed by node " + std::to_string(traced.first_victim) +
          " at round " + std::to_string(traced.first_victim_round) + " (" +
          std::to_string(traced.victim_sends) + " victim sends, " +
          std::to_string(traced.receptions) + " receptions)");
    }
  }
  return report;
}

}  // namespace dualrad::audit
