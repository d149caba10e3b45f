#include "core/audit.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "core/ascending_set.hpp"
#include "core/shard_pool.hpp"
#include "graph/graph.hpp"

namespace dualrad::audit {
namespace {

std::string at(Round round, NodeId node) {
  std::ostringstream ss;
  ss << "round " << round << " node " << node << ": ";
  return ss.str();
}

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// What every round chunk reads.
struct AuditInput {
  const DualGraph& net;
  const Trace& trace;
  CollisionRule rule;
  /// Tokens 1..k are the environment's; any other id is forged.
  std::size_t k;
  const std::vector<ForgedTokenRecord>& forged;
  /// (token id, index into `forged`), sorted.
  std::vector<std::pair<TokenId, std::size_t>> forged_index{};

  [[nodiscard]] std::size_t forged_slot(TokenId tok) const {
    const auto it = std::lower_bound(
        forged_index.begin(), forged_index.end(), tok,
        [](const std::pair<TokenId, std::size_t>& e, TokenId t) {
          return e.first < t;
        });
    if (it == forged_index.end() || it->first != tok) return kNoSlot;
    return it->second;
  }
};

/// What auditing one chunk of rounds yields.
struct ChunkAudit {
  /// First reception round per token and node (round 0: the holder chunk 0
  /// starts from), and the same per forged token, within the chunk.
  std::vector<std::vector<Round>> token_seen{};
  std::vector<std::vector<Round>> forged_seen{};
  /// Per forged token, the provenance fields the chunk's rounds give:
  /// counts, and the first injection and first victim send among them.
  std::vector<ForgedTokenRecord> provenance{};
  /// Sender checks a later chunk cannot settle: deferred[slot * n + v] is
  /// set when v transmitted token slot + 1 (slot k + i: forged token i)
  /// before the chunk delivered it to v.
  NodeFlags deferred{};
  std::vector<std::string> violations{};
};

/// Audit rounds [first, last) into `out`, with state of its own. Chunk 0
/// (`defer` false) starts from out.token_seen, the round-0 holders, and
/// reports every check; a later chunk starts with nothing received and
/// records its unsettled token checks in out.deferred instead.
void audit_rounds(const AuditInput& in, std::size_t first, std::size_t last,
                  bool defer, ChunkAudit& out) {
  const NodeId n = in.net.node_count();
  const auto un = static_cast<std::size_t>(n);
  const std::size_t k = in.k;
  const std::size_t kf = in.forged.size();
  if (defer) {
    out.token_seen.assign(k, std::vector<Round>(un, kNever));
    out.deferred.assign((k + kf) * un, 0);
  }
  out.forged_seen.assign(kf, std::vector<Round>(un, kNever));
  out.provenance.resize(kf);
  for (std::size_t i = 0; i < kf; ++i) {
    out.provenance[i].token = in.forged[i].token;
    out.provenance[i].forger = in.forged[i].forger;
  }
  const auto fail = [&out](std::string what) {
    out.violations.push_back(std::move(what));
  };

  // The network's frozen CSR snapshots drive the per-round reconstruction:
  // g_csr.row for "every reliable edge delivered", gp_csr.row for "every
  // reached node is a G' neighbor".
  const CsrGraph& g_csr = in.net.g_csr();
  const CsrGraph& gp_csr = in.net.g_prime_csr();

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

  // Each round is decoded into one reused SparseRound, so the audit never
  // materializes the whole history.
  SparseRound record;
  const Reception silence = Reception::silence();
  for (std::size_t ri = first; ri < last; ++ri) {
    in.trace.decode_round(ri, n, record);
    if (record.round != static_cast<Round>(ri + 1)) {
      fail("trace round " + std::to_string(ri + 1) + " is numbered " +
           std::to_string(record.round));
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
      const auto us = static_cast<std::size_t>(sender.node);
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
          fail(at(record.round, sender.node) + "reached non-neighbor " +
               std::to_string(v));
        }
        deposit(v, sender.message);
      }
      if (duplicates) {
        fail(at(record.round, sender.node) + "duplicate reach entries");
      }
      for (NodeId v : g_csr.row(sender.node)) {
        if (reach_seen[static_cast<std::size_t>(v)] != reach_mark) {
          fail(at(record.round, sender.node) + "reliable edge skipped to " +
               std::to_string(v));
        }
      }
      // token_seen and forged_seen hold strictly earlier rounds here: this
      // round's receptions fold in below.
      const TokenId stok = sender.message.token;
      if (stok != kNoToken && static_cast<std::size_t>(stok) <= k) {
        const auto slot = static_cast<std::size_t>(stok - 1);
        if (out.token_seen[slot][us] == kNever) {
          if (defer) {
            out.deferred[slot * un + us] = 1;
          } else {
            fail(at(record.round, sender.node) +
                 "transmitted a token without holding it");
          }
        }
      } else if (stok != kNoToken) {
        const std::size_t fi = in.forged_slot(stok);
        if (fi == kNoSlot) {
          fail(at(record.round, sender.node) +
               "transmitted unregistered token id " + std::to_string(stok));
        } else {
          ForgedTokenRecord& frec = out.provenance[fi];
          if (sender.node == frec.forger) {
            ++frec.injections;
            if (frec.first_injected == kNever) {
              frec.first_injected = record.round;
            }
          } else {
            // A correct relay of a forged token is legal only after the
            // token reached the relay.
            if (out.forged_seen[fi][us] == kNever) {
              if (defer) {
                out.deferred[(k + fi) * un + us] = 1;
              } else {
                fail(at(record.round, sender.node) +
                     "transmitted forged token " + std::to_string(stok) +
                     " without having received it");
              }
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
          if (in.rule != CollisionRule::CR1 && in.rule != CollisionRule::CR2) {
            fail(at(record.round, v) + "collision notification under " +
                 to_string(in.rule));
          } else if (in.rule == CollisionRule::CR2 && is_sender[uv]) {
            fail(at(record.round, v) +
                 "sender heard collision notification under CR2");
          }
          if (arrived_count < 2) {
            fail(at(record.round, v) +
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
            fail(at(record.round, v) +
                 "received a message that did not arrive");
          } else if (is_sender[uv] && !own) {
            fail(at(record.round, v) +
                 "sender received a message other than its own");
          }
          if (arrived_count > 1 &&
              (in.rule == CollisionRule::CR1 ||
               (!is_sender[uv] && in.rule != CollisionRule::CR4))) {
            fail(at(record.round, v) +
                 (is_sender[uv] ? "sender" : "non-sender") +
                 " received one of several messages under " +
                 to_string(in.rule));
          }
          break;
        }
        case ReceptionKind::Silence:
          if (arrived_count == 1 && !is_sender[uv]) {
            fail(at(record.round, v) +
                 "heard silence despite a sole arrival");
          }
          if (arrived_count > 1 && !is_sender[uv] &&
              (in.rule == CollisionRule::CR1 ||
               in.rule == CollisionRule::CR2)) {
            fail(at(record.round, v) +
                 "heard silence despite a collision under " +
                 to_string(in.rule));
          }
          if (is_sender[uv]) {
            fail(at(record.round, v) + "sender heard silence");
          }
          break;
      }
      if (rec.has_token()) {
        const TokenId tok = rec.message->token;
        if (static_cast<std::size_t>(tok) <= k) {
          auto& seen = out.token_seen[static_cast<std::size_t>(tok - 1)];
          if (seen[uv] == kNever) seen[uv] = record.round;
        } else {
          const std::size_t fi = in.forged_slot(tok);
          if (fi == kNoSlot) {
            fail(at(record.round, v) + "received unregistered token id " +
                 std::to_string(tok));
          } else if (out.forged_seen[fi][uv] == kNever) {
            out.forged_seen[fi][uv] = record.round;
          }
        }
      }
    }

    for (const auto& sender : record.senders) {
      is_sender[static_cast<std::size_t>(sender.node)] = 0;
    }
  }
}

/// The chunk count audit_execution picks, from the input and the host
/// alone: at most one chunk per hardware thread and per MiB of trace, and
/// few enough that the chunks' n-wide state stays within a quarter of the
/// trace.
std::size_t auto_chunk_count(const Trace& trace, std::size_t un,
                             std::size_t token_slots) {
  constexpr std::size_t kMinChunkBytes = std::size_t{1} << 20;
  // Arrival slots, reach and G' marks and the `checked` set are about 80 B
  // per node; each token and forged token adds a Round and a deferred flag.
  const std::size_t state =
      std::max<std::size_t>(1, un * (80 + 9 * token_slots));
  const std::size_t bytes = trace.blob.size();
  const std::size_t chunks = std::min(
      {static_cast<std::size_t>(std::thread::hardware_concurrency()),
       bytes / kMinChunkBytes, bytes / (4 * state),
       trace.compressed_rounds()});
  return std::max<std::size_t>(chunks, 1);
}

}  // namespace

AuditReport audit_execution(const DualGraph& net, const SimResult& result,
                            CollisionRule rule,
                            const std::vector<NodeId>& token_sources) {
  return audit_in_chunks(net, result, rule, token_sources, 0);
}

AuditReport audit_in_chunks(const DualGraph& net, const SimResult& result,
                            CollisionRule rule,
                            const std::vector<NodeId>& token_sources,
                            std::size_t chunks) {
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
  std::vector<std::vector<Round>> holders(k, std::vector<Round>(un, kNever));
  for (std::size_t t = 0; t < k; ++t) {
    NodeId holder = kInvalidNode;
    int count = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (result.token_first[t][static_cast<std::size_t>(v)] == 0) {
        holder = v;
        ++count;
      }
    }
    NodeId expected = kInvalidNode;
    if (t < token_sources.size()) {
      expected = token_sources[t];
    } else if (k == 1 && token_sources.empty()) {
      expected = net.source();
    }
    if (count != 1) {
      report.fail("token " + std::to_string(t + 1) + " has " +
                  std::to_string(count) + " round-0 holders (want 1)");
    } else if (expected != kInvalidNode && holder != expected) {
      report.fail("token " + std::to_string(t + 1) + " originates at node " +
                  std::to_string(holder) + ", expected " +
                  std::to_string(expected));
    } else {
      holders[t][static_cast<std::size_t>(holder)] = 0;
    }
  }

  // Forged-token provenance (Byzantine executions, src/byz/): the result's
  // ForgedTokenRecords name the planted facts — token id and forger — and
  // the audit recomputes every derived field from the trace, plus per-node
  // first-reception rounds so non-forger relays can be checked for
  // having actually received what they transmit.
  const std::size_t kf = result.forged_tokens.size();
  AuditInput in{net, result.trace, rule, k, result.forged_tokens};
  for (std::size_t i = 0; i < kf; ++i) {
    in.forged_index.emplace_back(result.forged_tokens[i].token, i);
  }
  std::sort(in.forged_index.begin(), in.forged_index.end());

  // The trace holds one round per executed round, numbered 1, 2, ... in
  // order.
  const Trace& trace = result.trace;
  const std::size_t round_count = trace.compressed_rounds();
  if (round_count != static_cast<std::size_t>(result.rounds_executed)) {
    report.fail("trace records " + std::to_string(round_count) +
                " rounds, result executed " +
                std::to_string(result.rounds_executed));
  }

  // Cut the rounds into contiguous chunks of similar blob bytes and audit
  // them in parallel. Any cut gives the same report, so blob offsets out of
  // order (a corrupt trace) only unbalance the chunks.
  if (chunks == 0) chunks = auto_chunk_count(trace, un, k + kf);
  std::vector<std::size_t> bounds(chunks + 1, round_count);
  bounds[0] = 0;
  for (std::size_t c = 1, ri = 0; c < chunks; ++c) {
    const std::uint64_t target = trace.blob.size() * c / chunks;
    while (ri < round_count && trace.blob_offsets[ri] < target) ++ri;
    bounds[c] = ri;
  }
  std::vector<ChunkAudit> parts(chunks);
  parts[0].token_seen = std::move(holders);
  const auto audit_chunk = [&](unsigned c) {
    audit_rounds(in, bounds[c], bounds[c + 1], c > 0, parts[c]);
  };
  if (chunks == 1) {
    audit_chunk(0);
  } else {
    // Shard 0 runs here, and the lowest chunk's exception is rethrown
    // first: the first malformed round in round order.
    ShardPool pool(static_cast<unsigned>(chunks));
    pool.run(audit_chunk);
  }

  // Stitch the chunks in order onto chunk 0. First receptions: the earlier
  // chunk's round wins.
  const auto fold = [](std::vector<std::vector<Round>>& into,
                       const std::vector<std::vector<Round>>& from) {
    for (std::size_t t = 0; t < into.size(); ++t) {
      for (std::size_t v = 0; v < into[t].size(); ++v) {
        if (into[t][v] == kNever) into[t][v] = from[t][v];
      }
    }
  };
  ChunkAudit& all = parts[0];
  for (std::string& v : all.violations) report.fail(std::move(v));
  for (std::size_t c = 1; c < chunks; ++c) {
    ChunkAudit& part = parts[c];
    // A deferred check holds iff a chunk before delivered the token to the
    // sender. A failed one is a violation only the one-chunk audit places
    // in order, so audit again as one chunk.
    for (std::size_t slot = 0; slot < k + kf; ++slot) {
      const std::vector<Round>& seen =
          slot < k ? all.token_seen[slot] : all.forged_seen[slot - k];
      for (std::size_t v = 0; v < un; ++v) {
        if (part.deferred[slot * un + v] != 0 && seen[v] == kNever) {
          return audit_in_chunks(net, result, rule, token_sources, 1);
        }
      }
    }
    fold(all.token_seen, part.token_seen);
    fold(all.forged_seen, part.forged_seen);
    for (std::size_t i = 0; i < kf; ++i) {
      ForgedTokenRecord& into = all.provenance[i];
      const ForgedTokenRecord& from = part.provenance[i];
      into.injections += from.injections;
      into.victim_sends += from.victim_sends;
      if (into.first_injected == kNever) {
        into.first_injected = from.first_injected;
      }
      if (into.first_victim == kInvalidNode) {
        into.first_victim = from.first_victim;
        into.first_victim_round = from.first_victim_round;
      }
    }
    for (std::string& v : part.violations) report.fail(std::move(v));
  }

  for (std::size_t t = 0; t < k; ++t) {
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (result.token_first[t][uv] != all.token_seen[t][uv]) {
        report.fail("token " + std::to_string(t + 1) +
                    " first-reception mismatch at node " + std::to_string(v) +
                    ": result says " +
                    std::to_string(result.token_first[t][uv]) +
                    ", trace says " + std::to_string(all.token_seen[t][uv]));
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
    ForgedTokenRecord& traced = all.provenance[i];
    for (const Round r : all.forged_seen[i]) {
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
