#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/strong_select.hpp"
#include "core/audit.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace dualrad {
namespace {

SimResult run_traced(const DualGraph& net, const ProcessFactory& factory,
                     Adversary& adversary, CollisionRule rule) {
  SimConfig config;
  config.rule = rule;
  config.max_rounds = 2'000'000;
  config.trace = TraceLevel::Compressed;
  return run_broadcast(net, factory, adversary, config);
}

/// A two-round scripted execution on the classical path 0-1-2-3 (source 0,
/// synchronous start) with a trace. Round 1: node 0 sends the token, so
/// node 1 hears it as a sole arrival while nodes 2 and 3 hear nothing.
/// Round 2: nodes 0 and 2 send, so node 1 has two arrivals and node 3 a sole
/// one from node 2, which holds no token and sends a token-less message.
SimResult run_path_script(CollisionRule rule) {
  const DualGraph net = make_classical(gen::path(4), 0);
  BenignAdversary adversary;
  SimConfig config;
  config.rule = rule;
  config.start = StartRule::Synchronous;
  config.max_rounds = 2;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  return run_broadcast(net,
                       testing::scripted_factory({{0, {1, 2}}, {2, {2}}}),
                       adversary, config);
}

/// Audit a tampered run_path_script result on its own network and rule, at
/// every chunk count of testing::kAuditCuts.
audit::AuditReport audit_path_script(const SimResult& result,
                                     CollisionRule rule) {
  return testing::audit_every_cut(make_classical(gen::path(4), 0), result,
                                  rule);
}

/// A one-round scripted execution on the classical 3-clique (source 0,
/// synchronous start) with a trace: nodes 0 and 1 send, so every node has
/// two arrivals. Only node 0 holds the token.
SimResult run_clique_script(CollisionRule rule) {
  const DualGraph net = make_classical(gen::clique(3), 0);
  BenignAdversary adversary;
  SimConfig config;
  config.rule = rule;
  config.start = StartRule::Synchronous;
  config.max_rounds = 1;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  return run_broadcast(net, testing::scripted_factory({{0, {1}}, {1, {1}}}),
                       adversary, config);
}

audit::AuditReport audit_clique_script(const SimResult& result,
                                       CollisionRule rule) {
  return testing::audit_every_cut(make_classical(gen::clique(3), 0), result,
                                  rule);
}

/// Edit the decoded rounds of a scripted run's trace and re-encode them.
template <class Edit>
void tamper(SimResult& result, Edit&& edit) {
  testing::edit_rounds(result.trace,
                       static_cast<NodeId>(result.process_of_node.size()),
                       std::forward<Edit>(edit));
}

/// Index of the first round with a sender.
std::size_t first_sending_round(const std::vector<SparseRound>& rounds) {
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (!rounds[i].senders.empty()) return i;
  }
  ADD_FAILURE() << "no round had a sender";
  return 0;
}

TEST(Audit, CleanExecutionsPass) {
  const DualGraph net = duals::gray_zone({.n = 32, .seed = 6});
  for (CollisionRule rule :
       {CollisionRule::CR1, CollisionRule::CR2, CollisionRule::CR3,
        CollisionRule::CR4}) {
    GreedyBlockerAdversary adversary;
    const SimResult result = run_traced(
        net, make_harmonic_factory(net.node_count()), adversary, rule);
    const auto report = audit::audit_execution(net, result, rule);
    EXPECT_TRUE(report.ok) << to_string(rule) << ": "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
  }
}

TEST(Audit, StrongSelectPasses) {
  const DualGraph net = duals::layered_complete_gprime(5, 3);
  BernoulliAdversary adversary(0.4, 3);
  const SimResult result =
      run_traced(net, make_strong_select_factory(net.node_count()), adversary,
                 CollisionRule::CR4);
  EXPECT_TRUE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, DetectsForgedCoverageClaim) {
  // A clean execution passes; the same result with a forged coverage claim
  // fails against its trace.
  const DualGraph net = duals::gray_zone({.n = 32, .seed = 6});
  for (CollisionRule rule :
       {CollisionRule::CR1, CollisionRule::CR3, CollisionRule::CR4}) {
    GreedyBlockerAdversary adversary;
    SimConfig config;
    config.rule = rule;
    config.max_rounds = 2'000'000;
    config.trace = TraceLevel::Compressed;
    SimResult result = run_broadcast(
        net, make_harmonic_factory(net.node_count()), adversary, config);
    EXPECT_GT(result.trace.compressed_rounds(), 0u);
    const auto report = audit::audit_execution(net, result, rule);
    EXPECT_TRUE(report.ok) << to_string(rule) << ": "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
    result.first_token[1] = 1;
    result.token_first[0][1] = 1;
    EXPECT_FALSE(audit::audit_execution(net, result, rule).ok);
  }
}

TEST(Audit, RequiresTrace) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimConfig config;
  config.max_rounds = 10'000;
  const SimResult result =
      run_broadcast(net, make_harmonic_factory(8), adversary, config);
  const auto report =
      audit::audit_execution(net, result, CollisionRule::CR4);
  EXPECT_EQ(report.violations,
            std::vector<std::string>{"audit requires a compressed trace"});
}

TEST(Audit, DetectsTamperedReach) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  ASSERT_TRUE(result.completed);
  // Tamper: claim a sender reached a node with no G' edge (self loop is
  // never an edge).
  ASSERT_GT(result.trace.compressed_rounds(), 0u);
  testing::edit_rounds(result.trace, 8, [](std::vector<SparseRound>& rounds) {
    SparseRound& round = rounds[first_sending_round(rounds)];
    std::vector<NodeId> reach = testing::reach_of(round, 0);
    reach.push_back(round.senders.front().node);
    testing::set_reach(round, 0, reach);
  });
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, DetectsSkippedReliableEdge) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  testing::edit_rounds(result.trace, 8, [](std::vector<SparseRound>& rounds) {
    for (SparseRound& round : rounds) {
      if (round.senders.empty()) continue;
      std::vector<NodeId> reach = testing::reach_of(round, 0);
      if (reach.empty()) continue;
      reach.pop_back();
      testing::set_reach(round, 0, reach);
      return;
    }
  });
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, DetectsForgedFirstToken) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  result.first_token.back() = 1;  // receiver cannot have it that early
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, DetectsWrongRuleClaim) {
  // An execution under CR1 contains collision notifications, which are
  // illegal under CR4.
  const DualGraph net = make_classical(gen::clique(3), 0);
  BenignAdversary adversary;
  const auto factory =
      testing::scripted_factory({{0, {1, 2}}, {1, {1}}, {2, {2}}});
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = 4;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const SimResult result = run_broadcast(net, factory, adversary, config);
  EXPECT_TRUE(audit::audit_execution(net, result, CollisionRule::CR1).ok);
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, ThrowsOnOutOfRangeIds) {
  // An id outside the network fails to decode: the audit throws rather
  // than index with it.
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  const SimResult clean = run_traced(net, make_harmonic_factory(8), adversary,
                                     CollisionRule::CR4);
  const auto audit_edited = [&](auto edit) {
    SimResult result = clean;
    testing::edit_rounds(result.trace, 8, [&](std::vector<SparseRound>& r) {
      edit(r[first_sending_round(r)]);
    });
    return audit::audit_execution(net, result, CollisionRule::CR4);
  };
  EXPECT_THROW((void)audit_edited([](SparseRound& round) {
                 round.senders.back().node = 1000;
               }),
               std::invalid_argument);
  EXPECT_THROW((void)audit_edited([](SparseRound& round) {
                 std::vector<NodeId> reach = testing::reach_of(round, 0);
                 reach.push_back(100000);
                 testing::set_reach(round, 0, reach);
               }),
               std::invalid_argument);
}

/// The message Trace::decode_round throws for round `index`, or "" when
/// the round decodes.
std::string decode_error(const Trace& trace, NodeId n, std::size_t index = 0) {
  SparseRound out;
  try {
    trace.decode_round(index, n, out);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

bool mentions(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

const Message kMessage{/*token=*/1, /*origin=*/0, /*round_tag=*/1,
                       /*payload=*/0};
const std::vector<NodeId> kNone;

/// A one-round trace: `senders` (each sending kMessage, reaching no one)
/// and the receptions `at` of the nodes `heard`.
Trace one_round(const std::vector<NodeId>& senders,
                const std::vector<NodeId>& heard = {},
                const std::vector<Reception>& at = {}) {
  Trace trace;
  CompressedRound round(trace, 1, senders.size());
  for (const NodeId u : senders) round.sender(u, kMessage, kNone, kNone);
  round.receptions(heard, at);
  return trace;
}

TEST(Audit, DecoderRejectsOutOfRangeIds) {
  const Trace sender = one_round({8});
  EXPECT_TRUE(mentions(decode_error(sender, 8), "sender out of range"));
  EXPECT_EQ(decode_error(sender, 9), "");

  Trace reach;
  {
    const std::vector<NodeId> far = {100000};
    CompressedRound round(reach, 1, 1);
    round.sender(0, kMessage, far, kNone);
    round.receptions(kNone, {});
  }
  EXPECT_TRUE(mentions(decode_error(reach, 8), "reach target out of range"));
  EXPECT_EQ(decode_error(reach, 100001), "");

  const std::vector<Reception> at(10, Reception::collision());
  const Trace reception = one_round({}, {9}, at);
  EXPECT_TRUE(mentions(decode_error(reception, 8), "reception out of range"));
  EXPECT_EQ(decode_error(reception, 10), "");
}

TEST(Audit, DecoderRejectsNonAscendingIds) {
  EXPECT_TRUE(
      mentions(decode_error(one_round({3, 3}), 8), "sender ids not ascending"));
  const std::vector<Reception> at(3, Reception::collision());
  EXPECT_TRUE(mentions(decode_error(one_round({}, {2, 2}, at), 8),
                       "reception ids not ascending"));
}

TEST(Audit, DecoderRejectsMalformedBytes) {
  const std::vector<Reception> at(2, Reception::collision());
  const Trace valid = one_round({0}, {1}, at);
  ASSERT_EQ(decode_error(valid, 8), "");

  Trace truncated = valid;
  truncated.blob.pop_back();
  EXPECT_TRUE(mentions(decode_error(truncated, 8), "truncated"));

  Trace trailing = valid;
  trailing.blob.push_back(0);
  EXPECT_TRUE(mentions(decode_error(trailing, 8), "trailing bytes"));

  // The collision's kind is the round's last byte.
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{3}}) {
    Trace bad_kind = valid;
    bad_kind.blob.back() = kind;
    EXPECT_TRUE(mentions(decode_error(bad_kind, 8), "reception kind"))
        << "kind " << int{kind};
  }

  // The round number is the first varint: eleven bytes, or ten whose last
  // sets a bit past bit 63, do not fit in 64 bits.
  for (const std::uint8_t last : {std::uint8_t{0x81}, std::uint8_t{0x02}}) {
    Trace overlong = valid;
    std::vector<std::uint8_t> varint(9, 0xFF);
    varint.push_back(last);
    if (last & 0x80) varint.push_back(0x01);
    overlong.blob.erase(overlong.blob.begin());  // round 1 is one byte
    overlong.blob.insert(overlong.blob.begin(), varint.begin(), varint.end());
    EXPECT_TRUE(mentions(decode_error(overlong, 8), "malformed varint"))
        << "tenth byte " << int{last};
  }

  // A varint of more than one byte never ends in 0: 0x81 0x00 would be a
  // second spelling of round 1, and blobs compare byte for byte.
  Trace padded = valid;
  padded.blob[0] = 0x81;
  padded.blob.insert(padded.blob.begin() + 1, 0x00);
  EXPECT_TRUE(mentions(decode_error(padded, 8), "malformed varint"));
}

TEST(Audit, EncoderWorstCaseRoundTrips) {
  // One round whose every varint is as long as its type allows: the
  // encoder reserves each call's worst case, so a reserve that is too small
  // corrupts this round trip or overflows the blob (ASan). Receptions sit
  // at small ids because `at` is indexed by node id.
  constexpr NodeId n = std::numeric_limits<NodeId>::max();
  constexpr Round round = std::numeric_limits<Round>::max();
  const Message extreme{std::numeric_limits<TokenId>::min(),
                        std::numeric_limits<ProcessId>::max(),
                        std::numeric_limits<Round>::min(),
                        std::numeric_limits<std::uint64_t>::max()};
  // Long enough that one byte short per entry outgrows the slack of the
  // reach count, which never needs its 10 bytes.
  std::vector<NodeId> reach;
  for (int i = 0; i < 64; ++i) reach.push_back(i % 2 == 0 ? 0 : n - 1);
  const std::vector<NodeId> heard = {0, 65535};
  std::vector<Reception> at(65536);
  at[0] = Reception::of(extreme);
  at[65535] = Reception::collision();

  Trace trace;
  {
    CompressedRound out(trace, round, 2);
    out.sender(0, extreme, reach, kNone);
    out.sender(n - 1, extreme, std::span(reach).first(20),
               std::span(reach).subspan(20));
    out.receptions(heard, at);
  }
  SparseRound decoded;
  trace.decode_round(0, n, decoded);
  EXPECT_EQ(decoded.round, round);
  ASSERT_EQ(decoded.senders.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(decoded.senders[i].node, i == 0 ? 0 : n - 1);
    EXPECT_EQ(decoded.senders[i].message, extreme);
    EXPECT_EQ(testing::reach_of(decoded, i), reach);
  }
  ASSERT_EQ(decoded.receptions.size(), 2u);
  EXPECT_EQ(decoded.receptions[0].node, 0);
  EXPECT_EQ(decoded.receptions[0].reception, Reception::of(extreme));
  EXPECT_EQ(decoded.receptions[1].node, 65535);
  EXPECT_TRUE(decoded.receptions[1].reception.is_collision());

  // The canonical LEB128 length of each field, zigzag for signed ones.
  const auto bytes = [](std::uint64_t v) -> std::size_t {
    return v == 0 ? 1 : (static_cast<std::size_t>(std::bit_width(v)) + 6) / 7;
  };
  const auto signed_bytes = [&](std::int64_t v) {
    return bytes(v < 0 ? ~(static_cast<std::uint64_t>(v) << 1)
                       : static_cast<std::uint64_t>(v) << 1);
  };
  const std::size_t message = signed_bytes(extreme.token) +
                              signed_bytes(extreme.origin) +
                              signed_bytes(extreme.round_tag) +
                              bytes(extreme.payload);
  std::size_t reach_bytes = bytes(reach.size());
  for (std::size_t i = 0; i < reach.size(); ++i) {
    reach_bytes += signed_bytes(std::int64_t{reach[i]} -
                                (i == 0 ? 0 : std::int64_t{reach[i - 1]}));
  }
  const std::size_t expected =
      bytes(static_cast<std::uint64_t>(round)) + bytes(2) +
      (bytes(0) + message + reach_bytes) +
      (bytes(n - 1) + message + reach_bytes) +
      (bytes(2) + bytes(0) + 1 + message + bytes(65535) + 1);
  EXPECT_EQ(trace.blob.size(), expected);
  EXPECT_EQ(message, 5u + 5u + 10u + 10u);
}

TEST(Audit, DecoderRejectsIndexAndOffsetsOutsideTheBlob) {
  Trace two = one_round({0});
  {
    CompressedRound round(two, 2, 1);
    round.sender(1, kMessage, kNone, kNone);
    round.receptions(kNone, {});
  }
  ASSERT_EQ(decode_error(two, 8, 1), "");
  EXPECT_TRUE(mentions(decode_error(two, 8, 2), "index out of range"));

  Trace beyond = two;
  beyond.blob_offsets.back() = beyond.blob.size() + 64;
  EXPECT_TRUE(mentions(decode_error(beyond, 8, 1), "outside the blob"));

  Trace backwards = two;
  backwards.blob_offsets[0] = backwards.blob_offsets[1] + 1;
  EXPECT_TRUE(mentions(decode_error(backwards, 8, 0), "outside the blob"));
}

// One tamper per reception check: each pins that the audit still visits the
// node that fails it, and with the same text.
TEST(AuditTamper, SoleArrivalHeardAsSilence) {
  SimResult result = run_path_script(CollisionRule::CR3);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    ASSERT_TRUE(testing::reception_at(rounds[0], 1).is_message());
    testing::set_reception(rounds[0], 1, Reception::silence());
  });
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            (std::vector<std::string>{
                "round 1 node 1: heard silence despite a sole arrival",
                "token 1 first-reception mismatch at node 1: result says 1, "
                "trace says -1"}));
}

TEST(AuditTamper, SenderHeardSilence) {
  SimResult result = run_path_script(CollisionRule::CR3);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    testing::set_reception(rounds[0], 0, Reception::silence());
  });
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            std::vector<std::string>{"round 1 node 0: sender heard silence"});
}

TEST(AuditTamper, MessageThatDidNotArrive) {
  SimResult result = run_path_script(CollisionRule::CR3);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    ASSERT_TRUE(testing::reception_at(rounds[0], 3).is_silence());
    testing::set_reception(rounds[0], 3,
                           Reception::of(rounds[0].senders[0].message));
  });
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            (std::vector<std::string>{
                "round 1 node 3: received a message that did not arrive",
                "token 1 first-reception mismatch at node 3: result says -1, "
                "trace says 1"}));
}

TEST(AuditTamper, CollisionNotificationWithoutCollision) {
  SimResult result = run_path_script(CollisionRule::CR2);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    ASSERT_TRUE(testing::reception_at(rounds[0], 3).is_silence());
    testing::set_reception(rounds[0], 3, Reception::collision());
  });
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR2).violations,
            std::vector<std::string>{
                "round 1 node 3: collision notification without a collision"});
}

TEST(AuditTamper, NonSenderReceivedOneOfSeveral) {
  SimResult result = run_path_script(CollisionRule::CR3);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    SparseRound& round2 = rounds[1];
    ASSERT_EQ(round2.senders.size(), 2u);
    ASSERT_TRUE(testing::reception_at(round2, 1).is_silence());
    testing::set_reception(round2, 1,
                           Reception::of(round2.senders[0].message));
  });
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            std::vector<std::string>{
                "round 2 node 1: non-sender received one of several "
                "messages under CR3"});
}

TEST(AuditTamper, DuplicateReachEntries) {
  SimResult result = run_path_script(CollisionRule::CR3);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    std::vector<NodeId> reach = testing::reach_of(rounds[0], 0);
    ASSERT_FALSE(reach.empty());
    reach.push_back(reach.front());
    testing::set_reach(rounds[0], 0, reach);
  });
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            (std::vector<std::string>{
                "round 1 node 0: duplicate reach entries",
                "round 1 node 1: non-sender received one of several messages "
                "under CR3"}));
}

TEST(AuditTamper, TokenTransmittedWithoutHoldingIt) {
  SimResult result = run_path_script(CollisionRule::CR3);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    SparseRound::Sender& sender = rounds[1].senders[1];
    ASSERT_EQ(sender.node, 2);
    ASSERT_EQ(sender.message.token, kNoToken);
    sender.message.token = kBroadcastToken;
  });
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            (std::vector<std::string>{
                "round 2 node 2: transmitted a token without holding it",
                "round 2 node 2: received a message that did not arrive",
                "round 2 node 3: received a message that did not arrive"}));
}

TEST(AuditTamper, CollisionHeardAsSilence) {
  SimResult result = run_path_script(CollisionRule::CR2);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    ASSERT_TRUE(testing::reception_at(rounds[1], 1).is_collision());
    testing::set_reception(rounds[1], 1, Reception::silence());
  });
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR2).violations,
            std::vector<std::string>{
                "round 2 node 1: heard silence despite a collision under CR2"});
}

TEST(AuditTamper, SenderReceivedAnotherSendersMessage) {
  SimResult result = run_clique_script(CollisionRule::CR3);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    ASSERT_EQ(rounds[0].senders.size(), 2u);
    testing::set_reception(rounds[0], 0,
                           Reception::of(rounds[0].senders[1].message));
  });
  EXPECT_EQ(audit_clique_script(result, CollisionRule::CR3).violations,
            std::vector<std::string>{
                "round 1 node 0: sender received a message other than its "
                "own"});
}

TEST(AuditTamper, SenderHeardItsOwnMessageDespiteCollisionUnderCR1) {
  // CR1 senders collide too.
  SimResult result = run_clique_script(CollisionRule::CR1);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    ASSERT_TRUE(testing::reception_at(rounds[0], 0).is_collision());
    testing::set_reception(rounds[0], 0,
                           Reception::of(rounds[0].senders[0].message));
  });
  EXPECT_EQ(audit_clique_script(result, CollisionRule::CR1).violations,
            std::vector<std::string>{
                "round 1 node 0: sender received one of several messages "
                "under CR1"});
}

TEST(AuditTamper, SenderHeardCollisionUnderCR2) {
  // Under CR2 a sender hears its own message, never top.
  SimResult result = run_clique_script(CollisionRule::CR2);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    ASSERT_TRUE(testing::reception_at(rounds[0], 0).is_message());
    testing::set_reception(rounds[0], 0, Reception::collision());
  });
  EXPECT_EQ(audit_clique_script(result, CollisionRule::CR2).violations,
            std::vector<std::string>{
                "round 1 node 0: sender heard collision notification under "
                "CR2"});
}

TEST(AuditTamper, RelabelledRound) {
  // Round 1 relabelled as round 2, with coverage claims that match the
  // label: only the numbering gives it away.
  SimResult result = run_path_script(CollisionRule::CR3);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    rounds[0].round = 2;
  });
  result.first_token[1] = result.token_first[0][1] = 2;
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            std::vector<std::string>{"trace round 1 is numbered 2"});
}

TEST(AuditTamper, MissingRound) {
  SimResult result = run_path_script(CollisionRule::CR3);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    rounds.pop_back();
  });
  EXPECT_EQ(audit_path_script(result, CollisionRule::CR3).violations,
            std::vector<std::string>{
                "trace records 1 rounds, result executed 2"});
}

TEST(AuditMutation, MutatedTracesAreRejectedOrFlagged) {
  // Seeded mutations of traced runs: bit flips, byte overwrites, truncation
  // and offset perturbation. Every round must decode with in-range ids or
  // throw std::invalid_argument, and the audit must not fail any other way
  // (the sanitizer jobs run this too). On a classical network (G = G') under
  // CR2 or CR3 the model fixes every reach list (the sender's G row) and
  // every reception (from the arrivals; a sender hears its own message), so
  // no mutant is a legal execution and the audit must report a violation or
  // throw std::invalid_argument. G'-only edges and CR4 resolutions leave the
  // adversary choices a mutant can remake legally.
  struct Run {
    DualGraph net;
    CollisionRule rule;
    bool determined;
  };
  const std::vector<Run> runs = {
      {duals::gray_zone({.n = 40, .seed = 6}), CollisionRule::CR4, false},
      {make_classical(gen::gnp_connected(40, 0.1, 6), 0), CollisionRule::CR2,
       true},
      {make_classical(gen::gnp_connected(40, 0.1, 6), 0), CollisionRule::CR3,
       true},
  };
  StreamRng rng(0x7ACE);
  for (const Run& run : runs) {
    const NodeId n = run.net.node_count();
    BernoulliAdversary adversary(0.3, 5);
    SimConfig config;
    config.rule = run.rule;
    config.max_rounds = 400;
    config.stop_on_completion = false;
    config.trace = TraceLevel::Compressed;
    const SimResult clean = run_broadcast(
        run.net, make_harmonic_factory(n), adversary, config);
    ASSERT_TRUE(audit::audit_execution(run.net, clean, run.rule).ok);

    for (int i = 0; i < 300; ++i) {
      SimResult result = clean;
      std::vector<std::uint8_t>& blob = result.trace.blob;
      const std::size_t at = rng.below(blob.size());
      switch (rng.below(4)) {
        case 0:
          blob[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
          break;
        case 1:
          blob[at] = static_cast<std::uint8_t>(blob[at] + 1 + rng.below(255));
          break;
        case 2:
          blob.resize(at);
          break;
        default: {
          std::vector<std::uint64_t>& offsets = result.trace.blob_offsets;
          std::uint64_t& offset = offsets[rng.below(offsets.size())];
          offset += 1 + rng.below(16);
          if (rng.bernoulli(0.5)) offset -= 17;  // may wrap below zero
          break;
        }
      }
      const std::string label =
          to_string(run.rule) + " mutant " + std::to_string(i);
      const auto in_range = [n](NodeId v) { return v >= 0 && v < n; };
      SparseRound round;
      for (std::size_t r = 0; r < result.trace.compressed_rounds(); ++r) {
        try {
          result.trace.decode_round(r, n, round);
        } catch (const std::invalid_argument&) {
          continue;
        }
        for (const SparseRound::Sender& s : round.senders) {
          EXPECT_TRUE(in_range(s.node)) << label;
        }
        for (const NodeId v : round.reached) EXPECT_TRUE(in_range(v)) << label;
        for (const SparseRound::Heard& h : round.receptions) {
          EXPECT_TRUE(in_range(h.node)) << label;
        }
      }
      try {
        const auto report = audit::audit_execution(run.net, result, run.rule);
        if (run.determined) {
          EXPECT_FALSE(report.ok) << label;
        }
      } catch (const std::invalid_argument&) {
      }
      // The one-chunk report, or throw, at every chunk count.
      const std::string one = testing::audit_outcome(run.net, result,
                                                     run.rule, 1);
      for (const std::size_t chunks : testing::kAuditCuts) {
        EXPECT_EQ(testing::audit_outcome(run.net, result, run.rule, chunks),
                  one)
            << label << " at " << chunks << " chunks";
      }
    }
  }
}

TEST(AuditChunks, TokenSentInOneChunkAndFirstReceivedInALaterOne) {
  // Path 0-1-2-3 over 12 rounds of similar size: node 0 sends every round,
  // node 2 in round 6 and node 1 in round 10, which is when node 2 first
  // receives the token. Round 6's message is edited to carry the token, so
  // node 2 sends it four rounds before it holds it (the receptions keep the
  // message that was sent). Cut in 3 or 7 chunks, rounds 6 and 10 fall in
  // different chunks after the first: the check is deferred, and fails only
  // against the chunks before it.
  const DualGraph net = make_classical(gen::path(4), 0);
  BenignAdversary adversary;
  SimConfig config;
  config.rule = CollisionRule::CR3;
  config.start = StartRule::Synchronous;
  config.max_rounds = 12;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  std::set<Round> every_round;
  for (Round r = 1; r <= 12; ++r) every_round.insert(r);
  SimResult result = run_broadcast(
      net,
      testing::scripted_factory({{0, every_round}, {1, {10}}, {2, {6}}}),
      adversary, config);
  ASSERT_EQ(result.token_first[0][2], 10);
  tamper(result, [](std::vector<SparseRound>& rounds) {
    SparseRound& round6 = rounds[5];
    ASSERT_EQ(round6.senders.size(), 2u);
    Message& sent = round6.senders[1].message;
    ASSERT_EQ(round6.senders[1].node, 2);
    ASSERT_EQ(sent.token, kNoToken);
    sent.token = kBroadcastToken;
  });
  EXPECT_EQ(testing::audit_every_cut(net, result, CollisionRule::CR3)
                .violations,
            (std::vector<std::string>{
                "round 6 node 2: transmitted a token without holding it",
                "round 6 node 2: received a message that did not arrive",
                "round 6 node 3: received a message that did not arrive"}));
}

}  // namespace
}  // namespace dualrad
