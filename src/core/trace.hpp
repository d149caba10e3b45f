#pragma once

#include <span>
#include <vector>

#include "core/message.hpp"
#include "core/reception.hpp"
#include "core/types.hpp"

/// \file trace.hpp
/// Execution traces: `TraceLevel::Compressed` records, per round, the
/// senders, each sender's realized reach (reliable + adversary-chosen
/// unreliable), and every node's reception — enough to replay and audit an
/// execution — delta/varint-encoded into one byte blob. Sender and reception
/// node ids are stored as deltas off the previous id (both lists are
/// ascending), reach lists as zigzag deltas, and silence receptions — the
/// overwhelming majority at sparse densities — are omitted entirely. The
/// execution frame streams each round onto the blob straight from its round
/// state (CompressedRound), and Trace::decode_round yields it back as a
/// SparseRound: the senders with their reach lists, and the non-silence
/// receptions. Encoding and decoding a round cost O(senders + deliveries),
/// not O(n), and memory scales with arrivals, not with nodes x rounds, which
/// is what lets audits run past 10^4 nodes inside the CI memory gate.

namespace dualrad {

/// None records nothing; Compressed records every round.
enum class TraceLevel : std::uint8_t { None, Compressed };

/// One traced round in sparse form, as Trace::decode_round yields it.
/// Senders are in ascending node order, each with its reach list (the nodes
/// its message reached, the sender itself excluded); receptions lists only
/// the non-silence ones, in ascending node order — every other node heard
/// silence. For a process still asleep (async start) a reception is what it
/// *would* have received; a Message reception is what activated it.
struct SparseRound {
  struct Sender {
    NodeId node = kInvalidNode;
    Message message{};
    /// The sender's reach is reached[reach_begin, reach_end).
    std::size_t reach_begin = 0;
    std::size_t reach_end = 0;
  };
  struct Heard {
    NodeId node = kInvalidNode;
    Reception reception{};
  };

  Round round = 0;
  std::vector<Sender> senders{};
  std::vector<NodeId> reached{};
  std::vector<Heard> receptions{};

  [[nodiscard]] std::span<const NodeId> reach(const Sender& s) const {
    return std::span<const NodeId>(reached).subspan(
        s.reach_begin, s.reach_end - s.reach_begin);
  }
  /// Empty the lists, keeping their capacity.
  void clear() {
    senders.clear();
    reached.clear();
    receptions.clear();
  }
};

struct Trace {
  TraceLevel level = TraceLevel::None;

  /// Delta/varint-encoded rounds, one byte range per round.
  /// `blob_offsets[i]` is where round i's encoding starts (its end is the
  /// next offset, or blob.size() for the last round). The execution frame
  /// (core/execution.hpp) streams every round onto it through
  /// CompressedRound, so the blob is bit-identical across engines and
  /// thread counts.
  std::vector<std::uint8_t> blob{};
  std::vector<std::uint64_t> blob_offsets{};

  [[nodiscard]] std::size_t compressed_rounds() const {
    return blob_offsets.size();
  }
  /// Decode round `index` (0-based) into `out`, reusing its buffers. Node
  /// ids are checked against the n-node network: an index or byte range
  /// outside the blob, a sender, reach target or reception out of range, an
  /// id list out of ascending order, an unknown reception kind, or a
  /// truncated or overlong round throws std::invalid_argument.
  void decode_round(std::size_t index, NodeId n, SparseRound& out) const;
};

/// Appends one round to a trace's blob, in blob order: construct it with
/// the round and its sender count, call sender() once per sender in
/// ascending node order, then receptions() once.
class CompressedRound {
 public:
  CompressedRound(Trace& trace, Round round, std::size_t sender_count);

  /// The sender's reach is `reliable` followed by `extras`.
  void sender(NodeId node, const Message& message,
              std::span<const NodeId> reliable,
              std::span<const NodeId> extras);
  /// The round's receptions: node v's is at[v], for each v of `nodes`
  /// (ascending, every node with an arrival); silence is not stored.
  void receptions(std::span<const NodeId> nodes,
                  std::span<const Reception> at);

 private:
  std::vector<std::uint8_t>& blob_;
  std::int64_t prev_ = 0;
};

}  // namespace dualrad
