#pragma once

#include <vector>

#include "core/message.hpp"
#include "core/reception.hpp"
#include "core/types.hpp"

/// \file trace.hpp
/// Execution traces. `TraceLevel::Full` records, per round, the senders, each
/// sender's realized reach (reliable + adversary-chosen unreliable), and the
/// reception of every node — enough to replay and audit an execution.
/// `Counts` keeps only the per-round sender/collision counters (O(rounds)
/// memory).
///
/// `Compressed` keeps the *complete* audit-grade history of `Full`, but
/// delta/varint-encoded into one byte blob: sender and toucher node ids are
/// stored as deltas off the previous id (both lists are ascending), reach
/// lists as zigzag deltas, and silence receptions — the overwhelming
/// majority at sparse densities — are omitted entirely because silence is
/// the decode default. Decoding a round reproduces the `Full`-mode
/// RoundRecord *exactly* (value-equal, pinned in tests), so audits consume
/// either level transparently; memory scales with arrivals, not with
/// nodes x rounds, which is what lets audits run past 10^4 nodes inside the
/// CI memory gate.

namespace dualrad {

enum class TraceLevel : std::uint8_t { None, Counts, Full, Compressed };

struct SenderRecord {
  NodeId node = kInvalidNode;
  Message message{};
  /// Nodes this message reached (excluding the sender itself, which is always
  /// reached), reliable and unreliable combined.
  std::vector<NodeId> reached{};
};

struct RoundRecord {
  Round round = 0;
  std::vector<SenderRecord> senders{};
  /// reception[node] — what the process at each node received. For sleeping
  /// processes (async start, not yet activated) this is what they *would*
  /// have received; a Message reception is what activated them.
  std::vector<Reception> receptions{};
};

struct Trace {
  TraceLevel level = TraceLevel::None;
  std::vector<RoundRecord> rounds{};

  /// Round-indexed counts (filled at every level but None).
  std::vector<std::uint32_t> senders_per_round{};
  std::vector<std::uint32_t> collisions_per_round{};

  /// Compressed mode: delta/varint-encoded round records, one byte range per
  /// round. `blob_offsets[i]` is where round i's encoding starts (its end is
  /// the next offset, or blob.size() for the last round). The execution
  /// frame (core/execution.hpp) encodes the same RoundRecord it stores in
  /// Full mode through append_compressed, so the blob is bit-identical
  /// across engines and thread counts.
  std::vector<std::uint8_t> blob{};
  std::vector<std::uint64_t> blob_offsets{};

  [[nodiscard]] std::size_t compressed_rounds() const {
    return blob_offsets.size();
  }
  /// Encode one round record onto the blob (Compressed mode).
  void append_compressed(const RoundRecord& record);
  /// Decode round `index` (0-based) into `out`. `n` sizes out.receptions;
  /// nodes without an encoded reception decode to silence. The result is
  /// value-equal to the RoundRecord Full mode would have stored.
  void decode_compressed(std::size_t index, NodeId n, RoundRecord& out) const;
};

}  // namespace dualrad
