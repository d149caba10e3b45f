#include "core/trace.hpp"

#include <string>

/// \file trace.cpp
/// The trace codec. LEB128 varints; signed fields (origin can be -1, reach
/// lists are unsorted) go through zigzag. Node id lists that the engines
/// emit in ascending order (senders, reception touchers) are stored as
/// unsigned deltas off the previous id. Silence receptions are not
/// encoded at all — a node the round does not list heard silence — which is
/// where the compression wins: at sparse densities almost every node hears
/// silence almost every round.

namespace dualrad {

namespace {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

[[nodiscard]] std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

[[nodiscard]] std::uint64_t get_varint(const std::uint8_t*& p,
                                       const std::uint8_t* end) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (true) {
    DUALRAD_REQUIRE(p != end, "truncated compressed trace");
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The tenth byte holds bit 63 only: anything more is past 64 bits.
      DUALRAD_REQUIRE(shift < 63 || byte <= 1,
                      "malformed varint in compressed trace");
      return v;
    }
    shift += 7;
    DUALRAD_REQUIRE(shift < 64, "malformed varint in compressed trace");
  }
}

void put_message(std::vector<std::uint8_t>& out, const Message& m) {
  put_varint(out, zigzag(m.token));
  put_varint(out, zigzag(m.origin));
  put_varint(out, zigzag(m.round_tag));
  put_varint(out, m.payload);
}

[[nodiscard]] Message get_message(const std::uint8_t*& p,
                                  const std::uint8_t* end) {
  Message m;
  m.token = static_cast<TokenId>(unzigzag(get_varint(p, end)));
  m.origin = static_cast<ProcessId>(unzigzag(get_varint(p, end)));
  m.round_tag = static_cast<Round>(unzigzag(get_varint(p, end)));
  m.payload = get_varint(p, end);
  return m;
}

/// The next id of an ascending node list, stored as a delta off `prev`
/// (the first off 0): checked against the n-node network, and strictly
/// ascending after the first.
[[nodiscard]] NodeId get_next_id(const std::uint8_t*& p,
                                 const std::uint8_t* end, NodeId prev,
                                 bool first, NodeId n, const char* what) {
  const std::uint64_t delta = get_varint(p, end);
  DUALRAD_REQUIRE(first || delta > 0, std::string("compressed trace ") +
                                          what + " ids not ascending");
  DUALRAD_REQUIRE(delta < static_cast<std::uint64_t>(n - prev),
                  std::string("compressed trace ") + what + " out of range");
  return prev + static_cast<NodeId>(delta);
}

}  // namespace

CompressedRound::CompressedRound(Trace& trace, Round round,
                                 std::size_t sender_count)
    : blob_(trace.blob) {
  trace.blob_offsets.push_back(blob_.size());
  put_varint(blob_, static_cast<std::uint64_t>(round));
  put_varint(blob_, sender_count);
}

void CompressedRound::sender(NodeId node, const Message& message,
                             std::span<const NodeId> reliable,
                             std::span<const NodeId> extras) {
  put_varint(blob_, static_cast<std::uint64_t>(node - prev_));
  prev_ = node;
  put_message(blob_, message);
  put_varint(blob_, reliable.size() + extras.size());
  std::int64_t rprev = 0;
  for (const std::span<const NodeId> part : {reliable, extras}) {
    for (const NodeId v : part) {
      put_varint(blob_, zigzag(v - rprev));
      rprev = v;
    }
  }
}

void CompressedRound::receptions(std::span<const NodeId> nodes,
                                 std::span<const Reception> at) {
  std::uint64_t heard = 0;
  for (const NodeId v : nodes) {
    if (!at[static_cast<std::size_t>(v)].is_silence()) ++heard;
  }
  put_varint(blob_, heard);
  std::int64_t prev = 0;
  for (const NodeId v : nodes) {
    const Reception& r = at[static_cast<std::size_t>(v)];
    if (r.is_silence()) continue;
    put_varint(blob_, static_cast<std::uint64_t>(v - prev));
    prev = v;
    blob_.push_back(static_cast<std::uint8_t>(r.kind));
    if (r.is_message()) put_message(blob_, *r.message);
  }
}

void Trace::decode_round(std::size_t index, NodeId n, SparseRound& out) const {
  DUALRAD_REQUIRE(index < blob_offsets.size(),
                  "compressed round index out of range");
  const std::uint64_t begin = blob_offsets[index];
  const std::uint64_t stop =
      index + 1 < blob_offsets.size() ? blob_offsets[index + 1] : blob.size();
  DUALRAD_REQUIRE(begin <= stop && stop <= blob.size(),
                  "compressed round offsets outside the blob");
  const std::uint8_t* p = blob.data() + begin;
  const std::uint8_t* const end = blob.data() + stop;

  out.clear();
  out.round = static_cast<Round>(get_varint(p, end));

  // Counts are not trusted for reserving: every entry consumes at least one
  // byte, so a corrupt count runs into the truncation check instead.
  const std::uint64_t sender_count = get_varint(p, end);
  NodeId node = 0;
  for (std::uint64_t i = 0; i < sender_count; ++i) {
    node = get_next_id(p, end, node, i == 0, n, "sender");
    const Message message = get_message(p, end);
    const std::uint64_t reach_count = get_varint(p, end);
    const std::size_t begin = out.reached.size();
    NodeId v = 0;
    for (std::uint64_t j = 0; j < reach_count; ++j) {
      // Unsigned wraparound makes a negative delta land back in range.
      const std::uint64_t next = static_cast<std::uint64_t>(v) +
                                 static_cast<std::uint64_t>(
                                     unzigzag(get_varint(p, end)));
      DUALRAD_REQUIRE(next < static_cast<std::uint64_t>(n),
                      "compressed trace reach target out of range");
      v = static_cast<NodeId>(next);
      out.reached.push_back(v);
    }
    out.senders.push_back({node, message, begin, out.reached.size()});
  }

  const std::uint64_t heard = get_varint(p, end);
  node = 0;
  for (std::uint64_t i = 0; i < heard; ++i) {
    node = get_next_id(p, end, node, i == 0, n, "reception");
    DUALRAD_REQUIRE(p != end, "truncated compressed trace");
    const auto kind = static_cast<ReceptionKind>(*p++);
    if (kind == ReceptionKind::Message) {
      out.receptions.push_back({node, Reception::of(get_message(p, end))});
    } else {
      DUALRAD_REQUIRE(kind == ReceptionKind::Collision,
                      "malformed reception kind in compressed trace");
      out.receptions.push_back({node, Reception::collision()});
    }
  }
  DUALRAD_REQUIRE(p == end, "trailing bytes in compressed trace round");
}

}  // namespace dualrad
