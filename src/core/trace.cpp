#include "core/trace.hpp"

#include <bit>
#include <string>

/// \file trace.cpp
/// The trace codec. LEB128 varints; signed fields (origin can be -1, reach
/// lists are unsorted) go through zigzag. Node id lists that the engines
/// emit in ascending order (senders, reception touchers) are stored as
/// unsigned 32-bit deltas off the previous id. Silence receptions are not
/// encoded at all — a node the round does not list heard silence — which is
/// where the compression wins: at sparse densities almost every node hears
/// silence almost every round.
///
/// The encoder writes through a raw pointer: each call grows the blob by
/// the worst case of what it writes, fills it, then trims the blob to the
/// bytes written.

namespace dualrad {

namespace {

/// Worst-case varint lengths: a 32-bit value (id delta, zigzagged token or
/// origin, reach delta) and a 64-bit one (count, round, round tag, payload).
constexpr std::size_t kMax32 = 5;
constexpr std::size_t kMax64 = 10;
constexpr std::size_t kMaxMessage = 2 * kMax32 + 2 * kMax64;

/// Grow `blob` by `worst` bytes and return where they start. Capacity grows
/// to powers of two, as push_back's doubling does (see trace.hpp).
[[nodiscard]] std::uint8_t* open_bytes(std::vector<std::uint8_t>& blob,
                                       std::size_t worst) {
  const std::size_t size = blob.size();
  if (size + worst > blob.capacity()) blob.reserve(std::bit_ceil(size + worst));
  blob.resize(size + worst);
  return blob.data() + size;
}

/// Trim `blob` to end where writing stopped.
void close_bytes(std::vector<std::uint8_t>& blob, const std::uint8_t* end) {
  blob.resize(static_cast<std::size_t>(end - blob.data()));
}

void put_varint(std::uint8_t*& out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
}

/// An ascending id list's next entry, as its delta off the previous id.
void put_id_delta(std::uint8_t*& out, NodeId id, std::int64_t prev) {
  put_varint(out, static_cast<std::uint32_t>(id - prev));
}

[[nodiscard]] std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// A varint of two bytes or more, with every check.
[[nodiscard]] std::uint64_t get_long_varint(const std::uint8_t*& p,
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
      // The encoder continues only while the value is at least 0x80, so a
      // last byte of 0 is a second spelling of a shorter varint.
      DUALRAD_REQUIRE(byte != 0, "malformed varint in compressed trace");
      return v;
    }
    shift += 7;
    DUALRAD_REQUIRE(shift < 64, "malformed varint in compressed trace");
  }
}

/// Most varints are one byte (id deltas, small counts, tokens): those are
/// read inline, without entering get_long_varint's loop.
[[nodiscard]] inline std::uint64_t get_varint(const std::uint8_t*& p,
                                              const std::uint8_t* end) {
  if (p != end && *p < 0x80) return *p++;
  return get_long_varint(p, end);
}

void put_message(std::uint8_t*& out, const Message& m) {
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
  std::uint8_t* out = open_bytes(blob_, 2 * kMax64);
  put_varint(out, static_cast<std::uint64_t>(round));
  put_varint(out, sender_count);
  close_bytes(blob_, out);
}

void CompressedRound::sender(NodeId node, const Message& message,
                             std::span<const NodeId> reliable,
                             std::span<const NodeId> extras) {
  const std::size_t reach = reliable.size() + extras.size();
  std::uint8_t* out =
      open_bytes(blob_, kMax32 + kMaxMessage + kMax64 + reach * kMax32);
  put_id_delta(out, node, prev_);
  prev_ = node;
  put_message(out, message);
  put_varint(out, reach);
  std::int64_t rprev = 0;
  for (const std::span<const NodeId> part : {reliable, extras}) {
    for (const NodeId v : part) {
      put_varint(out, zigzag(v - rprev));
      rprev = v;
    }
  }
  close_bytes(blob_, out);
}

void CompressedRound::receptions(std::span<const NodeId> nodes,
                                 std::span<const Reception> at) {
  std::uint64_t heard = 0;
  for (const NodeId v : nodes) {
    if (!at[static_cast<std::size_t>(v)].is_silence()) ++heard;
  }
  std::uint8_t* out =
      open_bytes(blob_, kMax64 + heard * (kMax32 + 1 + kMaxMessage));
  put_varint(out, heard);
  std::int64_t prev = 0;
  for (const NodeId v : nodes) {
    const Reception& r = at[static_cast<std::size_t>(v)];
    if (r.is_silence()) continue;
    put_id_delta(out, v, prev);
    prev = v;
    *out++ = static_cast<std::uint8_t>(r.kind);
    if (r.is_message()) put_message(out, *r.message);
  }
  close_bytes(blob_, out);
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
