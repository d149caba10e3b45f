#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/types.hpp"

/// \file jsonl.hpp
/// Key-based field scanning for the flat single-line JSON objects this
/// project exports (campaign rows, telemetry rows, serve-mode wire
/// messages). Shared by campaign/export.cpp and src/serve/.
///
/// These are deliberately not a JSON parser: every producer in this codebase
/// emits one flat object per line with a fixed key order, unquoted numeric
/// values, and scenario names restricted to a quote-free charset
/// (registry.hpp). The scanners exploit that, and require_flat_object rejects
/// anything that violates it — in particular lines produced by two writers
/// whose torn output interleaved — so a corrupt file fails loudly instead of
/// parsing as plausible garbage.

namespace dualrad::campaign::jsonl {

/// Value of `"key":` in `line`, or nullopt if the key is absent. String
/// values are returned without quotes; other values end at the next ',' or
/// '}'. Throws std::invalid_argument on an unterminated value.
[[nodiscard]] inline std::optional<std::string_view> field_opt(
    std::string_view line, std::string_view key) {
  const std::string needle = std::string("\"").append(key).append("\":");
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
    DUALRAD_REQUIRE(end != std::string_view::npos,
                    "unterminated string in JSONL line");
  } else {
    end = line.find_first_of(",}", begin);
    DUALRAD_REQUIRE(end != std::string_view::npos, "malformed JSONL line");
  }
  return line.substr(begin, end - begin);
}

/// Like field_opt but the key must be present.
[[nodiscard]] inline std::string_view field(std::string_view line,
                                            std::string_view key) {
  const std::optional<std::string_view> value = field_opt(line, key);
  DUALRAD_REQUIRE(value.has_value(),
                  "JSONL line missing key '" + std::string(key) + "'");
  return *value;
}

[[nodiscard]] inline long long to_ll(std::string_view s) {
  try {
    return std::stoll(std::string(s));
  } catch (const std::exception&) {
    throw std::invalid_argument("dualrad: non-numeric field: " +
                                std::string(s));
  }
}

[[nodiscard]] inline std::uint64_t to_u64(std::string_view s) {
  try {
    return std::stoull(std::string(s));
  } catch (const std::exception&) {
    throw std::invalid_argument("dualrad: non-numeric field: " +
                                std::string(s));
  }
}

/// Reject lines that are not exactly one flat object: must start with '{',
/// end with '}', and contain no second '{'. A second '{' is the signature of
/// two torn writes interleaving on one line — key-based scanning would
/// happily pick fields from either object, so such lines must fail loudly.
inline void require_flat_object(std::string_view line) {
  DUALRAD_REQUIRE(!line.empty() && line.front() == '{',
                  "JSONL line does not start an object: " + std::string(line));
  DUALRAD_REQUIRE(line.back() == '}',
                  "truncated JSONL line: " + std::string(line));
  DUALRAD_REQUIRE(line.find('{', 1) == std::string_view::npos,
                  "interleaved JSONL line: " + std::string(line));
}

}  // namespace dualrad::campaign::jsonl
