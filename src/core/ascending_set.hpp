#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"

/// \file ascending_set.hpp
/// A set of node ids that drains in ascending order at a cost proportional
/// to its size plus n/4096 (private to core/). One bit per node, plus one
/// summary bit per 64-node word, so a drain skips empty stretches 4096 nodes
/// at a time. The execution frame orders each round's touched nodes with it
/// for the trace, and the audit the nodes it checks: sorting a round's few
/// hundred touched nodes costs as much as the n-wide scans this replaces.

namespace dualrad {

class AscendingNodeSet {
 public:
  explicit AscendingNodeSet(std::size_t n = 0)
      : bits_((n + 63) / 64), summary_((bits_.size() + 63) / 64) {}

  /// Add v (in [0, n)); adding a member again is a no-op.
  void insert(NodeId v) {
    const auto uv = static_cast<std::size_t>(v);
    bits_[uv >> 6] |= std::uint64_t{1} << (uv & 63);
    summary_[uv >> 12] |= std::uint64_t{1} << ((uv >> 6) & 63);
  }

  /// Append the members to `out` in ascending order and empty the set.
  void drain(std::vector<NodeId>& out) {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      for (std::uint64_t words = std::exchange(summary_[s], 0); words != 0;
           words &= words - 1) {
        const std::size_t w = s * 64 + std::countr_zero(words);
        for (std::uint64_t bits = std::exchange(bits_[w], 0); bits != 0;
             bits &= bits - 1) {
          out.push_back(static_cast<NodeId>(w * 64 + std::countr_zero(bits)));
        }
      }
    }
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> summary_;
};

}  // namespace dualrad
