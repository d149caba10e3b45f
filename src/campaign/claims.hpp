#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/types.hpp"

/// \file claims.hpp
/// The paper's claims as one checked table. Each claim names its anchor (a
/// Table 1 or Table 2 cell, a theorem or a lemma), the statistic it
/// measures, and the relation every measured point must have to its bound.
/// Simulator points are scenario specs run through run_campaign at master
/// seed 1 under the spec's own name, so `dualrad_campaign --filter=SPEC
/// --trials=T` reproduces each one; the lower-bound executors, the Lemma 1
/// comparison and the SSF-provider runs are direct library calls.

namespace dualrad::campaign {

enum class Relation { AtMost, AtLeast, Equal };

/// One measured point of a claim. A run that never completes measures
/// +infinity: it breaks an AtMost bound and meets an AtLeast one (a stalled
/// lower-bound construction is a stronger witness). A run that is invalid
/// measures NaN, which meets no bound.
struct ClaimPoint {
  NodeId n = 0;  ///< node count of the point's own network
  double measured = 0.0;
  double bound = 0.0;
  std::string repro;  ///< one line that reproduces `measured`
};

struct Claim {
  std::string anchor;     ///< where the paper states it
  std::string statistic;  ///< what a point measures, against which bound
  Relation relation = Relation::AtMost;
  std::function<std::vector<ClaimPoint>()> measure{};
};

[[nodiscard]] bool holds(Relation relation, const ClaimPoint& point);

struct ClaimCheck {
  std::size_t points = 0;
  std::vector<ClaimPoint> broken;
};

/// Measure every claim and print each of its points against its bound to
/// `out`, then the repro of every broken point and a "K of N claim points
/// hold" line.
[[nodiscard]] ClaimCheck check_claims(const std::vector<Claim>& claims,
                                      std::ostream& out);

/// The table: every claim of the paper the tree reproduces, at n <= 257.
[[nodiscard]] std::vector<Claim> paper_claims();

}  // namespace dualrad::campaign
