#include "algorithms/harmonic.hpp"

#include <cmath>

#include "algorithms/coin_schedule.hpp"

namespace dualrad {

Round harmonic_T(NodeId n, const HarmonicOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "harmonic broadcast needs n >= 2");
  if (options.T > 0) return options.T;
  DUALRAD_REQUIRE(options.eps > 0 && options.constant > 0,
                  "eps and constant must be positive");
  const double t = options.constant *
                   std::log(static_cast<double>(n) / options.eps);
  return std::max<Round>(1, static_cast<Round>(std::ceil(t)));
}

double harmonic_probability(Round t, Round token_round, Round T) {
  if (token_round == kNever || t <= token_round) return 0.0;
  const Round step = (t - token_round - 1) / T;
  return 1.0 / static_cast<double>(1 + step);
}

Round harmonic_round_bound(NodeId n, Round T) {
  double h = 0.0;
  // lint: fp-ok (serial loop in fixed 1..n order, never sharded)
  for (NodeId i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
  return static_cast<Round>(
      std::ceil(2.0 * static_cast<double>(n) * static_cast<double>(T) * h));
}

ProcessFactory make_harmonic_factory(NodeId n, const HarmonicOptions& options) {
  const Round T = harmonic_T(n, options);
  return make_coin_factory(n, {}, [T](Round round, Round start) {
    return harmonic_probability(round, start, T);
  });
}

}  // namespace dualrad
