#include "algorithms/uniform_gossip.hpp"

#include "algorithms/coin_schedule.hpp"

namespace dualrad {

double uniform_gossip_p(NodeId n, const UniformGossipOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "uniform gossip needs n >= 2");
  if (options.p > 0) {
    DUALRAD_REQUIRE(options.p <= 1.0, "p must be a probability");
    return options.p;
  }
  return 1.0 / static_cast<double>(n - 1);
}

ProcessFactory make_uniform_gossip_factory(NodeId n,
                                           const UniformGossipOptions& options) {
  // The hint scan is capped: with a tiny p (say 1e-9, or 1/(n-1) at
  // n = 10^6 against a short round cap) an exact answer could cost
  // arbitrarily more than the execution it schedules. At the default p the
  // cap resolves the expected gap exactly for n <= ~4k and costs one re-ask
  // per 4096 rounds beyond that.
  constexpr Round kMaxCoins = 4096;
  return make_coin_factory<kMaxCoins>(
      n, {}, FlatProbability{uniform_gossip_p(n, options)});
}

}  // namespace dualrad
