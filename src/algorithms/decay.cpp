#include "algorithms/decay.hpp"

#include <bit>
#include <cmath>

#include "algorithms/coin_schedule.hpp"

namespace dualrad {

Round decay_phase_length(NodeId n, const DecayOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "decay needs n >= 2");
  if (options.phase_length > 0) return options.phase_length;
  return static_cast<Round>(
             std::ceil(std::log2(static_cast<double>(n)))) + 1;
}

double decay_probability(Round round, Round phase) {
  const Round offset = (round - 1) % phase;
  // Exactly std::ldexp(1.0, -offset), built from the exponent bits without
  // the libm call: this sits on the per-round hot path of every informed
  // node. Offsets past 1022 fall in the denormal range.
  if (offset > 1022) return std::ldexp(1.0, -static_cast<int>(offset));
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 - offset)
                               << 52);
}

ProcessFactory make_decay_factory(NodeId n, const DecayOptions& options) {
  const Round phase = decay_phase_length(n, options);
  // Duty windows are whole phases counted from the token round, so nodes
  // beacon staggered while the probabilities stay globally aligned.
  const DutyCycle duty{.active_rounds = options.active_phases * phase,
                       .beacon_rounds = phase,
                       .beacon_period = options.rebroadcast_period * phase};
  return make_coin_factory(n, duty, [phase](Round round, Round /*start*/) {
    return decay_probability(round, phase);
  });
}

}  // namespace dualrad
