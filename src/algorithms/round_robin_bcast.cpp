#include "algorithms/round_robin_bcast.hpp"

#include "algorithms/scheduled.hpp"

namespace dualrad {

ProcessFactory make_round_robin_factory(NodeId n) {
  DUALRAD_REQUIRE(n >= 1, "round robin needs n >= 1");
  // Slot s covers rounds s + 1 (mod n), so id (s + 1) mod n sends exactly in
  // the rounds congruent to its id.
  std::vector<ProcessId> slots;
  slots.reserve(static_cast<std::size_t>(n));
  for (NodeId s = 0; s < n; ++s) slots.push_back((s + 1) % n);
  return make_scheduled_factory(n, std::move(slots));
}

}  // namespace dualrad
