#pragma once

#include "core/simulator.hpp"

/// \file reference_engine.hpp
/// The dense O(n)-per-round round kernel: the behavioral reference for the
/// sparse CSR kernel in simulator.cpp. Both run on the same execution frame
/// (core/execution.hpp), so they differ only in the round itself.
///
/// Per round it scans every node: polls awake processes, clears every
/// arrival vector, resolves every reception, and delivers to every process.
/// That is simple and obviously faithful to Section 2.1 — and exactly what
/// tests/test_engine_equivalence.cpp holds the production kernel to:
/// `run_broadcast` and `run_broadcast_reference` must return bit-identical
/// SimResults for every network, algorithm, adversary, and config.
///
/// Not for production use: the CSR kernel is asymptotically faster and the
/// default everywhere (campaign, benches, tools). It has no telemetry.

namespace dualrad {

/// One execution under the dense reference kernel. Same contract as
/// run_broadcast, except that SimConfig::telemetry must be null (throws
/// std::invalid_argument otherwise).
[[nodiscard]] SimResult run_broadcast_reference(const DualGraph& net,
                                                const ProcessFactory& factory,
                                                Adversary& adversary,
                                                const SimConfig& config);

}  // namespace dualrad
