#pragma once

#include "algorithms/decay.hpp"
#include "core/process.hpp"
#include "mac/abstract_mac.hpp"

/// \file decay_mac.hpp
/// DecayMac: a concrete abstract-MAC-layer implementation that runs
/// Bar-Yehuda-Goldreich-Itai Decay as the contention manager over the dual
/// graph round engine.
///
/// The layer broadcasts one client message at a time. While a message is on
/// the air, the hosting process transmits it in round r with Decay's
/// probability, decay_probability(r, phase) = 2^{-((r-1) mod phase)}, drawn
/// from the same randomness stream as algorithms/decay.cpp, so that
/// single-token BMMB-over-DecayMac reproduces plain Decay transmissions
/// exactly until a run expires (the regression cross-check in
/// tests/test_mac.cpp relies on this). A run lasts as many phases as a phase
/// has rounds, ceil(log2 n) + 1 (decay_phase_length); when it ends the layer
/// delivers the ack and starts the next queued message. There is no feedback
/// channel in the radio model, so the ack is time-triggered — the standard
/// construction for Decay-based MAC layers.
///
/// Measured f_ack: the layer records the latency (bcast round -> ack round,
/// queue wait included) of every ack and exports count/max/sum through
/// Process::final_metrics under the kMacAck* names below. Measured f_prog
/// is reconstructed globally from SimResult::token_first (mac_latency.hpp).

namespace dualrad::mac {

/// Metric names DecayMac exports via Process::final_metrics.
inline constexpr const char* kMacAckCountMetric = "mac.acks";
inline constexpr const char* kMacAckMaxMetric = "mac.ack_max";
inline constexpr const char* kMacAckSumMetric = "mac.ack_sum";
/// Messages handed to bcast() but not acked when the execution ended.
inline constexpr const char* kMacPendingMetric = "mac.pending";

/// Rounds from the start of a message's run to its ack.
[[nodiscard]] Round decay_mac_run_length(NodeId n);

/// Process factory hosting `client_factory`'s clients over DecayMac.
[[nodiscard]] ProcessFactory make_decay_mac_factory(
    NodeId n, MacClientFactory client_factory);

}  // namespace dualrad::mac
