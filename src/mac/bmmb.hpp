#pragma once

#include <vector>

#include "core/process.hpp"
#include "graph/dual_graph.hpp"
#include "mac/decay_mac.hpp"

/// \file bmmb.hpp
/// BMMB — basic multi-message broadcast over an abstract MAC layer
/// (Ghaffari-Kantor-Lynch-Newport, PAPERS.md).
///
/// k tokens originate at k distinct source nodes (SimConfig::token_sources);
/// completion means every process holds every token. The client logic is the
/// canonical flooding rule — when a process first obtains a token, from the
/// environment or from a received message, it hands a relay for it to the
/// MAC layer — plus a liveness rule: whenever the layer goes idle, the
/// client cycles re-broadcasts of the tokens it holds. The cycling is what
/// makes completion almost-sure under benign and stochastic channels: a
/// time-triggered ack cannot certify neighborhood delivery, so relay-once
/// BMMB could strand a token. All contention management lives below the MAC
/// interface, which is the point of the decomposition.
///
/// With k = 1 and DecayMac as the layer, idle cycling closes every gap
/// between runs, so the transmission schedule is *identical* to plain Decay
/// broadcast for the entire execution — the regression cross-check
/// tests/test_mac.cpp pins this down exactly.

namespace dualrad::mac {

/// MacClientFactory for the BMMB client (reusable over any MAC layer).
[[nodiscard]] MacClientFactory make_bmmb_client_factory();

/// ProcessFactory running BMMB over DecayMac.
[[nodiscard]] ProcessFactory make_bmmb_factory(NodeId n);

/// k distinct token source nodes for `net`, deterministically spread over
/// the id space: token 1 originates at net.source(), the rest at evenly
/// spaced nodes. Suitable for SimConfig::token_sources.
[[nodiscard]] std::vector<NodeId> spread_token_sources(const DualGraph& net,
                                                       TokenId k);

}  // namespace dualrad::mac
