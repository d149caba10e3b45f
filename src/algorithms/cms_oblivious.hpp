#pragma once

#include "core/process.hpp"
#include "selectors/ssf.hpp"

/// \file cms_oblivious.hpp
/// The dynamic-fault oblivious baseline of Clementi, Monti, Silvestri [11],
/// discussed in Section 2.2: informed nodes cycle forever through a fixed
/// (n, min(n, Delta+1))-strongly-selective family, where Delta is a known
/// upper bound on the in-degree of G'.
///
/// The family is run as a TDMA schedule with a set of senders per slot
/// (scheduled.hpp): set i sends in rounds i+1, i+1+|F|, ... The provider
/// must return a family over exactly the n process ids.
///
/// Rationale: an uncovered node v has at most Delta informed G'-in-neighbors
/// whose transmissions can reach (or jam) it; once the informed set is
/// stable for a full iteration, the family isolates the reliable neighbor
/// that must deliver to v. With the paper's selective families this costs
/// O(n min{n, Delta log n}) rounds; built on our SSFs the guarantee is
/// O(n min{n, Delta^2 log^2 n}) — same regime, weaker polynomial, which is
/// exactly the trade Section 2.2 describes: it beats Strong Select when
/// Delta is small but requires knowing Delta, while Strong Select needs no
/// topology knowledge.

namespace dualrad {

struct CmsObliviousOptions {
  /// Known upper bound on the in-degree of G'. Mandatory knowledge for this
  /// algorithm (Section 2.2); use net.g_prime_csr().max_in_degree().
  NodeId delta = 0;
  SsfProvider provider = nullptr;  ///< default: Kautz-Singleton
};

[[nodiscard]] ProcessFactory make_cms_oblivious_factory(
    NodeId n, const CmsObliviousOptions& options);

}  // namespace dualrad
