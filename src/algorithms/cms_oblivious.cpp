#include "algorithms/cms_oblivious.hpp"

#include <algorithm>

#include "algorithms/scheduled.hpp"
#include "selectors/kautz_singleton.hpp"

namespace dualrad {

ProcessFactory make_cms_oblivious_factory(NodeId n,
                                          const CmsObliviousOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "cms oblivious needs n >= 2");
  DUALRAD_REQUIRE(options.delta >= 1, "delta (known in-degree bound) required");
  const NodeId k = std::min<NodeId>(n, options.delta + 1);
  const SsfFamily family = options.provider ? options.provider(n, k)
                                            : kautz_singleton_ssf(n, k);
  return make_scheduled_factory(n, family);
}

}  // namespace dualrad
