// The paper's claims as one checked table (src/campaign/claims.hpp): prints
// every point against its bound and a one-line repro for each broken one.
// Exit 0 when every point holds, 3 when one breaks, 1 on an error.

#include <exception>
#include <iostream>

#include "campaign/claims.hpp"

int main() {
  try {
    const dualrad::campaign::ClaimCheck check = dualrad::campaign::check_claims(
        dualrad::campaign::paper_claims(), std::cout);
    return check.broken.empty() ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "bench_claims: " << e.what() << "\n";
    return 1;
  }
}
