#pragma once

#include <cstdint>
#include <string_view>

#include "core/types.hpp"

/// \file rng.hpp
/// Deterministic, counter-based randomness.
///
/// Processes in randomized algorithms draw per-round coins from a *stateless*
/// counter-based generator keyed by (seed, round, salt). This makes
/// Process::next_action pure (idempotent within a round), which in turn makes
/// processes cheaply cloneable and executions exactly reproducible — a
/// requirement of the lower-bound replay harnesses.

namespace dualrad {

// __extension__ keeps -Wpedantic quiet: __int128 is a GCC/Clang extension,
// used only for overflow-free multiply-shift range reduction.
__extension__ typedef unsigned __int128 uint128_t;

/// SplitMix64 finalizer; a high-quality 64-bit mix.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Combine a seed with additional stream identifiers.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t a,
                                               std::uint64_t b) {
  return splitmix64(a ^ (0x9E3779B97F4A7C15ULL + (b << 6) + (b >> 2)));
}

/// FNV-1a of a name, for keying a seed stream by name (a scenario, a serve
/// worker): stable across platforms and releases, unlike std::hash.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Stateless counter-based RNG. All draws are pure functions of
/// (key, round, salt); repeated calls with the same arguments return the
/// same value.
class CounterRng {
 public:
  CounterRng() = default;
  explicit CounterRng(std::uint64_t key) : key_(key) {}

  [[nodiscard]] std::uint64_t key() const { return key_; }

  /// 64 uniform bits for (round, salt).
  [[nodiscard]] std::uint64_t bits(Round round, std::uint64_t salt = 0) const {
    std::uint64_t h = splitmix64(key_ ^ splitmix64(
        static_cast<std::uint64_t>(round) * 0xD1342543DE82EF95ULL));
    return splitmix64(h ^ (salt * 0x2545F4914F6CDD1DULL + 0x632BE59BD9B4E019ULL));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform(Round round, std::uint64_t salt = 0) const {
    return static_cast<double>(bits(round, salt) >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p) coin for (round, salt).
  [[nodiscard]] bool bernoulli(double p, Round round,
                               std::uint64_t salt = 0) const {
    return uniform(round, salt) < p;
  }

  /// Uniform integer in [0, bound). bound must be positive.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound, Round round,
                                    std::uint64_t salt = 0) const {
    DUALRAD_REQUIRE(bound > 0, "below() needs positive bound");
    // Multiply-shift; bias is negligible for the bounds used here.
    return static_cast<std::uint64_t>(
        (static_cast<uint128_t>(bits(round, salt)) * bound) >> 64);
  }

 private:
  std::uint64_t key_ = 0x853C49E6748FEA9BULL;
};

/// A tiny stateful PRNG (xorshift128+) for places where a stream is more
/// natural than a counter (e.g. graph generators, Monte Carlo drivers).
class StreamRng {
 public:
  explicit StreamRng(std::uint64_t seed = 1) {
    s0_ = splitmix64(seed);
    s1_ = splitmix64(s0_);
    if ((s0_ | s1_) == 0) s1_ = 1;
  }

  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  [[nodiscard]] double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  /// Uniform integer in [0, bound), bound > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) {
    DUALRAD_REQUIRE(bound > 0, "below() needs positive bound");
    return static_cast<std::uint64_t>(
        (static_cast<uint128_t>((*this)()) * bound) >> 64);
  }

 private:
  std::uint64_t s0_ = 0, s1_ = 0;
};

}  // namespace dualrad
