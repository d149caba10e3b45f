#pragma once

#include <array>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "core/types.hpp"

/// \file telemetry.hpp
/// The engine telemetry layer: per-round hot-path counters, monotonic phase
/// timers, and per-shard sub-counters for the sharded parallel kernel.
///
/// Design constraints (and why they hold):
///
///  * **Strictly out-of-band.** Telemetry only *reads* quantities the round
///    loop already computed (list sizes, sink totals, shard buffers) and
///    samples a monotonic clock. It never draws from an RNG, never touches
///    process or adversary state, and has no observable effect on the
///    execution — `SimResult` is bit-identical with telemetry attached or
///    not (pinned in tests/test_engine_equivalence.cpp).
///  * **Branch-on-null when disabled.** The sparse engine guards every
///    telemetry statement (including the clock samples) behind
///    `if (config.telemetry != nullptr)`; with the default
///    `SimConfig::telemetry == nullptr` the whole layer costs one predictable
///    branch per phase. Nothing times that overhead on its own.
///  * **Deterministic shard merge.** The parallel kernel's per-shard work
///    (deposits, deliveries, replans) is folded into RoundTelemetry during
///    the engine's existing serial shard-merge, in shard order — so per-shard
///    imbalance is directly measurable and the merged totals equal the serial
///    engine's, for any thread count.
///
/// Memory is bounded: per-round samples live in a ring of the last `window`
/// rounds; everything older survives only in the running totals. The
/// Perfetto exporter (obs/perfetto_writer.hpp) emits one slice per phase per
/// ringed round plus counter tracks. Only the sparse engine reports here;
/// the dense reference engine has no telemetry.

namespace dualrad::obs {

/// Round phases of the sparse engine, in execution order.
enum class Phase : std::uint8_t {
  Poll = 0,    ///< calendar pop + next_action polling
  Adversary,   ///< view construction, choose_unreliable_reach, on_round_end
  Propagate,   ///< arrival deposits (sender self + reliable rows + extras)
  Deliver,     ///< reception computation + on_receive/on_activate delivery
  ShardMerge,  ///< serial merge of per-shard buffers (parallel kernel only)
};
inline constexpr std::size_t kPhaseCount = 5;

[[nodiscard]] const char* phase_name(Phase phase);

/// Hot-path counters of one round (and, summed, of a whole execution). All
/// increments happen on the engine thread, outside the shard workers.
struct RoundCounters {
  std::uint64_t polled = 0;           ///< processes popped off the calendar
  std::uint64_t senders = 0;          ///< processes that actually sent
  std::uint64_t deliveries = 0;       ///< arrival deposits (self + G rows + extras)
  std::uint64_t collisions = 0;       ///< observed collision events
  std::uint64_t calendar_scanned = 0; ///< calendar bucket entries scanned (incl. stale)
  std::uint64_t replans = 0;          ///< SendCalendar::plan calls
  std::uint64_t reach_appends = 0;    ///< adversary ReachSink appends
  std::uint64_t newly_covered = 0;    ///< coverage delta size after the round

  void add(const RoundCounters& o) {
    polled += o.polled;
    senders += o.senders;
    deliveries += o.deliveries;
    collisions += o.collisions;
    calendar_scanned += o.calendar_scanned;
    replans += o.replans;
    reach_appends += o.reach_appends;
    newly_covered += o.newly_covered;
  }

  friend bool operator==(const RoundCounters&, const RoundCounters&) = default;
};

/// One ringed per-round sample: counters plus per-phase wall time.
struct RoundSample {
  Round round = 0;
  RoundCounters counters{};
  std::array<std::uint64_t, kPhaseCount> phase_ns{};
};

/// Per-shard totals over the whole execution, folded in shard order during
/// the kernel's serial merge (each field is the size of a per-shard buffer
/// the merge walks anyway, so collection costs nothing on the workers).
/// Imbalance = max/mean of `touched` over shards.
struct ShardTotals {
  std::uint64_t touched = 0;   ///< nodes with >= 1 arrival in this shard
  std::uint64_t collided = 0;  ///< nodes with >= 2 arrivals in this shard
  std::uint64_t replans = 0;   ///< deferred calendar replans emitted
  /// Rounds in which this shard participated (rounds below the parallel
  /// grain run single-sharded, so shard 0's count can exceed the others').
  std::uint64_t rounds = 0;
};

/// Monotonic nanosecond clock (CLOCK_MONOTONIC; the raw value is only ever
/// differenced).
[[nodiscard]] inline std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The counter registry one execution writes into. Attach via
/// `SimConfig::telemetry`; the object must outlive the run. Not thread-safe:
/// all writes happen on the engine thread (per-shard data is folded in
/// during the serial merge).
class RoundTelemetry {
 public:
  /// `window`: per-round sample ring capacity, in rounds.
  explicit RoundTelemetry(std::size_t window = 4096);

  /// Reset and size per-execution state. Engines call this once per run.
  void begin_execution(NodeId nodes, unsigned shards);
  void end_execution();

  void begin_round(Round round);
  /// Counters of the round being executed (engine thread only).
  [[nodiscard]] RoundCounters& counters() { return current_.counters; }
  void add_phase_ns(Phase phase, std::uint64_t ns) {
    current_.phase_ns[static_cast<std::size_t>(phase)] += ns;
  }
  /// Fold one shard's round contribution, called in shard order.
  void add_shard_round(unsigned shard, std::uint64_t touched,
                       std::uint64_t collided, std::uint64_t replans);
  void end_round();

  // --- accessors -----------------------------------------------------------
  [[nodiscard]] NodeId nodes() const { return nodes_; }
  [[nodiscard]] unsigned shards() const { return shards_; }
  [[nodiscard]] Round rounds_recorded() const { return rounds_recorded_; }
  [[nodiscard]] const RoundCounters& totals() const { return totals_; }
  [[nodiscard]] std::uint64_t total_phase_ns(Phase phase) const {
    return total_phase_ns_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::uint64_t total_ns() const;
  [[nodiscard]] const std::vector<ShardTotals>& shard_totals() const {
    return shard_totals_;
  }
  [[nodiscard]] std::size_t window() const { return window_; }
  /// True iff round r's sample is still in the ring.
  [[nodiscard]] bool in_window(Round r) const {
    return r >= 1 && r <= rounds_recorded_ &&
           r + static_cast<Round>(window_) > rounds_recorded_;
  }
  [[nodiscard]] const RoundSample& sample_at(Round r) const;
  /// Ringed samples in ascending round order (the Perfetto export order).
  [[nodiscard]] std::vector<RoundSample> window_samples() const;

  /// Peak deliveries observed in any single round (whole execution).
  [[nodiscard]] std::uint64_t max_round_deliveries() const {
    return max_round_deliveries_;
  }
  [[nodiscard]] Round max_round_deliveries_round() const {
    return max_round_deliveries_round_;
  }

 private:
  std::size_t window_;
  NodeId nodes_ = 0;
  unsigned shards_ = 1;
  Round rounds_recorded_ = 0;
  RoundSample current_{};
  std::vector<RoundSample> ring_;
  RoundCounters totals_{};
  std::array<std::uint64_t, kPhaseCount> total_phase_ns_{};
  std::vector<ShardTotals> shard_totals_;
  std::uint64_t max_round_deliveries_ = 0;
  Round max_round_deliveries_round_ = 0;
};

}  // namespace dualrad::obs
