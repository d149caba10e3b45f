#include "core/simulator.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/execution.hpp"
#include "core/shard_pool.hpp"
#include "graph/graph.hpp"
#include "obs/telemetry.hpp"

namespace dualrad {

/// The sparse CSR round kernel, on the shared execution frame
/// (core/execution.hpp).
///
/// The dense reference engine (core/reference_engine.cpp) spends O(n) per
/// round scanning every node four times. This engine makes a round cost
/// O(#polled senders + #deliveries) instead:
///
///  * **CSR adjacency snapshots** — message propagation walks the network's
///    frozen `g_csr()` rows (in their frozen row order, so arrival order
///    is bit-identical to the reference); `unreliable_csr()` backs the
///    G'-only validation of adversary reach choices.
///  * **Epoch-stamped arrival slots** — one packed slot per node: the
///    arrival round, a saturating arrival count, and the first arriving
///    sender (whose message is sent_msg[sender], so deposits copy no
///    Message). A `touched` list enumerates exactly the nodes reached this
///    round, so nothing is ever cleared; a slot is stale iff its round
///    field is old. Nodes with >= 2 arrivals spill the full arrival list
///    (needed only for CR4 resolution) into a per-node vector.
///  * **Calendar send scheduling** — instead of polling every awake process
///    every round, the engine keeps a bucket-ring calendar keyed by
///    Process::next_send_round. A process is polled only at rounds its hint
///    admits a send; the default hint ("maybe next round") degenerates to
///    per-round polling, so arbitrary processes remain exactly as observable
///    as under the reference engine. Any state transition (activation or a
///    non-silence reception — or any reception, for processes that do not
///    declare silence_transparent) reschedules the process.
///  * **Silence elision** — processes that declare silence_transparent()
///    receive on_receive only for non-silence receptions; everyone else is
///    kept on the reference engine's per-round delivery via a `noisy` list.
///  * **Sharded parallel round kernel** — with SimConfig::threads > 1, the
///    heavy phases of a round (arrival deposits; reception + delivery) fan
///    out over a worker pool. Nodes are partitioned into contiguous shards;
///    each worker deposits into and delivers to only its own shard, so all
///    per-node state writes are disjoint, and everything cross-shard
///    (calendar replans, awake-list growth, token counts) is collected into
///    per-shard buffers and merged serially in shard order. Every
///    observable is per-node independent, so the SimResult is bit-identical
///    for any thread count — tests/test_engine_equivalence.cpp proves it.
///    Rounds with little work skip the pool and run inline (the partition
///    does not change results, so the cutoff is pure scheduling).
///
/// Everything observable — process call sequences modulo elided silent
/// no-ops, adversary call order (one sealed ReachSink batch per round with
/// senders ascending; CR4 resolutions in ascending node order, exactly the
/// reference's node scan; on_round_end with the round's ascending coverage
/// delta), RNG streams, SimResult including trace bytes — is bit-identical
/// to the reference engine; tests/test_engine_equivalence.cpp enforces this
/// across random small executions and the whole builtin campaign grid.

namespace {

/// Bucket-ring calendar of planned next-send rounds. planned_ is
/// authoritative; bucket entries are hints and may be stale (a node is
/// consulted at round r only if planned_[node] == r). Capacity grows so
/// that every live entry's round is < current + buckets (one ring lap),
/// which guarantees a bucket holds only current-round or stale entries
/// whenever it is visited.
class SendCalendar {
 public:
  explicit SendCalendar(std::size_t n)
      : planned_(n, kNever), buckets_(kInitialBuckets) {}

  void plan(NodeId v, Round r, Round now) {
    auto& slot = planned_[static_cast<std::size_t>(v)];
    if (r == kNever) {
      slot = kNever;
      return;
    }
    // A hint at or before the current round would land in an
    // already-drained bucket and silently never fire (or wrap grow()).
    DUALRAD_CHECK(r > now, "next_send_round hinted a non-future round");
    if (slot == r) return;  // live entry already queued for r
    slot = r;
    if (static_cast<std::size_t>(r - now) >= buckets_.size()) grow(r, now);
    buckets_[static_cast<std::size_t>(r) & (buckets_.size() - 1)].push_back(v);
  }

  /// Nodes whose plan names `round`, deduplicated; the bucket is drained.
  /// Returns the number of bucket entries scanned (live + stale) — the
  /// telemetry layer's calendar-pressure counter.
  std::size_t take_due(Round round, std::vector<NodeId>& out) {
    auto& bucket =
        buckets_[static_cast<std::size_t>(round) & (buckets_.size() - 1)];
    const std::size_t scanned = bucket.size();
    for (NodeId v : bucket) {
      if (planned_[static_cast<std::size_t>(v)] == round) {
        out.push_back(v);
        // A duplicate entry for the same round must not poll twice; mark
        // the plan consumed (the poll loop replans from round + 1).
        planned_[static_cast<std::size_t>(v)] = kNever;
      }
    }
    bucket.clear();
    return scanned;
  }

 private:
  static constexpr std::size_t kInitialBuckets = 64;

  void grow(Round r, Round now) {
    std::size_t size = buckets_.size();
    while (static_cast<std::size_t>(r - now) >= size) size *= 2;
    buckets_.assign(size, {});
    for (std::size_t v = 0; v < planned_.size(); ++v) {
      if (planned_[v] != kNever) {
        buckets_[static_cast<std::size_t>(planned_[v]) & (size - 1)].push_back(
            static_cast<NodeId>(v));
      }
    }
  }

  std::vector<Round> planned_;
  std::vector<std::vector<NodeId>> buckets_;
};

/// Deposits + deliveries below this run inline: the fan-out/join of a pool
/// dispatch (~ a few microseconds) must be amortized by real work.
constexpr std::size_t kParallelGrain = 2048;

/// The sparse kernel of one execution. run() is the round loop; each phase
/// is one member function, and the telemetry phase boundaries sit between
/// them.
class SparseKernel {
 public:
  explicit SparseKernel(ExecutionFrame& frame);

  [[nodiscard]] SimResult run();

 private:
  /// Arrival slot per node: `mark` packs (round << 2) | count with count
  /// saturating at 3 (the model only distinguishes 0 / 1 / >= 2), `from` is
  /// the first arriving sender (its message is sent_msg[from], so the slot
  /// fits one cache line and deposits copy no Message). A slot is live iff
  /// its round field equals the current round — nothing is ever cleared.
  struct ArrivalSlot {
    std::uint64_t mark = 0;
    NodeId from = kInvalidNode;
  };

  struct alignas(64) ShardState {
    std::vector<NodeId> touched;   // nodes with >= 1 arrival this round
    std::vector<NodeId> collided;  // nodes with >= 2 arrivals this round
    std::vector<NodeId> activated_noisy;  // woke up, not silence-transparent
    std::vector<NodeId> newly_covered;    // covered flag rose this round
    std::vector<std::pair<NodeId, Round>> plans;  // deferred calendar.plan
    std::size_t held_delta = 0;
  };

  void poll(Round round);
  void propagate(Round round);
  void propagate_shard(unsigned w);
  void deliver(Round round);
  void deliver_shard(unsigned w, Round round);
  void merge(Round round);
  void end_phase(obs::Phase phase);
  void report_round();

  /// First node of shard w when `active_` shards participate this round.
  [[nodiscard]] NodeId shard_lo(unsigned w) const {
    return static_cast<NodeId>(static_cast<std::uint64_t>(f_.un) * w /
                               active_);
  }

  ExecutionFrame& f_;
  const CsrGraph& g_;
  /// Telemetry (obs/telemetry.hpp) is strictly out-of-band: it reads list
  /// sizes the loop already computed and samples a monotonic clock, so the
  /// SimResult is bit-identical with or without it. Every telemetry
  /// statement — including the clock samples — branches on this null check.
  obs::RoundTelemetry* const telemetry_;
  const bool spill_arrivals_;  ///< CR4: keep full arrival lists

  // Scheduling state. `transparent_[v]` caches silence_transparent() of the
  // process at v (queried at activation); non-transparent awake nodes are
  // listed in `noisy_` and get the reference engine's per-round delivery.
  SendCalendar calendar_;
  NodeFlags transparent_;
  std::vector<NodeId> noisy_;

  // The node space is cut into `shards_` contiguous ranges; results are
  // identical for every shard count (including 1), so rounds below the work
  // cutoff simply run the same kernel inline with one all-covering shard.
  const unsigned shards_;
  std::optional<ShardPool> pool_;
  std::vector<ShardState> shard_;

  std::vector<NodeId> due_;  ///< calendar pops, this round
  std::vector<ArrivalSlot> arrival_;
  std::vector<NodeId> collided_;  ///< merged from shards; CR4 sorts it
  /// Full arrival lists, spilled only on collision and only consumed under
  /// CR4 (adversary resolution picks among them). Both are n-wide under CR4
  /// and empty under every other rule.
  std::vector<std::vector<Message>> multi_;
  std::vector<Reception> rec_of_;  ///< CR4 collided non-senders only

  // Per-round state.
  std::uint64_t live_ = 0;  ///< arrival mark of the running round
  unsigned active_ = 1;     ///< shards participating this round
  std::size_t deposit_work_ = 0;  ///< this round's deliveries (exact)
  std::size_t calendar_scanned_ = 0;
  std::size_t noisy_before_ = 0;
  std::uint32_t collision_events_ = 0;
  std::size_t merge_replans_ = 0;
  std::uint64_t phase_start_ = 0;
};

SparseKernel::SparseKernel(ExecutionFrame& frame)
    : f_(frame),
      g_(frame.net.g_csr()),
      telemetry_(frame.config.telemetry),
      spill_arrivals_(frame.config.rule == CollisionRule::CR4),
      calendar_(frame.un),
      transparent_(frame.un, 0),
      shards_(std::max(
          1u, std::min({frame.config.threads == 0 ? 1u : frame.config.threads,
                        64u, static_cast<unsigned>(frame.un)}))),
      shard_(shards_),
      arrival_(frame.un),
      multi_(spill_arrivals_ ? frame.un : 0),
      rec_of_(spill_arrivals_ ? frame.un : 0) {
  if (shards_ > 1) pool_.emplace(shards_);
  collided_.reserve(64);
}

SimResult SparseKernel::run() {
  f_.start([this](NodeId v) {
    const auto uv = static_cast<std::size_t>(v);
    transparent_[uv] = f_.procs[uv]->silence_transparent() ? 1 : 0;
    if (!transparent_[uv]) noisy_.push_back(v);
    calendar_.plan(v, f_.procs[uv]->next_send_round(1), 0);
  });
  if (telemetry_) telemetry_->begin_execution(f_.n, shards_);
  for (Round round = 1; round <= f_.config.max_rounds; ++round) {
    f_.begin_round(round);
    if (telemetry_) {
      telemetry_->begin_round(round);
      phase_start_ = obs::monotonic_ns();
    }
    poll(round);
    end_phase(obs::Phase::Poll);
    f_.choose_reach(round);
    deposit_work_ += f_.sink.total();
    end_phase(obs::Phase::Adversary);
    propagate(round);
    end_phase(obs::Phase::Propagate);
    deliver(round);
    end_phase(obs::Phase::Deliver);
    merge(round);
    end_phase(obs::Phase::ShardMerge);
    f_.notify_round_end();
    end_phase(obs::Phase::Adversary);
    if (telemetry_) report_round();
    if (f_.end_round(round, collision_events_)) break;
  }
  if (telemetry_) telemetry_->end_execution();
  return f_.finish();
}

void SparseKernel::end_phase(obs::Phase phase) {
  if (telemetry_ == nullptr) return;
  const std::uint64_t now = obs::monotonic_ns();
  telemetry_->add_phase_ns(phase, now - phase_start_);
  phase_start_ = now;
}

/// Poll only the processes whose hint admits a send this round.
void SparseKernel::poll(Round round) {
  due_.clear();
  calendar_scanned_ = calendar_.take_due(round, due_);
  for (const NodeId v : due_) {
    const auto uv = static_cast<std::size_t>(v);
    const Action action = f_.procs[uv]->next_action(round);
    // Replan immediately; a reception later this round replans again.
    calendar_.plan(v, f_.procs[uv]->next_send_round(round + 1), round);
    if (action.send) f_.add_sender(v, action.message);
  }
  // Calendar pops arrive in bucket order; the adversary interface (and
  // stateful adversaries' RNG streams) see senders in ascending node
  // order, exactly like the reference engine's node scan.
  std::sort(f_.senders.begin(), f_.senders.end());
  f_.end_poll(round);
  // Per sender: 1 (self) + |reliable row|; the adversary's extras are
  // added once it chose them.
  deposit_work_ = 0;
  for (const NodeId v : f_.senders) deposit_work_ += 1 + g_.out_degree(v);
}

/// Propagation: sender itself + G out-neighbors + chosen extras.
void SparseKernel::propagate(Round round) {
  noisy_before_ = noisy_.size();
  active_ = pool_ && deposit_work_ + noisy_before_ >= kParallelGrain ? shards_
                                                                     : 1;
  for (unsigned w = 0; w < active_; ++w) {
    ShardState& s = shard_[w];
    s.touched.clear();
    s.collided.clear();
    s.activated_noisy.clear();
    s.newly_covered.clear();
    s.plans.clear();
    s.held_delta = 0;
  }
  live_ = static_cast<std::uint64_t>(round) << 2;
  if (active_ == 1) {
    propagate_shard(0);
  } else {
    pool_->run([this](unsigned w) { propagate_shard(w); });
  }
}

/// Each shard scans every sender but deposits only into its own node range;
/// the scan order (ascending senders; self, then reliable row, then extras)
/// matches the serial engine, so per-node arrival order — and with it
/// `from`, the spilled CR4 lists, everything — is identical for any shard
/// count.
void SparseKernel::propagate_shard(unsigned w) {
  ShardState& s = shard_[w];
  const NodeId lo = shard_lo(w);
  const NodeId hi = shard_lo(w + 1);
  const auto deposit = [&](NodeId v, NodeId sender) {
    const auto uv = static_cast<std::size_t>(v);
    ArrivalSlot& slot = arrival_[uv];
    if ((slot.mark & ~std::uint64_t{3}) != live_) {
      slot.mark = live_ | 1;
      slot.from = sender;
      s.touched.push_back(v);
      return;
    }
    if ((slot.mark & 3) == 1) {
      s.collided.push_back(v);
      if (spill_arrivals_) {
        multi_[uv].clear();
        multi_[uv].push_back(f_.sent_msg[static_cast<std::size_t>(slot.from)]);
      }
    }
    if ((slot.mark & 3) < 3) ++slot.mark;
    if (spill_arrivals_) {
      multi_[uv].push_back(f_.sent_msg[static_cast<std::size_t>(sender)]);
    }
  };
  const std::vector<NodeId>& senders = f_.senders;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    const NodeId u = senders[i];
    if (u >= lo && u < hi) deposit(u, u);
    for (const NodeId v : g_.row(u)) {
      if (v >= lo && v < hi) deposit(v, u);
    }
    for (const NodeId v : f_.sink.extras(i)) {
      if (v < lo || v >= hi) {
        // No shard owns a target outside the network; shard 0 rejects it.
        if (w == 0 && (v < 0 || v >= f_.n)) f_.check_reach(u, v);
        continue;
      }
      f_.check_reach(u, v);
      deposit(v, u);
    }
  }
}

/// Receptions under the configured collision rule (touched only: everyone
/// else hears silence), fused with delivery. CR4 collisions are resolved
/// first, in ascending node order — the order the reference engine's node
/// scan consults the adversary in.
void SparseKernel::deliver(Round round) {
  const CollisionRule rule = f_.config.rule;
  collision_events_ = 0;
  for (unsigned w = 0; w < active_; ++w) {
    for (const NodeId v : shard_[w].collided) {
      // Collision events are what processes observe: under CR2-CR4 a sender
      // deterministically hears its own message, so no collision occurs at
      // sender nodes there (CR1 counts senders too).
      if (rule == CollisionRule::CR1 ||
          !f_.is_sender[static_cast<std::size_t>(v)]) {
        ++collision_events_;
      }
    }
  }
  if (rule == CollisionRule::CR4) {
    collided_.clear();
    for (unsigned w = 0; w < active_; ++w) {
      collided_.insert(collided_.end(), shard_[w].collided.begin(),
                       shard_[w].collided.end());
    }
    std::sort(collided_.begin(), collided_.end());
    for (const NodeId v : collided_) {
      const auto uv = static_cast<std::size_t>(v);
      if (!f_.is_sender[uv]) rec_of_[uv] = f_.resolve_cr4(v, multi_[uv]);
    }
  }
  if (active_ == 1) {
    deliver_shard(0, round);
  } else {
    pool_->run([this, round](unsigned w) { deliver_shard(w, round); });
  }
  if (f_.record_trace) {
    for (unsigned w = 0; w < active_; ++w) {
      for (const NodeId v : shard_[w].touched) f_.trace_touched(v);
    }
  }
}

/// Fused reception + delivery over shard w's touched set, plus the round's
/// silence for this shard's slice of the noisy prefix. Receptions are pure
/// functions of this round's (fixed) arrivals and sender flags — CR4
/// resolutions were fixed before any state change, exactly like the
/// reference engine's two-pass order — so computing and delivering per node
/// in one pass is equivalent, and every write (process state, per-node
/// flags, token accounting, trace receptions) lands on nodes this shard
/// owns; deliver() names the touched nodes to the trace once the shards
/// joined. Deferred effects (calendar replans, noisy additions, coverage
/// deltas) are collected per shard and merged in shard order. Processes
/// activated this round consume their reception through on_activate, so
/// only nodes noisy *before* this round's activations get the silence
/// delivery (they are partitioned by index, disjoint from every touched
/// set).
void SparseKernel::deliver_shard(unsigned w, Round round) {
  ShardState& s = shard_[w];
  const CollisionRule rule = f_.config.rule;
  for (const NodeId v : s.touched) {
    const auto uv = static_cast<std::size_t>(v);
    const ArrivalSlot& slot = arrival_[uv];
    const std::uint32_t count = slot.mark & 3;
    const auto first_msg = [&]() -> const Message& {
      return f_.sent_msg[static_cast<std::size_t>(slot.from)];
    };
    Reception rec;
    switch (rule) {
      case CollisionRule::CR1:
        rec = count == 1 ? Reception::of(first_msg()) : Reception::collision();
        break;
      case CollisionRule::CR2:
      case CollisionRule::CR3:
      case CollisionRule::CR4:
        if (f_.is_sender[uv]) {
          rec = Reception::of(f_.sent_msg[uv]);
        } else if (count == 1) {
          rec = Reception::of(first_msg());
        } else if (rule == CollisionRule::CR2) {
          rec = Reception::collision();
        } else if (rule == CollisionRule::CR3) {
          rec = Reception::silence();
        } else {
          rec = rec_of_[uv];  // CR4: the adversary's resolution
        }
        break;
    }
    Process& proc = *f_.procs[uv];
    if (f_.awake[uv]) {
      if (!transparent_[uv] || !rec.is_silence()) {
        proc.on_receive(round, rec);
        s.plans.emplace_back(v, proc.next_send_round(round + 1));
      }
    } else if (rec.is_message()) {
      proc.on_activate(round, rec.message);
      f_.awake[uv] = 1;
      transparent_[uv] = proc.silence_transparent() ? 1 : 0;
      if (!transparent_[uv]) s.activated_noisy.push_back(v);
      s.plans.emplace_back(v, proc.next_send_round(round + 1));
    }
    const ExecutionFrame::Delta d = f_.account(v, rec, round);
    if (d.covered) s.newly_covered.push_back(v);
    if (d.held) ++s.held_delta;
    if (f_.record_trace) f_.trace_receptions[uv] = std::move(rec);
  }
  // Silence to this shard's slice of the pre-round noisy prefix.
  const Reception silence = Reception::silence();
  const std::size_t blo = noisy_before_ * w / active_;
  const std::size_t bhi = noisy_before_ * (w + 1) / active_;
  for (std::size_t i = blo; i < bhi; ++i) {
    const auto uv = static_cast<std::size_t>(noisy_[i]);
    if ((arrival_[uv].mark & ~std::uint64_t{3}) == live_) continue;  // touched
    f_.procs[uv]->on_receive(round, silence);
    s.plans.emplace_back(noisy_[i], f_.procs[uv]->next_send_round(round + 1));
  }
}

/// Deterministic shard merge: calendar replans, newly-noisy nodes, coverage
/// deltas — all applied in shard order. (Plan application order is
/// unobservable anyway: the calendar dedups by node, and polled actions are
/// sorted before the adversary sees them.)
void SparseKernel::merge(Round round) {
  merge_replans_ = 0;
  for (unsigned w = 0; w < active_; ++w) {
    const ShardState& s = shard_[w];
    noisy_.insert(noisy_.end(), s.activated_noisy.begin(),
                  s.activated_noisy.end());
    f_.add_coverage(s.newly_covered, s.held_delta);
    for (const auto& [v, r] : s.plans) calendar_.plan(v, r, round);
    if (telemetry_) {
      merge_replans_ += s.plans.size();
      telemetry_->add_shard_round(w, s.touched.size(), s.collided.size(),
                                  s.plans.size());
    }
  }
  f_.publish_coverage();
}

void SparseKernel::report_round() {
  obs::RoundCounters& c = telemetry_->counters();
  c.polled = due_.size();
  c.senders = f_.senders.size();
  // Each deposit call lands on exactly one node of exactly one shard, so
  // the work estimate IS the delivery count: per sender 1 (self) +
  // |reliable row| + |adversary extras|.
  c.deliveries = deposit_work_;
  c.collisions = collision_events_;
  c.calendar_scanned = calendar_scanned_;
  c.replans = due_.size() + merge_replans_;
  c.reach_appends = f_.sink.total();
  c.newly_covered = f_.covered_delta().size();
  telemetry_->end_round();
}

}  // namespace

SimResult run_broadcast(const DualGraph& net, const ProcessFactory& factory,
                        Adversary& adversary, const SimConfig& config) {
  ExecutionFrame frame(net, factory, adversary, config);
  return SparseKernel(frame).run();
}

}  // namespace dualrad
