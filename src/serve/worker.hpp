#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/scenario.hpp"

/// \file worker.hpp
/// The serve-mode worker: connects to a coordinator, pulls work units, runs
/// their trials through campaign::TrialExecutor, and streams committed rows
/// back over the wire.
///
/// Reliability: requests are strict request/response; any socket failure
/// (drop, timeout, CRC corruption) tears the connection down and the worker
/// reconnects and retries the in-flight request. Commits are the only
/// request with side effects, and the coordinator dedupes them byte-wise, so
/// retransmit-on-reconnect is safe — at-least-once below, exactly-once
/// above. A commit answered with `error` is fatal: it means this worker
/// produced different bytes for a trial than an earlier commit, which under
/// the determinism contract means a mismatched binary or grid.

namespace dualrad::serve {

struct WorkerOptions {
  /// Requested worker id; empty asks the coordinator to assign one.
  std::string worker_id;
  /// Overrides the coordinator-provided threads_per_trial when nonzero.
  unsigned threads_per_trial = 0;
  /// Pause between lease polls when the coordinator says `wait` or `idle`.
  std::chrono::milliseconds poll{300};
  /// Reconnect backoff: attempt k (within one disconnected episode) waits
  /// min(backoff_max, backoff_base * 2^k) scaled by a deterministic jitter
  /// factor in [0.5, 1.5) keyed by (worker id, lifetime attempt count) — so
  /// a replayed run backs off identically, and two workers that died
  /// together never hammer the coordinator in lockstep.
  std::chrono::milliseconds backoff_base{100};
  std::chrono::milliseconds backoff_max{2000};
  /// Give up (throw) after this long without a successful connection.
  double reconnect_window_secs = 15.0;
  /// Receive timeout for each expected reply.
  int reply_timeout_ms = 30'000;
  /// Optional cooperative stop: checked between trials and between
  /// requests; when set, the worker returns early (its lease expires and
  /// the unit is reissued elsewhere).
  const std::atomic<bool>* stop = nullptr;
  /// Optional progress logger (one line per event).
  std::function<void(const std::string&)> log;
  /// Invoked when an installed faultline injector decrees a mid-unit crash.
  /// Defaults to throwing (in-process tests catch and restart); the CLI
  /// worker overrides with _exit so the supervisor's respawn path is the
  /// one exercised.
  std::function<void()> crash;
};

struct WorkerStats {
  std::string worker_id;
  std::size_t units = 0;
  std::size_t trials = 0;
  std::size_t duplicates = 0;  ///< commits the coordinator had already seen
  std::size_t reconnects = 0;
  bool stopped = false;  ///< true if options.stop ended the run early
};

/// Thrown by the default WorkerOptions::crash handler when an installed
/// faultline injector kills the worker mid-unit. In-process harnesses catch
/// it and restart run_worker; the campaign heals via lease expiry + commit
/// dedup.
struct InjectedCrash : std::runtime_error {
  InjectedCrash() : std::runtime_error("dualrad: injected worker crash") {}
};

/// The reconnect delay for `attempt` (0-based, within one disconnected
/// episode), jittered deterministically by (worker_id, lifetime_attempt).
/// Exposed for tests: bounded by backoff_max, monotone in expectation.
[[nodiscard]] std::chrono::milliseconds reconnect_backoff_delay(
    const WorkerOptions& options, std::string_view worker_id,
    std::uint64_t episode_attempt, std::uint64_t lifetime_attempt);

/// Run the worker loop until the coordinator reports the campaign done (or
/// `options.stop` is raised). `connect` must return a connected socket fd or
/// -1; it is invoked for the initial connection and after every drop.
/// `catalogue` must contain every scenario the coordinator may dispatch,
/// except scenario specs, which the worker parses (campaign::parse_spec);
/// any other unknown scenario throws. Throws std::runtime_error when the
/// reconnection window is exhausted or a commit is rejected.
WorkerStats run_worker(const std::function<int()>& connect,
                       const std::vector<campaign::Scenario>& catalogue,
                       const WorkerOptions& options = {});

}  // namespace dualrad::serve
