#pragma once

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "campaign/registry.hpp"
#include "serve/coordinator.hpp"

/// \file server.hpp
/// The coordinator's socket front end: one thread per connection, strict
/// request/response over CRC-framed JSONL messages (wire.hpp).
///
/// Requests                         Replies
///   hello {worker}                   welcome {worker}
///   lease {worker}                   unit {...JobSpec} | wait | idle | done
///   commit {unit, ...TrialRow}       ack {scenario, trial, dup} | error
///   telemetry {...TelemetryRow}      (none — fire-and-forget, out-of-band)
///   status                           state {...Coordinator::Status}
///   submit {filter, seed, trials}    submitted {total} | error
///
/// Workers treat `error` on commit as fatal (a byte-identity violation);
/// everything else is retryable. Connection teardown at any point is safe:
/// dispatch is at-least-once (lease expiry requeues), commit is exactly-once
/// (coordinator dedup), so the server never needs connection state beyond
/// the worker id inside each request.

namespace dualrad::serve {

class Server {
 public:
  struct Options {
    /// Scenario catalogue used by `submit` to resolve filters
    /// (campaign::select_scenarios, so a spec filter needs no entry);
    /// nullptr disables submit.
    const campaign::ScenarioRegistry* registry = nullptr;
  };

  Server(Coordinator& coordinator, Options options);

  /// Serve one established connection until EOF, a framing error, or
  /// request_stop(). Blocking; called from a dedicated thread (or directly
  /// over a socketpair in tests). Closes `fd` before returning.
  void handle_connection(int fd);

  /// Accept connections on `listen_fd` until request_stop(), spawning one
  /// handler thread each. Joins all handlers before returning. Does not
  /// close `listen_fd`.
  void run_accept_loop(int listen_fd);

  /// Ask the accept loop and all connection handlers to wind down promptly.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool stopping() const {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::string handle_message(const std::string& payload,
                                           bool& close_connection);

  Coordinator& coordinator_;
  Options options_;
  std::atomic<bool> stop_{false};
};

}  // namespace dualrad::serve
