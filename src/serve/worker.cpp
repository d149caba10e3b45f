#include "serve/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "campaign/jsonl.hpp"
#include "core/rng.hpp"
#include "obs/telemetry.hpp"
#include "serve/faultline.hpp"
#include "serve/wire.hpp"

namespace dualrad::serve {

namespace jsonl = campaign::jsonl;

namespace {

/// Splice row fields into a typed wire message: take the canonical JSONL row
/// and graft `"type":"commit","unit":N` onto the front of the object, so the
/// server can hand the payload straight to the canonical row parser.
[[nodiscard]] std::string commit_payload(std::uint64_t unit,
                                         const campaign::TrialRow& row) {
  std::string json = campaign::trials_to_jsonl({row});
  json.pop_back();  // trailing newline
  return "{\"type\":\"commit\",\"unit\":" + std::to_string(unit) + "," +
         json.substr(1);
}

[[nodiscard]] std::string telemetry_payload(const campaign::TelemetryRow& row) {
  std::string json = campaign::telemetry_to_jsonl({row});
  json.pop_back();
  return "{\"type\":\"telemetry\"," + json.substr(1);
}

void sleep_checking_stop(std::chrono::milliseconds total,
                         const std::atomic<bool>* stop) {
  using namespace std::chrono;
  auto remaining = total;
  while (remaining.count() > 0) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
    const auto chunk = std::min<milliseconds>(remaining, milliseconds(50));
    // Chunked cooperative wait; callers pass bounded, jittered delays
    // (reconnect_backoff_delay / poll). lint: backoff-ok
    std::this_thread::sleep_for(chunk);
    remaining -= chunk;
  }
}

constexpr std::uint64_t kBackoffDomain = 0xB0FF0E55ull;

/// A worker gives up (throws) after this long without a successful
/// connection.
constexpr std::chrono::seconds kReconnectWindow{15};

/// Receive timeout for each expected reply.
constexpr int kReplyTimeoutMs = 30'000;

/// One logical session with the coordinator, surviving reconnects. request()
/// is at-least-once: a dropped connection mid-request reconnects (fresh
/// hello handshake under the same worker id) and resends the same payload —
/// which for commits is exactly the retransmit-unacked behaviour the
/// coordinator's dedup expects.
class Session {
 public:
  Session(const std::function<int()>& connect, const WorkerOptions& options,
          WorkerStats& stats)
      : connect_(connect), options_(options), stats_(stats) {
    worker_id_ = options.worker_id;
  }

  ~Session() { drop(); }

  [[nodiscard]] const std::string& worker_id() const { return worker_id_; }

  [[nodiscard]] bool stop_requested() const {
    return options_.stop != nullptr &&
           options_.stop->load(std::memory_order_relaxed);
  }

  /// Send `payload` and return its reply; nullopt only on stop request.
  /// Throws std::runtime_error when the reconnect window is exhausted.
  [[nodiscard]] std::optional<std::string> request(const std::string& payload) {
    for (;;) {
      if (stop_requested()) return std::nullopt;
      if (!ensure_connected()) return std::nullopt;
      if (!send_frame(fd_, payload)) {
        drop();
        continue;
      }
      bool timed_out = false;
      std::optional<std::string> reply =
          recv_frame(fd_, reader_, kReplyTimeoutMs, &timed_out);
      if (!reply.has_value()) {
        if (reader_.corrupt() && options_.log) {
          // Reconnect-only recovery: the drop() below discards the poisoned
          // reader with the connection (wire.hpp FrameReader contract).
          options_.log("[worker " + worker_id_ + "] dropping connection: " +
                       reader_.corrupt_reason());
        }
        drop();
        continue;
      }
      return reply;
    }
  }

  /// Best-effort one-way send (telemetry): one reconnect attempt, then give
  /// up silently — telemetry is advisory and has no delivery contract.
  void send_oneway(const std::string& payload) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (stop_requested() || !ensure_connected()) return;
      if (send_frame(fd_, payload)) return;
      drop();
    }
  }

 private:
  void drop() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    reader_ = FrameReader{};
  }

  /// Connect + hello handshake; false only on stop request. A fresh
  /// reconnect window opens each time we enter the disconnected state, and
  /// retries back off exponentially (bounded, deterministically jittered —
  /// reconnect_backoff_delay) instead of hammering a dead endpoint at a
  /// fixed cadence.
  [[nodiscard]] bool ensure_connected() {
    if (fd_ >= 0) return true;
    const auto deadline = std::chrono::steady_clock::now() + kReconnectWindow;
    for (std::uint64_t attempt = 0;; ++attempt) {
      if (stop_requested()) return false;
      const int fd = connect_();
      if (fd >= 0 && handshake(fd)) {
        fd_ = fd;
        if (connected_once_) ++stats_.reconnects;
        connected_once_ = true;
        return true;
      }
      if (fd >= 0) ::close(fd);
      if (std::chrono::steady_clock::now() >= deadline) {
        throw std::runtime_error(
            "dualrad: worker lost the coordinator (reconnect window "
            "exhausted)");
      }
      sleep_checking_stop(
          reconnect_backoff_delay(options_, worker_id_, attempt,
                                  lifetime_attempts_++),
          options_.stop);
    }
  }

  [[nodiscard]] bool handshake(int fd) {
    reader_ = FrameReader{};
    const std::string hello =
        "{\"type\":\"hello\",\"worker\":\"" + worker_id_ + "\"}";
    if (!send_frame(fd, hello)) return false;
    bool timed_out = false;
    const std::optional<std::string> reply =
        recv_frame(fd, reader_, kReplyTimeoutMs, &timed_out);
    if (!reply.has_value()) return false;
    if (jsonl::field(*reply, "type") != "welcome") return false;
    worker_id_ = std::string(jsonl::field(*reply, "worker"));
    return true;
  }

  const std::function<int()>& connect_;
  const WorkerOptions& options_;
  WorkerStats& stats_;
  std::string worker_id_;
  int fd_ = -1;
  FrameReader reader_;
  bool connected_once_ = false;
  std::uint64_t lifetime_attempts_ = 0;
};

}  // namespace

std::chrono::milliseconds reconnect_backoff_delay(
    const WorkerOptions& options, std::string_view worker_id,
    std::uint64_t episode_attempt, std::uint64_t lifetime_attempt) {
  const auto base = static_cast<double>(options.backoff_base.count());
  const auto cap = static_cast<double>(options.backoff_max.count());
  // Exponent is clamped before the shift so long outages can't overflow.
  const std::uint64_t exp = std::min<std::uint64_t>(episode_attempt, 20);
  const double nominal =
      std::min(cap, base * static_cast<double>(std::uint64_t{1} << exp));
  // Deterministic jitter in [0.5, 1.5): keyed by the worker id and the
  // lifetime attempt count, so a replayed run backs off identically while
  // two workers desynchronize (their ids differ).
  const CounterRng rng(mix_seed(kBackoffDomain, fnv1a64(worker_id)));
  const double jitter =
      0.5 + rng.uniform(static_cast<Round>(lifetime_attempt));
  const double ms = std::min(cap, nominal * jitter);
  return std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(ms)));
}

WorkerStats run_worker(const std::function<int()>& connect,
                       const std::vector<campaign::Scenario>& catalogue,
                       const WorkerOptions& options) {
  WorkerStats stats;
  Session session(connect, options, stats);

  std::map<std::string, const campaign::Scenario*, std::less<>> by_name;
  for (const campaign::Scenario& s : catalogue) by_name.emplace(s.name, &s);
  std::deque<campaign::Scenario> parsed;  // specs missing from the catalogue

  // Executors are cached per (scenario, master seed): network construction
  // dominates short trials, and every trial of a unit — and usually many
  // units — shares one.
  std::map<std::pair<std::string, std::uint64_t>, campaign::TrialExecutor>
      executors;

  const auto log = [&](const std::string& line) {
    if (options.log) options.log("[worker " + session.worker_id() + "] " + line);
  };

  for (;;) {
    if (session.stop_requested()) {
      stats.stopped = true;
      break;
    }
    const std::optional<std::string> reply = session.request(
        "{\"type\":\"lease\",\"worker\":\"" + session.worker_id() + "\"}");
    if (!reply.has_value()) {
      stats.stopped = true;
      break;
    }
    const std::string_view type = jsonl::field(*reply, "type");
    if (type == "done") break;
    if (type == "wait" || type == "idle") {
      sleep_checking_stop(options.poll, options.stop);
      continue;
    }
    if (type == "error") {
      throw std::runtime_error("dualrad: coordinator rejected lease: " +
                               std::string(jsonl::field(*reply, "message")));
    }
    DUALRAD_REQUIRE(type == "unit",
                    "unexpected lease reply type: " + std::string(type));

    const std::uint64_t unit = jsonl::to_u64(jsonl::field(*reply, "unit"));
    const std::string scenario_name(jsonl::field(*reply, "scenario"));
    const std::uint32_t trial_begin = static_cast<std::uint32_t>(
        jsonl::to_u64(jsonl::field(*reply, "trial_begin")));
    const std::uint32_t trial_end = static_cast<std::uint32_t>(
        jsonl::to_u64(jsonl::field(*reply, "trial_end")));
    const std::uint64_t master_seed =
        jsonl::to_u64(jsonl::field(*reply, "master_seed"));
    const unsigned threads = options.threads_per_trial != 0
                                 ? options.threads_per_trial
                                 : static_cast<unsigned>(jsonl::to_u64(
                                       jsonl::field(*reply, "threads_per_trial")));
    const bool telemetry =
        jsonl::field(*reply, "collect_telemetry") == "true";

    auto scenario_it = by_name.find(scenario_name);
    if (scenario_it == by_name.end()) {
      // Not in the catalogue: a spec spells its own scenario, so selecting
      // it from an empty registry parses it; any other name selects nothing.
      std::vector<campaign::Scenario> spelled =
          campaign::select_scenarios({}, scenario_name);
      DUALRAD_REQUIRE(spelled.size() == 1,
                      "coordinator dispatched a scenario this worker does not "
                      "know: " + scenario_name);
      parsed.push_back(std::move(spelled.front()));
      scenario_it = by_name.emplace(scenario_name, &parsed.back()).first;
    }
    const auto exec_it =
        executors.try_emplace(std::make_pair(scenario_name, master_seed),
                              *scenario_it->second, master_seed)
            .first;
    const campaign::TrialExecutor& executor = exec_it->second;

    log("unit " + std::to_string(unit) + ": " + scenario_name + " trials [" +
        std::to_string(trial_begin) + "," + std::to_string(trial_end) + ")");

    bool unit_complete = true;
    for (std::uint32_t trial = trial_begin; trial < trial_end; ++trial) {
      if (session.stop_requested()) {
        stats.stopped = true;
        unit_complete = false;
        break;
      }
      // A fresh window-1 registry per trial, as run_campaign attaches.
      obs::RoundTelemetry registry(1);
      const campaign::TrialExecutor::Outcome outcome = executor.run(
          trial, {.threads_per_trial = threads,
                  .telemetry = telemetry ? &registry : nullptr});
      // Lifecycle fault point: crash or stall BEFORE the commit, so the
      // injected failure exercises the at-least-once window (the trial ran
      // but its row never reached the coordinator).
      if (FaultInjector* injector = fault_injector()) {
        int stall_ms = 0;
        switch (injector->next_lifecycle(&stall_ms)) {
          case LifecycleFault::None:
            break;
          case LifecycleFault::Crash:
            log("injected crash before commit of " + scenario_name + "#" +
                std::to_string(trial));
            if (options.crash) {
              options.crash();
            }
            throw InjectedCrash();
          case LifecycleFault::Stall:
            log("injected stall (" + std::to_string(stall_ms) +
                " ms) before commit of " + scenario_name + "#" +
                std::to_string(trial));
            sleep_checking_stop(std::chrono::milliseconds(stall_ms),
                                options.stop);
            break;
        }
      }
      if (telemetry) session.send_oneway(telemetry_payload(outcome.telemetry));
      const std::optional<std::string> ack =
          session.request(commit_payload(unit, outcome.row));
      if (!ack.has_value()) {
        stats.stopped = true;
        unit_complete = false;
        break;
      }
      const std::string_view ack_type = jsonl::field(*ack, "type");
      if (ack_type == "error") {
        throw std::runtime_error("dualrad: commit rejected: " +
                                 std::string(jsonl::field(*ack, "message")));
      }
      DUALRAD_REQUIRE(ack_type == "ack",
                      "unexpected commit reply type: " + std::string(ack_type));
      if (jsonl::field(*ack, "dup") == "1") ++stats.duplicates;
      ++stats.trials;
    }
    if (!unit_complete) break;
    ++stats.units;
  }

  stats.worker_id = session.worker_id();
  return stats;
}

}  // namespace dualrad::serve
