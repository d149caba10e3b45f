#include "serve/server.hpp"

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <utility>

#include "campaign/builtin_scenarios.hpp"
#include "campaign/export.hpp"
#include "campaign/jsonl.hpp"
#include "serve/wire.hpp"

namespace dualrad::serve {

namespace jsonl = campaign::jsonl;

namespace {

/// Escape a string for embedding in a reply. Scenario and worker names are
/// charset-restricted and never need this; exception messages might.
[[nodiscard]] std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

[[nodiscard]] std::string error_reply(std::string_view message) {
  return "{\"type\":\"error\",\"message\":\"" + json_escape(message) + "\"}";
}

}  // namespace

Server::Server(Coordinator& coordinator, Options options)
    : coordinator_(coordinator), options_(std::move(options)) {}

std::string Server::handle_message(const std::string& payload,
                                   bool& close_connection) {
  jsonl::require_flat_object(payload);
  const std::string_view type = jsonl::field(payload, "type");

  if (type == "hello") {
    const std::string requested(
        jsonl::field_opt(payload, "worker").value_or(""));
    const std::string id = coordinator_.register_worker(requested);
    return "{\"type\":\"welcome\",\"worker\":\"" + id + "\"}";
  }

  if (type == "lease") {
    const std::string worker(jsonl::field(payload, "worker"));
    if (!coordinator_.campaign_loaded()) return "{\"type\":\"idle\"}";
    if (const std::optional<JobSpec> job = coordinator_.lease(worker)) {
      std::string reply = "{\"type\":\"unit\"";
      reply += ",\"unit\":" + std::to_string(job->unit);
      reply += ",\"scenario\":\"" + job->scenario + "\"";
      reply += ",\"trial_begin\":" + std::to_string(job->trial_begin);
      reply += ",\"trial_end\":" + std::to_string(job->trial_end);
      reply += ",\"master_seed\":" + std::to_string(job->master_seed);
      reply +=
          ",\"threads_per_trial\":" + std::to_string(job->threads_per_trial);
      reply += ",\"collect_telemetry\":";
      reply += job->collect_telemetry ? "true" : "false";
      reply += "}";
      return reply;
    }
    if (coordinator_.done()) return "{\"type\":\"done\"}";
    // Everything is leased out; tell the worker to poll again shortly (a
    // lease may expire and requeue, or the campaign may finish).
    return "{\"type\":\"wait\",\"millis\":300}";
  }

  if (type == "commit") {
    // The commit payload carries the trial-row fields at top level, so the
    // canonical key-based row parser reads it directly ("type"/"unit" are
    // ignored like any unknown key).
    const std::vector<campaign::TrialRow> rows =
        campaign::trials_from_jsonl(payload + "\n");
    DUALRAD_REQUIRE(rows.size() == 1, "commit carries exactly one row");
    const Coordinator::Commit outcome = coordinator_.commit(rows.front());
    std::string reply = "{\"type\":\"ack\"";
    reply += ",\"scenario\":\"" + rows.front().scenario + "\"";
    reply += ",\"trial\":" + std::to_string(rows.front().trial);
    reply += ",\"dup\":";
    reply += outcome == Coordinator::Commit::Duplicate ? "1" : "0";
    reply += "}";
    return reply;
  }

  if (type == "telemetry") {
    const std::vector<campaign::TelemetryRow> rows =
        campaign::telemetry_from_jsonl(payload + "\n");
    if (rows.size() == 1) coordinator_.add_telemetry(rows.front());
    return {};  // fire-and-forget
  }

  if (type == "status") {
    const Coordinator::Status s = coordinator_.status();
    std::string reply = "{\"type\":\"state\"";
    reply += ",\"loaded\":";
    reply += s.loaded ? "true" : "false";
    reply += ",\"finished\":";
    reply += s.finished ? "true" : "false";
    reply += ",\"scenarios\":" + std::to_string(s.scenarios);
    reply += ",\"total_trials\":" + std::to_string(s.total_trials);
    reply += ",\"committed\":" + std::to_string(s.committed);
    reply += ",\"resumed\":" + std::to_string(s.resumed);
    reply += ",\"units_pending\":" + std::to_string(s.units_pending);
    reply += ",\"units_leased\":" + std::to_string(s.units_leased);
    reply += ",\"units_done\":" + std::to_string(s.units_done);
    reply += ",\"units_quarantined\":" + std::to_string(s.units_quarantined);
    reply += ",\"trials_quarantined\":" + std::to_string(s.trials_quarantined);
    reply += ",\"workers\":" + std::to_string(s.workers);
    reply += ",\"lease_expiries\":" + std::to_string(s.lease_expiries);
    reply += ",\"speculative_dispatches\":" +
             std::to_string(s.speculative_dispatches);
    reply += ",\"journal_errors\":" + std::to_string(s.journal_errors);
    reply += ",\"lease_ms_effective\":" + std::to_string(s.lease_ms_effective);
    reply += "}";
    return reply;
  }

  if (type == "submit") {
    if (options_.registry == nullptr) {
      return error_reply("this coordinator does not accept submissions");
    }
    const std::string filter(jsonl::field_opt(payload, "filter").value_or(""));
    const std::vector<campaign::Scenario> scenarios =
        campaign::select_scenarios(*options_.registry, filter);
    if (scenarios.empty()) {
      return error_reply("no scenarios match filter '" + filter + "'");
    }
    std::uint64_t seed = coordinator_.config().master_seed;
    if (const auto v = jsonl::field_opt(payload, "seed")) {
      seed = jsonl::to_u64(*v);
    }
    std::size_t trials = coordinator_.config().trials_override;
    if (const auto v = jsonl::field_opt(payload, "trials")) {
      trials = static_cast<std::size_t>(jsonl::to_u64(*v));
    }
    coordinator_.configure_campaign(seed, trials);
    coordinator_.load_campaign(scenarios);
    const Coordinator::Status s = coordinator_.status();
    return "{\"type\":\"submitted\",\"scenarios\":" +
           std::to_string(s.scenarios) +
           ",\"total_trials\":" + std::to_string(s.total_trials) + "}";
  }

  close_connection = true;
  return error_reply("unknown message type: " + std::string(type));
}

void Server::handle_connection(int fd) {
  FrameReader reader;
  for (;;) {
    bool timed_out = false;
    const std::optional<std::string> payload =
        recv_frame(fd, reader, /*timeout_ms=*/500, &timed_out);
    if (!payload.has_value()) {
      if (timed_out && !stopping()) continue;
      break;  // EOF, error, corrupt stream, or shutdown
    }
    bool close_connection = false;
    std::string reply;
    try {
      reply = handle_message(*payload, close_connection);
    } catch (const std::exception& e) {
      // Commit conflicts and malformed messages both land here: report and
      // keep serving (the worker decides whether the error is fatal).
      reply = error_reply(e.what());
    }
    if (!reply.empty() && !send_frame(fd, reply)) break;
    if (close_connection) break;
  }
  ::close(fd);
}

void Server::run_accept_loop(int listen_fd) {
  std::vector<std::thread> handlers;
  while (!stopping()) {
    bool timed_out = false;
    const int fd = accept_connection(listen_fd, /*timeout_ms=*/200, &timed_out);
    if (fd < 0) {
      if (timed_out) continue;
      break;  // listener error
    }
    handlers.emplace_back([this, fd] { handle_connection(fd); });
  }
  for (std::thread& t : handlers) t.join();
}

}  // namespace dualrad::serve
