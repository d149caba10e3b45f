#include "campaign/export.hpp"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "campaign/jsonl.hpp"
#include "campaign/registry.hpp"

namespace dualrad::campaign {

namespace {

using jsonl::field;
using jsonl::field_opt;
using jsonl::to_ll;
using jsonl::to_u64;

[[nodiscard]] std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Scenario names are validated to a quote-free charset (registry.hpp), so
/// embedding them verbatim in JSON and CSV is safe; enforce it here for rows
/// constructed outside a registry.
void require_exportable(const std::string& name) {
  DUALRAD_REQUIRE(is_valid_scenario_name(name),
                  "scenario name not exportable: " + name);
}

}  // namespace

std::string trials_to_jsonl(const std::vector<TrialRow>& rows,
                            bool include_timing) {
  std::string out;
  for (const TrialRow& r : rows) {
    require_exportable(r.scenario);
    out += "{\"scenario\":\"" + r.scenario + "\"";
    out += ",\"trial\":" + std::to_string(r.trial);
    out += ",\"seed\":" + std::to_string(r.seed);
    out += std::string(",\"completed\":") + (r.completed ? "true" : "false");
    out += ",\"rounds\":" + std::to_string(r.rounds);
    out += ",\"rounds_executed\":" + std::to_string(r.rounds_executed);
    out += ",\"sends\":" + std::to_string(r.sends);
    out += ",\"collisions\":" + std::to_string(r.collisions);
    out += ",\"tokens\":" + std::to_string(r.tokens);
    if (include_timing) out += ",\"wall_us\":" + std::to_string(r.wall_us);
    out += "}\n";
  }
  return out;
}

std::string trials_to_csv(const std::vector<TrialRow>& rows,
                          bool include_timing) {
  std::string out =
      "scenario,trial,seed,completed,rounds,rounds_executed,sends,"
      "collisions,tokens";
  if (include_timing) out += ",wall_us";
  out += '\n';
  for (const TrialRow& r : rows) {
    require_exportable(r.scenario);
    out += r.scenario;
    out += ',' + std::to_string(r.trial);
    out += ',' + std::to_string(r.seed);
    out += ',' + std::string(r.completed ? "1" : "0");
    out += ',' + std::to_string(r.rounds);
    out += ',' + std::to_string(r.rounds_executed);
    out += ',' + std::to_string(r.sends);
    out += ',' + std::to_string(r.collisions);
    out += ',' + std::to_string(r.tokens);
    if (include_timing) out += ',' + std::to_string(r.wall_us);
    out += '\n';
  }
  return out;
}

std::string summaries_to_jsonl(const std::vector<ScenarioSummary>& summaries,
                               bool include_timing) {
  std::string out;
  for (const ScenarioSummary& s : summaries) {
    require_exportable(s.scenario);
    const bool any = s.rounds.count > 0;
    const auto stat = [&](double v) { return fmt_double(any ? v : -1.0); };
    out += "{\"scenario\":\"" + s.scenario + "\"";
    out += ",\"trials\":" + std::to_string(s.trials);
    out += ",\"failures\":" + std::to_string(s.failures);
    out += ",\"mean_rounds\":" + stat(s.rounds.mean);
    out += ",\"stddev_rounds\":" + stat(s.rounds.stddev);
    out += ",\"min_rounds\":" + stat(s.rounds.min);
    out += ",\"max_rounds\":" + stat(s.rounds.max);
    out += ",\"median_rounds\":" + stat(s.rounds.median);
    out += ",\"p90_rounds\":" + stat(s.rounds.p90);
    out += ",\"mean_sends\":" + fmt_double(s.mean_sends);
    out += ",\"mean_collisions\":" + fmt_double(s.mean_collisions);
    if (include_timing) out += ",\"mean_wall_ms\":" + fmt_double(s.mean_wall_ms);
    out += "}\n";
  }
  return out;
}

std::string summaries_to_csv(const std::vector<ScenarioSummary>& summaries,
                             bool include_timing) {
  std::string out =
      "scenario,trials,failures,mean_rounds,stddev_rounds,min_rounds,"
      "max_rounds,median_rounds,p90_rounds,mean_sends,mean_collisions";
  if (include_timing) out += ",mean_wall_ms";
  out += '\n';
  for (const ScenarioSummary& s : summaries) {
    require_exportable(s.scenario);
    const bool any = s.rounds.count > 0;
    const auto stat = [&](double v) { return fmt_double(any ? v : -1.0); };
    out += s.scenario;
    out += ',' + std::to_string(s.trials);
    out += ',' + std::to_string(s.failures);
    out += ',' + stat(s.rounds.mean);
    out += ',' + stat(s.rounds.stddev);
    out += ',' + stat(s.rounds.min);
    out += ',' + stat(s.rounds.max);
    out += ',' + stat(s.rounds.median);
    out += ',' + stat(s.rounds.p90);
    out += ',' + fmt_double(s.mean_sends);
    out += ',' + fmt_double(s.mean_collisions);
    if (include_timing) out += ',' + fmt_double(s.mean_wall_ms);
    out += '\n';
  }
  return out;
}

std::vector<TrialRow> trials_from_jsonl(const std::string& text) {
  std::vector<TrialRow> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    jsonl::require_flat_object(line);
    TrialRow r;
    r.scenario = std::string(field(line, "scenario"));
    r.trial = static_cast<std::uint32_t>(to_u64(field(line, "trial")));
    r.seed = to_u64(field(line, "seed"));
    const std::string_view completed = field(line, "completed");
    DUALRAD_REQUIRE(completed == "true" || completed == "false",
                    "completed must be true/false");
    r.completed = completed == "true";
    r.rounds = to_ll(field(line, "rounds"));
    r.rounds_executed = to_ll(field(line, "rounds_executed"));
    r.sends = to_u64(field(line, "sends"));
    r.collisions = to_u64(field(line, "collisions"));
    // Optional keys: absent in exports predating multi-message / timing.
    const std::optional<std::string_view> tokens = field_opt(line, "tokens");
    r.tokens = tokens.has_value() ? static_cast<std::int32_t>(to_ll(*tokens)) : 1;
    const std::optional<std::string_view> wall = field_opt(line, "wall_us");
    r.wall_us = wall.has_value() ? to_ll(*wall) : -1;
    rows.push_back(std::move(r));
  }
  return rows;
}

std::string telemetry_to_jsonl(const std::vector<TelemetryRow>& rows) {
  std::string out;
  for (const TelemetryRow& r : rows) {
    require_exportable(r.scenario);
    out += "{\"scenario\":\"" + r.scenario + "\"";
    out += ",\"trial\":" + std::to_string(r.trial);
    out += ",\"wall_us\":" + std::to_string(r.wall_us);
    out += ",\"poll_ns\":" + std::to_string(r.poll_ns);
    out += ",\"adversary_ns\":" + std::to_string(r.adversary_ns);
    out += ",\"propagate_ns\":" + std::to_string(r.propagate_ns);
    out += ",\"deliver_ns\":" + std::to_string(r.deliver_ns);
    out += ",\"merge_ns\":" + std::to_string(r.merge_ns);
    out += ",\"polled\":" + std::to_string(r.polled);
    out += ",\"senders\":" + std::to_string(r.senders);
    out += ",\"deliveries\":" + std::to_string(r.deliveries);
    out += ",\"collisions\":" + std::to_string(r.collisions);
    out += ",\"calendar_scanned\":" + std::to_string(r.calendar_scanned);
    out += ",\"replans\":" + std::to_string(r.replans);
    out += ",\"reach_appends\":" + std::to_string(r.reach_appends);
    out += ",\"newly_covered\":" + std::to_string(r.newly_covered);
    out += ",\"max_round_deliveries\":" +
           std::to_string(r.max_round_deliveries);
    out += "}\n";
  }
  return out;
}

std::vector<TelemetryRow> telemetry_from_jsonl(const std::string& text) {
  std::vector<TelemetryRow> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    jsonl::require_flat_object(line);
    TelemetryRow r;
    r.scenario = std::string(field(line, "scenario"));
    r.trial = static_cast<std::uint32_t>(to_u64(field(line, "trial")));
    // Everything else is optional: lines from before a given counter existed
    // (including timing-only legacy rows with just wall_us) parse with that
    // counter at its default.
    const auto opt_ll = [&](std::string_view key, std::int64_t dflt) {
      const std::optional<std::string_view> v = field_opt(line, key);
      return v.has_value() ? to_ll(*v) : dflt;
    };
    const auto opt_u64 = [&](std::string_view key) -> std::uint64_t {
      const std::optional<std::string_view> v = field_opt(line, key);
      return v.has_value() ? to_u64(*v) : 0;
    };
    r.wall_us = opt_ll("wall_us", -1);
    r.poll_ns = opt_u64("poll_ns");
    r.adversary_ns = opt_u64("adversary_ns");
    r.propagate_ns = opt_u64("propagate_ns");
    r.deliver_ns = opt_u64("deliver_ns");
    r.merge_ns = opt_u64("merge_ns");
    r.polled = opt_u64("polled");
    r.senders = opt_u64("senders");
    r.deliveries = opt_u64("deliveries");
    r.collisions = opt_u64("collisions");
    r.calendar_scanned = opt_u64("calendar_scanned");
    r.replans = opt_u64("replans");
    r.reach_appends = opt_u64("reach_appends");
    r.newly_covered = opt_u64("newly_covered");
    r.max_round_deliveries = opt_u64("max_round_deliveries");
    rows.push_back(std::move(r));
  }
  return rows;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("dualrad: cannot open " + path);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  if (!out) throw std::runtime_error("dualrad: write failed: " + path);
}

}  // namespace dualrad::campaign
