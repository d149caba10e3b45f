#pragma once

#include <string>
#include <vector>

#include "campaign/engine.hpp"

/// \file export.hpp
/// Serialization of campaign results: JSONL (one object per line) and CSV,
/// for per-trial rows and per-scenario summaries, plus parsers for the JSONL
/// trial and telemetry streams (the checkpoint journal and the serve wire
/// carry them).
///
/// Output is a pure function of the rows: fixed key order, fixed number
/// formatting ("%.*g" for doubles, decimal for integers), "\n" line endings.
/// Combined with the engine's determinism contract this makes whole exported
/// files bit-identical across runs and worker counts.

namespace dualrad::campaign {

/// Per-trial JSONL. Keys per line: scenario, trial, seed, completed, rounds,
/// rounds_executed, sends, collisions, tokens — plus wall_us when
/// `include_timing` is set. Timing is opt-in because wall time varies run to
/// run: files written without it stay byte-identical across worker counts
/// and machines (the determinism contract); files written with it do not.
[[nodiscard]] std::string trials_to_jsonl(const std::vector<TrialRow>& rows,
                                          bool include_timing = false);

/// Per-trial CSV with header
/// scenario,trial,seed,completed,rounds,rounds_executed,sends,collisions,
/// tokens[,wall_us]. Same timing opt-in as trials_to_jsonl.
[[nodiscard]] std::string trials_to_csv(const std::vector<TrialRow>& rows,
                                        bool include_timing = false);

/// Per-scenario summary JSONL. Keys: scenario, trials, failures,
/// mean_rounds, stddev_rounds, min_rounds, max_rounds, median_rounds,
/// p90_rounds, mean_sends, mean_collisions — plus mean_wall_ms when
/// `include_timing` is set. Round statistics are -1 when no trial completed.
[[nodiscard]] std::string summaries_to_jsonl(
    const std::vector<ScenarioSummary>& summaries, bool include_timing = false);

[[nodiscard]] std::string summaries_to_csv(
    const std::vector<ScenarioSummary>& summaries, bool include_timing = false);

/// Inverse of trials_to_jsonl. Throws std::invalid_argument on malformed
/// input (missing key, truncated line, non-numeric field). The tokens and
/// wall_us keys are optional on input (defaults 1 and -1) so pre-multi-token
/// and untimed exports keep parsing.
[[nodiscard]] std::vector<TrialRow> trials_from_jsonl(const std::string& text);

/// Per-trial telemetry JSONL (CampaignResult::telemetry). Keys per line:
/// scenario, trial, wall_us, poll_ns, adversary_ns, propagate_ns,
/// deliver_ns, merge_ns, polled, senders, deliveries, collisions,
/// calendar_scanned, replans, reach_appends, newly_covered,
/// max_round_deliveries. This stream is opt-in and — unlike the default
/// trial exports — inherently nondeterministic (it carries wall times); the
/// counter totals in it ARE deterministic.
[[nodiscard]] std::string telemetry_to_jsonl(
    const std::vector<TelemetryRow>& rows);

/// Inverse of telemetry_to_jsonl. Only scenario and trial are required:
/// wall_us defaults to -1 and every telemetry counter to 0, so legacy lines
/// that carry wall_us but predate the telemetry columns still parse.
[[nodiscard]] std::vector<TelemetryRow> telemetry_from_jsonl(
    const std::string& text);

/// Write `content` to `path` (truncating). Throws std::runtime_error on I/O
/// failure.
void write_file(const std::string& path, const std::string& content);

}  // namespace dualrad::campaign
