#pragma once

// The command-line layer dualrad_campaign and dualrad_serve share: the flags
// both take (scenario selection, seeding, the journal, the five exports),
// one strict parser for those and each tool's own flags, the export writer,
// and the summary table.

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "stats/table.hpp"

namespace dualrad::cli {

/// The flags both tools take.
struct RunOptions {
  std::string filter;
  std::uint64_t seed = 1;
  std::size_t trials = 0;          ///< 0: each scenario's own count
  unsigned threads_per_trial = 0;  ///< 0: the tool's default
  unsigned heartbeat_secs = 0;
  std::string journal_path;
  bool resume = false;
  bool quiet = false;
  bool help = false;
  std::string jsonl_path;
  std::string csv_path;
  std::string summary_jsonl_path;
  std::string summary_csv_path;
  std::string telemetry_jsonl_path;
};

inline constexpr const char* kRunUsage =
    "  --filter=F          scenarios whose name or tags contain F (default:\n"
    "                      all); a filter starting with adhoc/ is a scenario\n"
    "                      spec and runs exactly that scenario, e.g.\n"
    "                      adhoc/bridge:n=16/harmonic/greedy/cr4/async\n"
    "  --seed=N            master seed (default 1)\n"
    "  --trials=N          override every scenario's trial count\n"
    "  --threads-per-trial=N  sharded round kernel inside each trial\n"
    "                      (default 1); output is identical for any value\n"
    "  --heartbeat=SECS    print progress to stderr every SECS seconds\n"
    "  --journal=PATH      append every committed trial to a crash-safe\n"
    "                      checkpoint journal (whole-line writes + fsync);\n"
    "                      SIGINT/SIGTERM then stop cleanly with exit 130\n"
    "  --resume            load --journal first and skip its trials; the\n"
    "                      merged exports are byte-identical to an\n"
    "                      uninterrupted run\n"
    "  --jsonl=PATH        per-trial rows as JSONL\n"
    "  --csv=PATH          per-trial rows as CSV\n"
    "  --summary-jsonl=PATH  per-scenario summaries as JSONL\n"
    "  --summary-csv=PATH    per-scenario summaries as CSV\n"
    "  --telemetry-jsonl=PATH  collect per-trial telemetry (phase times and\n"
    "                      engine counters) and write it as JSONL; journaled\n"
    "                      with the rows. The exports above are unchanged\n"
    "  --quiet             suppress the summary table on stdout\n"
    "  --help              print this text\n";

/// The whole of `text` as a T. It must start with a digit (no sign, space,
/// inf or nan) and std::from_chars must consume all of it without overflow;
/// otherwise throws std::invalid_argument naming `flag`.
template <class T>
[[nodiscard]] T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0 ||
      ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("malformed number: " + std::string(flag) +
                                "=" + std::string(text));
  }
  return value;
}

/// A command line's flags, each bound to the variable it sets.
class Flags {
 public:
  /// `flag` alone sets `target`.
  Flags& on(std::string_view flag, bool& target) {
    takers_.push_back([flag, &target](std::string_view arg) {
      if (arg != flag) return false;
      target = true;
      return true;
    });
    return *this;
  }

  /// `flag=TEXT`.
  Flags& text(std::string_view flag, std::string& target) {
    return bind(flag, [&target](std::string_view value) { target = value; });
  }

  /// `flag=N`, parsed whole by parse_number.
  template <class T>
  Flags& number(std::string_view flag, T& target) {
    return bind(flag, [flag, &target](std::string_view value) {
      target = parse_number<T>(flag, value);
    });
  }

  /// Hand `arg` to the flag it names; false if none does. Throws
  /// std::invalid_argument on a malformed number.
  [[nodiscard]] bool take(std::string_view arg) const {
    for (const auto& taker : takers_) {
      if (taker(arg)) return true;
    }
    return false;
  }

 private:
  Flags& bind(std::string_view flag,
              std::function<void(std::string_view)> set) {
    takers_.push_back([flag, set = std::move(set)](std::string_view arg) {
      if (arg.size() <= flag.size() || !arg.starts_with(flag) ||
          arg[flag.size()] != '=') {
        return false;
      }
      set(arg.substr(flag.size() + 1));
      return true;
    });
    return *this;
  }

  std::vector<std::function<bool(std::string_view)>> takers_;
};

/// Parse argv[first, argc) into `run` and the tool's own `flags`. Returns
/// false, after saying why on stderr, on an unknown argument, a malformed
/// number or scenario spec, a spec whose network parse_spec cannot build
/// (with tokens=K it builds one), or --resume without --journal; the caller
/// then prints its usage and exits 2.
[[nodiscard]] inline bool parse_command_line(int argc, char** argv, int first,
                                             Flags& flags, RunOptions& run) {
  flags.on("--help", run.help)
      .on("-h", run.help)
      .on("--quiet", run.quiet)
      .on("--resume", run.resume)
      .text("--filter", run.filter)
      .number("--seed", run.seed)
      .number("--trials", run.trials)
      .number("--threads-per-trial", run.threads_per_trial)
      .number("--heartbeat", run.heartbeat_secs)
      .text("--journal", run.journal_path)
      .text("--jsonl", run.jsonl_path)
      .text("--csv", run.csv_path)
      .text("--summary-jsonl", run.summary_jsonl_path)
      .text("--summary-csv", run.summary_csv_path)
      .text("--telemetry-jsonl", run.telemetry_jsonl_path);
  try {
    for (int i = first; i < argc; ++i) {
      if (!flags.take(argv[i])) {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        return false;
      }
    }
    if (run.filter.starts_with(campaign::kSpecPrefix)) {
      (void)campaign::parse_spec(run.filter);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
  if (run.resume && run.journal_path.empty()) {
    std::fprintf(stderr, "--resume needs --journal=PATH\n");
    return false;
  }
  return true;
}

/// Write every export `run` names; `timed` adds the wall-time columns.
inline void write_exports(const RunOptions& run,
                          const campaign::CampaignResult& result, bool timed) {
  const auto write = [](const std::string& path, const auto& render) {
    if (!path.empty()) campaign::write_file(path, render());
  };
  write(run.jsonl_path,
        [&] { return campaign::trials_to_jsonl(result.trials, timed); });
  write(run.csv_path,
        [&] { return campaign::trials_to_csv(result.trials, timed); });
  write(run.summary_jsonl_path,
        [&] { return campaign::summaries_to_jsonl(result.summaries, timed); });
  write(run.summary_csv_path,
        [&] { return campaign::summaries_to_csv(result.summaries, timed); });
  write(run.telemetry_jsonl_path,
        [&] { return campaign::telemetry_to_jsonl(result.telemetry); });
}

/// The stdout summary table, one row per scenario; `timed` adds mean ms
/// ("-" when no trial of the scenario was timed).
inline void print_summary_table(const campaign::CampaignResult& result,
                                bool timed) {
  std::vector<std::string> header = {"scenario",    "trials", "failed",
                                     "mean rounds", "median", "p90",
                                     "mean sends"};
  if (timed) header.push_back("mean ms");
  stats::Table table(header);
  for (const campaign::ScenarioSummary& s : result.summaries) {
    const bool any = s.rounds.count > 0;
    std::vector<std::string> row = {
        s.scenario, std::to_string(s.trials), std::to_string(s.failures),
        any ? stats::Table::num(s.rounds.mean, 1) : "-",
        any ? stats::Table::num(s.rounds.median, 1) : "-",
        any ? stats::Table::num(s.rounds.p90, 1) : "-",
        stats::Table::num(s.mean_sends, 1)};
    if (timed) {
      row.push_back(s.mean_wall_ms < 0 ? "-"
                                       : stats::Table::num(s.mean_wall_ms, 2));
    }
    table.add_row(row);
  }
  table.print(std::cout);
}

}  // namespace dualrad::cli
