#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/engine.hpp"

/// \file checkpoint.hpp
/// The append-only campaign journal behind checkpoint/resume.
///
/// One line per committed trial:
///
///   xxxxxxxx {"scenario":"...","trial":0,...}\n
///
/// and (since telemetry journaling) one optional line per telemetry row,
/// marked with a "t " payload prefix:
///
///   xxxxxxxx t {"scenario":"...","trial":0,"wall_us":...}\n
///
/// where xxxxxxxx is the lower-case hex CRC-32 of everything after the
/// separating space (for telemetry lines that includes the "t " marker). The
/// trial JSON is the canonical untimed trial row (campaign/export.hpp
/// trials_to_jsonl), so a journal is itself a readable JSONL file modulo the
/// CRC column, and the byte equality used for exactly-once dedup is the same
/// byte equality the export contract pins. Journals without telemetry lines
/// are exactly the pre-telemetry format, so old journals load unchanged.
///
/// Torn-write tolerance: a crash can tear at most the FINAL line (the writer
/// appends whole lines and fsyncs). load_journal() therefore drops a trailing
/// line that is incomplete or fails its CRC — reporting it — but treats any
/// earlier damage as corruption and throws, and JournalWriter::open() cuts
/// such a fragment before its first append. Re-journaled duplicates (the
/// at-least-once window between commit and crash) are byte-compared: equal
/// rows dedupe silently, conflicting rows for the same (scenario, trial)
/// throw. Telemetry rows carry wall times and are inherently
/// nondeterministic, so they dedupe first-wins and never conflict.
///
/// Both front ends read and write journals through one campaign::Ledger
/// (campaign/ledger.hpp), so a journal written by either resumes the other.

namespace dualrad::serve {

struct JournalLoad {
  /// Deduplicated committed rows, in journal (= commit) order.
  std::vector<campaign::TrialRow> rows;
  /// Journaled telemetry rows, deduplicated first-wins per (scenario, trial),
  /// in journal order.
  std::vector<campaign::TelemetryRow> telemetry;
  /// 1 if a torn trailing line was dropped, else 0.
  std::size_t dropped_torn_tail = 0;
  /// Byte-identical duplicate lines skipped.
  std::size_t duplicates = 0;
};

/// Parse journal text. Throws std::invalid_argument on mid-file corruption
/// or conflicting rows for one (scenario, trial).
[[nodiscard]] JournalLoad parse_journal(const std::string& text);

/// Read and parse a journal file. Throws std::runtime_error if unreadable.
[[nodiscard]] JournalLoad load_journal(const std::string& path);

/// Serialize one row as a journal line (CRC column, trailing newline).
[[nodiscard]] std::string journal_line(const campaign::TrialRow& row);

/// Serialize one telemetry row as a journal line ("t " marker, CRC column,
/// trailing newline).
[[nodiscard]] std::string journal_line(const campaign::TelemetryRow& row);

/// Append-only journal writer. Lines are written with a single write(2) to
/// an O_APPEND descriptor and fsynced, so concurrent writers cannot
/// interleave within a line and a crash tears at most the tail.
///
/// Failure contract: every append throws std::runtime_error on any write or
/// fsync error — a commit whose durability is unknown must fail loudly, not
/// limp on. Because lines are whole-line appends, a failed append leaves the
/// journal's valid prefix intact (at worst a torn tail, which the loader
/// drops and the next open() cuts). This is also the checkpoint
/// fault-injection seam: an installed faultline::FaultInjector can simulate
/// torn writes, fsync EIO, and ENOSPC here.
class JournalWriter {
 public:
  JournalWriter() = default;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter() { close(); }

  /// Open (creating or appending), first cutting a torn final line — the
  /// bytes after the last newline — so the first append starts a fresh line
  /// instead of gluing onto the fragment. Throws std::runtime_error on
  /// failure. Every append is fsynced: trials cost orders of magnitude more
  /// than an fsync, so each committed row is made crash-durable.
  void open(const std::string& path);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  /// Append one committed row. Throws std::runtime_error on I/O failure.
  void append(const campaign::TrialRow& row);

  /// Append one telemetry row. Throws std::runtime_error on I/O failure.
  void append(const campaign::TelemetryRow& row);

  void close();

 private:
  void append_line(const std::string& line);

  int fd_ = -1;
};

}  // namespace dualrad::serve
