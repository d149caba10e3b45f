#pragma once

/// \file support.hpp
/// Helpers of the repository benchmark that carry their own arithmetic and
/// are therefore self-tested (bench.cpp --self-test): the nearest-rank
/// percentile with the ten-beyond rule, the in-memory span log and its
/// self-time computation, and the FNV-1a export digest.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

// --- percentiles --------------------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]) of `values`: the smallest sample
/// such that at least p% of the samples are <= it. nullopt when empty.
[[nodiscard]] inline std::optional<double> nearest_rank(std::vector<double> values,
                                                        double p) {
  if (values.empty() || !(p > 0.0) || p > 100.0) return std::nullopt;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it: n * (100 - p) / 100 >= 10, so p90 needs 100 samples and p99 1000.
[[nodiscard]] inline bool tail_supported(std::size_t samples, double p) {
  return static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9;
}

/// nearest_rank under the ten-beyond rule; nullopt when refused.
[[nodiscard]] inline std::optional<double> tail_percentile(
    const std::vector<double>& values, double p) {
  if (!tail_supported(values.size(), p)) return std::nullopt;
  return nearest_rank(values, p);
}

// --- digests ------------------------------------------------------------------

/// FNV-1a 64 of `bytes`, as 16 lower-case hex digits.
[[nodiscard]] inline std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- spans --------------------------------------------------------------------

/// One closed span: a named interval at a layer boundary. `parent` is the
/// span that caused it (0: none); spans opened on a pool thread with no open
/// span of their own hang off the log's current root (the pass span).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t thread = 0;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// The span of `name` up to its first '.', e.g. "core" for "core.run".
[[nodiscard]] inline std::string layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may overlap
/// (pool threads) or stick out of the parent; both are handled by clipping
/// and merging. Result is indexed like `spans`.
[[nodiscard]] inline std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::uint64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    const std::uint64_t duration = s.end_ns - s.start_ns;
    const auto it = children.find(s.id);
    if (it == children.end()) {
      out.push_back(duration);
      continue;
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (auto [a, b] : it->second) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_a = 0;
    std::uint64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out.push_back(duration - covered);
  }
  return out;
}

/// Thread-safe in-memory span log. While disabled it records nothing and a
/// span costs a branch; spans are written out only when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  /// Switched per pass: only traced passes record.
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  [[nodiscard]] std::uint32_t next_id() { return next_.fetch_add(1); }
  [[nodiscard]] std::uint32_t root() const { return root_.load(); }
  void set_root(std::uint32_t id) { root_.store(id); }

  void record(Span span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  std::atomic<bool> enabled_;
  std::atomic<std::uint32_t> next_{1};
  std::atomic<std::uint32_t> root_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

[[nodiscard]] inline std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

/// RAII span: opens at construction, closes at destruction (or close()).
/// Nesting on one thread follows a thread-local stack. A `root` span is
/// also the parent of spans that pool threads open while it is open.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, bool root = false) : log_(log) {
    if (!log_.enabled()) return;
    span_.id = log_.next_id();
    span_.parent = stack().empty() ? log_.root() : stack().back();
    span_.thread = thread_tag();
    span_.name = std::move(name);
    span_.start_ns = now_ns();
    stack().push_back(span_.id);
    if (root) {
      previous_root_ = log_.root();
      log_.set_root(span_.id);
      root_ = true;
    }
    open_ = true;
  }
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return span_.id; }

  void close() {
    if (!open_) return;
    open_ = false;
    span_.end_ns = now_ns();
    stack().pop_back();
    if (root_) log_.set_root(previous_root_);
    log_.record(std::move(span_));
  }

 private:
  static std::vector<std::uint32_t>& stack() {
    thread_local std::vector<std::uint32_t> s;
    return s;
  }

  SpanLog& log_;
  Span span_{};
  bool open_ = false;
  bool root_ = false;
  std::uint32_t previous_root_ = 0;
};

}  // namespace perfbench
