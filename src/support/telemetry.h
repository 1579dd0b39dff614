// Campaign telemetry: a lock-light metrics registry and a structured
// trace-event stream.
//
// Everything here is OFF the determinism path by construction: metrics
// and traces observe a campaign, they never feed back into what a cell
// computes, which fields enter the campaign fingerprint, or the bytes
// of campaign::canonical_result_bytes. Enabling or disabling telemetry
// must leave campaign results bit-identical — a property the test suite
// and CI assert directly.
//
// MetricsRegistry
//   Named monotonic counters, gauges, and fixed-bucket latency
//   histograms. Counters and histograms are sharded per thread: the hot
//   path is one thread-local lookup plus a relaxed atomic add on a
//   cache line no other thread writes. Registration (name -> id) is the
//   cold path, done once per call site under a mutex; snapshot() merges
//   the live shards with the counts retired by joined worker threads,
//   so campaign workers that come and go never lose a count.
//
// Trace stream
//   A process-global JSONL sink (set_trace_path). Each event is one
//   line — {"seq":N,"ts_us":M,"event":"...", ...} — appended with the
//   same RetryPolicy discipline as the checkpoint journal: transient
//   errnos are retried with deterministic backoff, permanent failures
//   degrade the sink (tracing turns itself off, once, loudly) instead
//   of failing the campaign. With no sink configured, trace_active() is
//   a single relaxed load and events cost nothing to skip. The matching
//   reader (read_trace) tolerates a torn last line, exactly like the
//   checkpoint's torn-tail rule, so a monitor can tail the stream of a
//   live — or SIGKILLed — shard.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/result.h"

namespace iris::support {

/// Stable handle for a registered metric. Register once per call site
/// (a function-local static); add/observe with the id on the hot path.
using MetricId = std::uint32_t;

/// Returned when the registry's fixed capacity is exhausted; add(),
/// set_gauge() and observe() silently ignore it.
constexpr MetricId kInvalidMetric = ~MetricId{0};

/// One merged view of the registry, sorted by name for stable output.
struct MetricsSnapshot {
  struct Histogram {
    std::string name;
    std::vector<double> bounds;        ///< upper bucket bounds
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow)
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<Histogram> histograms;

  /// Counter value by name (0 when absent) — convenience for status
  /// publishing and tests.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
};

class MetricsRegistry {
 public:
  /// Opaque implementation; public only so the .cpp's thread-local shard
  /// machinery (file-scope, not a member) can name it.
  struct Impl;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up) a metric. Idempotent per name; returns
  /// kInvalidMetric when the fixed table is full or in a forked child.
  MetricId counter_id(std::string_view name);
  MetricId gauge_id(std::string_view name);
  /// Histogram with the default microsecond-latency bucket bounds.
  MetricId histogram_id(std::string_view name);
  MetricId histogram_id(std::string_view name, std::span<const double> bounds);

  /// Hot path: relaxed add on this thread's shard.
  void add(MetricId counter, std::uint64_t delta = 1) noexcept;
  /// Gauges are cold, unsharded, last-write-wins.
  void set_gauge(MetricId gauge, double value) noexcept;
  /// Hot-ish path: bucket + sum on this thread's shard.
  void observe(MetricId histogram, double value) noexcept;

  /// Merge retired + live shards into one stable-sorted view.
  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zero every value; registrations (and handed-out ids) survive.
  void reset_values();

 private:
  Impl* impl_;
};

/// The process-wide registry every instrumentation site uses. Immortal
/// (never destroyed), so worker threads retiring their shards at exit
/// can never race its teardown.
MetricsRegistry& metrics();

/// Declare this process a forked sandbox child. From then on every
/// registry registration and recording call (counter_id, gauge_id,
/// histogram_id, add, observe) returns at once: the child's counts die
/// with it anyway, and those calls may take a registry mutex that some
/// parent thread held at fork time, which would hang the child until
/// its watchdog fires. So a metric bumped only inside a sandboxed cell
/// (pool.resets, for one) counts parent-side work alone.
void note_forked_child() noexcept;
bool in_forked_child() noexcept;

/// Hook for support::retry_io: counts retry.attempts and a per-errno
/// retry.errno.<NAME> counter. Non-template so retry.h stays header-only
/// without pulling the registry internals into every caller.
void note_io_retry(int sys_errno);

// --- Structured trace events ---------------------------------------

/// One event under construction. Values are rendered at add time:
/// num() prints integral values without a decimal point (so counts
/// round-trip exactly), str() JSON-escapes.
class TraceEvent {
 public:
  explicit TraceEvent(std::string_view event) : event_(event) {}
  TraceEvent& num(std::string_view key, double value);
  TraceEvent& str(std::string_view key, std::string_view value);

  [[nodiscard]] const std::string& event() const noexcept { return event_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  fields() const noexcept {
    return fields_;
  }

 private:
  std::string event_;
  /// key -> pre-rendered JSON value ("7", "1.5", "\"quoted\"").
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Install (or, with an empty path, remove) the process-wide JSONL
/// sink. `shard_label`, when non-empty, is stamped into every event as
/// "shard". Opening append-mode: successive runs extend the stream.
Status set_trace_path(const std::string& path, std::string_view shard_label = "");

/// One relaxed load; instrumentation sites gate event construction on
/// this so an unconfigured trace stream costs nothing.
bool trace_active() noexcept;

/// Append one event (no-op unless a sink is configured). Thread-safe;
/// each line carries a monotonically increasing seq and a monotonic
/// ts_us relative to sink installation.
void trace(TraceEvent&& event);

/// A parsed trace line.
struct ParsedTraceEvent {
  std::uint64_t seq = 0;
  double ts_us = 0.0;
  std::string event;
  /// Every field incl. seq/ts_us/event/shard; string values unescaped.
  std::vector<std::pair<std::string, std::string>> fields;

  [[nodiscard]] const std::string* field(std::string_view key) const;
  [[nodiscard]] std::optional<double> num(std::string_view key) const;
};

struct TraceFile {
  std::vector<ParsedTraceEvent> events;
  std::size_t skipped_lines = 0;  ///< unparseable complete lines
  /// Events provably missing from the stream: forward jumps in the
  /// per-sink seq numbering (corrupt-skipped lines leave gaps too). A
  /// backwards seq is a sink reinstall and resets the expectation.
  std::uint64_t seq_gaps = 0;
  bool torn_tail = false;         ///< file ended mid-line (live/killed writer)
};

/// Read a JSONL trace stream, tolerating a torn last line and skipping
/// (counting) corrupt complete lines — a monitor must be able to tail
/// the stream of a shard that is mid-write or freshly SIGKILLed.
Result<TraceFile> read_trace(const std::string& path);

// --- Minimal flat-JSON parsing --------------------------------------
// Just enough JSON for what this layer emits: one object of string /
// number scalars, arrays of numbers, and one level of nested objects
// with scalar values (status-file "counters"/"gauges"). Not a general
// parser.

struct FlatJson {
  struct Scalar {
    bool is_string = false;
    std::string text;    ///< unescaped string, or the number's literal text
    double value = 0.0;  ///< numeric value (0 for strings)
  };
  /// Scalars, with nested-object children flattened as "parent/child"
  /// (metric names themselves contain dots, so '.' cannot separate).
  std::vector<std::pair<std::string, Scalar>> scalars;
  std::vector<std::pair<std::string, std::vector<double>>> arrays;

  [[nodiscard]] const Scalar* find(std::string_view key) const;
  [[nodiscard]] std::optional<double> num(std::string_view key) const;
  [[nodiscard]] std::optional<std::string_view> str(std::string_view key) const;
  [[nodiscard]] const std::vector<double>* array(std::string_view key) const;

  static Result<FlatJson> parse(std::string_view text);
};

/// JSON-escape a string for emission ("\"" -> "\\\"", control chars to
/// \uXXXX). Shared by the trace sink and the status writer.
std::string json_escape(std::string_view text);

/// Render a double the way the whole layer does: integral values as
/// integers (so counts round-trip exactly), everything else with full
/// round-trip precision. Shared by the trace sink and the status writer.
std::string format_number(double value);

}  // namespace iris::support
