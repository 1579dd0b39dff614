// Shared pieces of the bench_ledger benchmark: timing, distribution
// summaries, result lines, and the layer accounting the traced run uses.
//
// The benchmark drives IRIS only through the public headers of fuzz/,
// iris/, hv/, guest/ and campaign/ (plus the support/ helpers they
// return); nothing here reaches into a translation unit's internals.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "fuzz/campaign.h"
#include "vtx/exit_reason.h"

namespace ledger {

// --- Time ----------------------------------------------------------------

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t from_ns, std::int64_t to_ns) noexcept {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

/// Timestamps for the traced replicas, which read the clock several
/// times per mutant: the TSC where the host has one (a few ns per read),
/// else steady_clock nanoseconds. tick_ns() converts.
inline std::int64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return now_ns();
#endif
}

/// Nanoseconds per tick, measured once against steady_clock.
double tick_ns();

/// FNV-1a over a fixed 512 KiB buffer: the host calibration loop. Its
/// time moves with the host's effective speed, never with IRIS code, so
/// it is reported next to every run as context for cross-run drift.
double calibration_ms();

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double peak_rss_mb();

// --- Distributions -------------------------------------------------------

struct Summary {
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles, computed exactly as Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method) does.
Summary summarize(std::vector<double> values);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

// --- Result lines ---------------------------------------------------------

/// One measured metric of one workload, with every sample it came from.
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
  /// The per-run figure: the median of the samples unless the metric says
  /// otherwise (README.md, "End-to-end metrics").
  double value = 0.0;
};

/// Prints {workload, metric, unit, value, median, p25, p75, n} as one
/// JSON line on stdout.
void print_metric_line(std::string_view workload, const Metric& metric);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result_line(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics);

// --- Correctness ----------------------------------------------------------

std::uint64_t result_hash(const iris::fuzz::CampaignResult& result);
std::string hex64(std::uint64_t value);

/// Pinned oracle values for one seed, read from a flat JSON file
/// ({"seed": 42, "<key>": "<value>", ...}). Keys absent from the file
/// are not checked.
class Oracles {
 public:
  /// Loads `path` if it pins `seed`; an unreadable file is an error
  /// (returns false with a message on stderr).
  bool load(const std::string& path, std::uint64_t seed);

  /// Compares `actual` against the pinned value of `key` (if any) and
  /// reports the outcome on stderr. Returns false only on a mismatch.
  bool check(const std::string& key, const std::string& actual);

 private:
  std::map<std::string, std::string> pinned_;
  bool active_ = false;
};

// --- Layer accounting (traced runs) -------------------------------------

/// Exit-reason buckets for per-reason layers: the nine Table I cluster
/// reasons plus everything else.
inline constexpr std::size_t kReasonBuckets = 10;
std::size_t reason_bucket(iris::vtx::ExitReason reason) noexcept;
std::string_view reason_label(std::size_t bucket) noexcept;

/// Layers whose self times partition a traced round. Every measured
/// interval is charged to exactly one of them; a coarse span's time not
/// covered by its children goes to the span's own "other" layer, and the
/// round's uncovered remainder is the residual.
enum Layer : std::uint8_t {
  kGuestNext,
  kProcessExit,  // + reason bucket, kReasonBuckets entries
  kInject = kProcessExit + kReasonBuckets,
  kCapture,
  kFinishExit,
  kTakeTrace,
  kMutate,
  kCoverageAdd,
  kRestore,
  kRearm,
  kPoolBuild,
  kPoolReset,
  kResetDummy,
  kEnableReplay,
  kSnapshot,
  kCellCoverage,
  kCellOther,
  kRecordOther,
  kDbSerialize,
  kDbWrite,
  kDbRead,
  kDbDeserialize,
  kRevertDummy,
  kPipelineOther,
  kAnalyze,
  kFinalize,
  kCanonical,
  kResidual,
  kNumLayers,
};

std::string layer_name(std::size_t layer);

/// Inclusive phase totals reported beside the self times (they overlap
/// the layers above and are not summed into the attribution).
enum Phase : std::uint8_t {
  kWalkSubmit,
  kMutantSubmit,
  kReplaySubmit,  // + reason bucket
  kCellBody = kReplaySubmit + kReasonBuckets,
  kDbSave,
  kDbLoad,
  kNumPhases,
};

std::string phase_name(std::size_t phase);

struct Tally {
  std::uint64_t calls = 0;
  std::int64_t ticks = 0;
  /// Clock reads charged to this tally; their measured cost is
  /// subtracted when self times are reported.
  std::uint64_t reads = 0;
};

/// A coarse span kept in memory and written out when the run ends.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = none
  std::string name;
  std::int64_t start_ticks = 0;
  std::int64_t end_ticks = 0;
};

/// Per-round accumulator of the traced replicas: per-call layer tallies,
/// inclusive phase totals, and the coarse spans with their parent ids.
class Tracer {
 public:
  /// Charge `t` ticks (which contain the cost of `reads` clock reads)
  /// to `layer`, and to the innermost open span's covered time.
  void add(std::size_t layer, std::int64_t t, std::uint64_t reads = 1) noexcept {
    Tally& tally = layers_[layer];
    ++tally.calls;
    tally.ticks += t;
    tally.reads += reads;
    if (!open_.empty()) open_.back().covered += t;
  }
  void add_phase(std::size_t phase, std::int64_t t, std::uint64_t calls = 1) noexcept {
    phases_[phase].calls += calls;
    phases_[phase].ticks += t;
  }

  /// Open a coarse span whose uncovered time is charged to `self_layer`.
  void open(std::string name, std::size_t self_layer);
  /// Close the innermost span; returns its duration in ticks.
  std::int64_t close();

  /// Ticks spent inside IRIS's start-of-exit hook (all of it) and inside
  /// the replayer's seed injection (a part of it). The hook wrappers add
  /// to these; the replicas take them after each exit.
  std::int64_t hook_ticks = 0;
  std::int64_t inject_ticks = 0;

  [[nodiscard]] const std::array<Tally, kNumLayers>& layers() const noexcept {
    return layers_;
  }
  [[nodiscard]] const std::array<Tally, kNumPhases>& phases() const noexcept {
    return phases_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  struct Open {
    std::size_t span = 0;
    std::size_t self_layer = 0;
    std::int64_t covered = 0;
  };
  std::array<Tally, kNumLayers> layers_{};
  std::array<Tally, kNumPhases> phases_{};
  std::vector<Span> spans_;
  std::vector<Open> open_;
};

/// Cost of one ticks() read, measured on this host, in ticks.
double clock_read_ticks();

}  // namespace ledger
