#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/checkpoint.h"
#include "support/serialize.h"
#include "support/telemetry.h"

namespace ledger {

double calibration_ms() {
  static const std::vector<std::uint8_t> buffer = [] {
    std::vector<std::uint8_t> bytes(512 * 1024);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
    }
    return bytes;
  }();
  const std::int64_t started = now_ns();
  const std::uint64_t hash = iris::fnv1a(buffer);
  const std::int64_t done = now_ns();
  // Keep the pass observable so it cannot be folded away.
  static volatile std::uint64_t sink = 0;
  sink = sink + hash;
  return ms_between(started, done);
}

double peak_rss_mb() {
  ::rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.p25 = s.p75 = values[0];
    return s;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut points at
  // i*m/4, clamped to [1, n-1], linearly interpolated.
  auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.p25 = cut(1);
  s.p75 = cut(3);
  return s;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void print_metric_line(std::string_view workload, const Metric& metric) {
  const Summary s = summarize(metric.samples);
  std::printf(
      "{\"workload\": \"%.*s\", \"metric\": \"%s\", \"unit\": \"%s\", "
      "\"value\": %s, \"median\": %s, \"p25\": %s, \"p75\": %s, \"n\": %zu}\n",
      static_cast<int>(workload.size()), workload.data(), metric.name.c_str(),
      metric.unit.c_str(), number(metric.value).c_str(), number(s.median).c_str(),
      number(s.p25).c_str(), number(s.p75).c_str(), s.n);
}

void print_result_line(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::uint64_t result_hash(const iris::fuzz::CampaignResult& result) {
  return iris::fnv1a(iris::campaign::canonical_result_bytes(result));
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

bool Oracles::load(const std::string& path, std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "oracles: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = iris::support::FlatJson::parse(text.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "oracles: %s is not valid JSON: %s\n", path.c_str(),
                 parsed.error().message.c_str());
    return false;
  }
  const auto pinned_seed = parsed.value().num("seed");
  active_ = pinned_seed && static_cast<std::uint64_t>(*pinned_seed) == seed;
  if (!active_) return true;
  for (const auto& [key, scalar] : parsed.value().scalars) {
    if (key != "seed") pinned_[key] = scalar.text;
  }
  return true;
}

bool Oracles::check(const std::string& key, const std::string& actual) {
  const auto it = active_ ? pinned_.find(key) : pinned_.end();
  if (it == pinned_.end()) {
    std::fprintf(stderr, "oracle %-44s %s\n", key.c_str(), actual.c_str());
    return true;
  }
  if (it->second == actual) {
    std::fprintf(stderr, "oracle %-44s %s  ok\n", key.c_str(), actual.c_str());
    return true;
  }
  std::fprintf(stderr, "oracle %-44s %s  MISMATCH (pinned %s)\n", key.c_str(),
               actual.c_str(), it->second.c_str());
  return false;
}

std::size_t reason_bucket(iris::vtx::ExitReason reason) noexcept {
  const auto& cluster = iris::vtx::kClusterReasons;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster[i] == reason) return i;
  }
  return cluster.size();
}

std::string_view reason_label(std::size_t bucket) noexcept {
  // Same order as vtx::kClusterReasons.
  static constexpr std::string_view kLabels[kReasonBuckets] = {
      "io", "vmcall", "cr", "cpuid", "ept", "extint", "intwin", "rdtsc", "hlt", "other"};
  return bucket < kReasonBuckets ? kLabels[bucket] : "other";
}

std::string layer_name(std::size_t layer) {
  if (layer >= kProcessExit && layer < kProcessExit + kReasonBuckets) {
    return "hv.process_exit." + std::string(reason_label(layer - kProcessExit));
  }
  switch (layer) {
    case kGuestNext: return "guest.next";
    case kInject: return "iris.inject";
    case kCapture: return "iris.capture";
    case kFinishExit: return "iris.record_finish_exit";
    case kTakeTrace: return "iris.record_take_trace";
    case kMutate: return "fuzz.mutate_into";
    case kCoverageAdd: return "hv.coverage_add";
    case kRestore: return "hv.restore";
    case kRearm: return "iris.rearm_replay";
    case kPoolBuild: return "fuzz.pool_build";
    case kPoolReset: return "fuzz.pool_reset";
    case kResetDummy: return "iris.reset_dummy_vm";
    case kEnableReplay: return "iris.enable_replay";
    case kSnapshot: return "hv.snapshot";
    case kCellCoverage: return "fuzz.cell_coverage";
    case kCellOther: return "fuzz.cell_other";
    case kRecordOther: return "campaign.record_other";
    case kDbSerialize: return "iris.seed_db_serialize";
    case kDbWrite: return "iris.seed_db_write";
    case kDbRead: return "iris.seed_db_read";
    case kDbDeserialize: return "iris.seed_db_deserialize";
    case kRevertDummy: return "iris.revert_dummy";
    case kPipelineOther: return "iris.pipeline_other";
    case kAnalyze: return "iris.analyze_accuracy";
    case kFinalize: return "campaign.finalize";
    case kCanonical: return "campaign.canonical_bytes";
    case kResidual: return "attrib.residual";
    default: return "layer" + std::to_string(layer);
  }
}

std::string phase_name(std::size_t phase) {
  if (phase >= kReplaySubmit && phase < kReplaySubmit + kReasonBuckets) {
    return "iris.replay_submit." + std::string(reason_label(phase - kReplaySubmit));
  }
  switch (phase) {
    case kWalkSubmit: return "iris.walk_submit";
    case kMutantSubmit: return "iris.submit_into";
    case kCellBody: return "fuzz.cell_body";
    case kDbSave: return "iris.seed_db_save";
    case kDbLoad: return "iris.seed_db_load";
    default: return "phase" + std::to_string(phase);
  }
}

void Tracer::open(std::string name, std::size_t self_layer) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : spans_[open_.back().span].id;
  span.name = std::move(name);
  span.start_ticks = ticks();
  spans_.push_back(std::move(span));
  open_.push_back(Open{spans_.size() - 1, self_layer, 0});
}

std::int64_t Tracer::close() {
  const Open top = open_.back();
  open_.pop_back();
  Span& span = spans_[top.span];
  span.end_ticks = ticks();
  const std::int64_t duration = span.end_ticks - span.start_ticks;
  Tally& self = layers_[top.self_layer];
  ++self.calls;
  self.ticks += duration - top.covered;
  self.reads += 1;
  if (!open_.empty()) open_.back().covered += duration;
  return duration;
}

double tick_ns() {
  static const double ratio = [] {
    const std::int64_t ns0 = now_ns();
    const std::int64_t t0 = ticks();
    std::int64_t ns1 = ns0;
    while (ns1 - ns0 < 50'000'000) ns1 = now_ns();
    const std::int64_t t1 = ticks();
    return t1 > t0 ? static_cast<double>(ns1 - ns0) / static_cast<double>(t1 - t0) : 1.0;
  }();
  return ratio;
}

double clock_read_ticks() {
  constexpr int kReads = 1 << 20;
  std::int64_t last = 0;
  const std::int64_t started = ticks();
  for (int i = 0; i < kReads; ++i) last = ticks();
  return static_cast<double>(last - started) / kReads;
}

}  // namespace ledger
