// bench_ledger: the repeatable IRIS benchmark.
//
//   bench_ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//                [--work-dir DIR] [--oracles FILE]
//
// With --workload, runs that workload in this process: one cold set-up
// before each timed round, one untimed warm-up round, then timed rounds
// (a fixed count, or as many as fit in --seconds). It prints one JSON line
// per metric and, last, {"correct", "attempted", "failed", "metrics"}.
// --trace 1 replaces the timed rounds by alternating untraced and traced
// rounds and reports per-layer metrics instead of end-to-end ones.
// Without --workload it runs every workload, each in a fresh child
// process, one after another. README.md documents the metrics.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ledger.h"
#include "workloads.h"

#ifndef LEDGER_ORACLES
#define LEDGER_ORACLES "bench_ledger/oracles.json"
#endif

namespace {

namespace fs = std::filesystem;
using namespace ledger;

struct Options {
  std::string workload;  ///< empty = all, one child process each
  std::uint64_t seed = 42;
  double seconds = 0.0;  ///< 0 = the workload's fixed round count
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string oracles = LEDGER_ORACLES;
};

/// Timed rounds a --seconds run makes at least, whatever the budget.
constexpr std::size_t kMinRounds = 3;

/// The per-layer metrics BENCHMARK.json lists: the layers every workload
/// exercises (README.md, "Per-layer metrics"). The traced run prints the
/// rest as JSON lines.
std::vector<std::string> benchmark_layer_metrics() {
  std::vector<std::string> names;
  auto layer = [&names](const std::string& base) {
    for (const char* suffix : {".calls", ".ns_per_call", ".self_us"}) {
      names.push_back(base + suffix);
    }
  };
  layer("guest.next");
  layer("hv.process_exit");
  for (std::size_t r = 0; r < kReasonBuckets; ++r) {
    layer("hv.process_exit." + std::string(reason_label(r)));
  }
  layer("iris.inject");
  layer("iris.capture");
  layer("iris.record_finish_exit");
  layer("iris.record_take_trace");
  layer("iris.enable_replay");
  names.push_back("attrib.residual_pct");
  names.push_back("attrib.span_overhead_pct");
  names.push_back("trace_overhead_pct");
  names.push_back("host.calib_ms");
  return names;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--oracles") {
      opt.oracles = value;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad number for %s: %s\n", arg.c_str(), value.c_str());
      return false;
    }
  }
  if (opt.seconds < 0.0 || !std::isfinite(opt.seconds)) {
    std::fprintf(stderr, "--seconds must be a non-negative number\n");
    return false;
  }
  return true;
}

Metric metric(std::string name, std::string unit, std::vector<double> samples) {
  Metric m{std::move(name), std::move(unit), std::move(samples), 0.0};
  m.value = summarize(m.samples).median;
  return m;
}

/// Splits "name|unit" keys of RoundOutcome::extra / ::layer.
std::pair<std::string, std::string> split_key(const std::string& key) {
  const auto bar = key.find('|');
  return {key.substr(0, bar), bar == std::string::npos ? "" : key.substr(bar + 1)};
}

void add_keyed(std::vector<Metric>& out, const std::vector<RoundOutcome>& rounds,
               std::map<std::string, double> RoundOutcome::*field) {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& round : rounds) {
    for (const auto& [key, value] : round.*field) samples[key].push_back(value);
  }
  for (auto& [key, values] : samples) {
    auto [name, unit] = split_key(key);
    out.push_back(metric(name, unit, std::move(values)));
  }
}

bool keep_running(const Options& opt, const Workload& w, std::size_t rounds,
                  std::int64_t deadline_ns) {
  if (opt.seconds <= 0.0) return rounds < w.fixed_rounds();
  return rounds < kMinRounds || now_ns() < deadline_ns;
}

// --- End-to-end run ---------------------------------------------------------

/// End-to-end metrics BENCHMARK.json gates on, in its order.
constexpr const char* kGatedEndToEnd[] = {"exits_per_s", "cell_ms_p50", "cell_ms_p90",
                                          "setup_s", "peak_rss_mb"};

std::vector<Metric> end_to_end(const std::vector<RoundOutcome>& rounds,
                               const std::vector<double>& setups,
                               const std::vector<double>& calibs) {
  std::vector<double> rates, pooled_cells;
  for (const auto& r : rounds) {
    rates.push_back(r.exits / r.wall_s);
    pooled_cells.insert(pooled_cells.end(), r.cell_ms.begin(), r.cell_ms.end());
  }
  std::vector<Metric> out;
  out.push_back(metric("exits_per_s", "1/s", rates));
  // Cell latency percentiles pool every cell of every timed round; the
  // quartiles of the line are those of the per-round percentiles.
  for (const double p : {50.0, 90.0, 99.0}) {
    std::vector<double> per_round;
    for (const auto& r : rounds) per_round.push_back(percentile(r.cell_ms, p));
    Metric m = metric("cell_ms_p" + std::to_string(static_cast<int>(p)), "ms", per_round);
    m.value = percentile(pooled_cells, p);
    out.push_back(m);
  }
  out.push_back(metric("setup_s", "s", setups));
  out.push_back(metric("peak_rss_mb", "MB", {peak_rss_mb()}));
  add_keyed(out, rounds, &RoundOutcome::extra);
  out.push_back(metric("host.calib_ms", "ms", calibs));
  return out;
}

// --- Traced run -------------------------------------------------------------

struct TracedRound {
  RoundOutcome outcome;
  Tracer tracer;
  double reference_s = 0.0;
};

/// Per-layer metrics and the attribution table of the traced rounds.
std::vector<Metric> per_layer(const std::vector<TracedRound>& rounds,
                              const std::vector<double>& calibs, double read_ticks,
                              std::string_view workload) {
  std::vector<Metric> out;
  const double ns_per_tick = tick_ns();
  auto self_ns = [read_ticks, ns_per_tick](const Tally& t) {
    return (static_cast<double>(t.ticks) - static_cast<double>(t.reads) * read_ticks) *
           ns_per_tick;
  };
  // `time` is ".self_us" for self-time layers, ".total_us" for the
  // inclusive phases.
  auto emit_tallies = [&out](const std::string& name, const char* time,
                             const std::vector<double>& calls,
                             const std::vector<double>& ns) {
    std::vector<double> per_call, us;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      per_call.push_back(calls[i] > 0 ? ns[i] / calls[i] : 0.0);
      us.push_back(ns[i] / 1e3);
    }
    out.push_back(metric(name + ".calls", "count", calls));
    out.push_back(metric(name + ".ns_per_call", "ns", per_call));
    out.push_back(metric(name + time, "us", us));
  };

  // Self-time layers, plus the process_exit total over reasons.
  std::vector<double> exit_calls(rounds.size()), exit_ns(rounds.size());
  for (std::size_t layer = 0; layer < kNumLayers; ++layer) {
    if (layer == kResidual) continue;
    std::vector<double> calls, ns;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      const Tally& t = rounds[i].tracer.layers()[layer];
      calls.push_back(static_cast<double>(t.calls));
      ns.push_back(self_ns(t));
      if (layer >= kProcessExit && layer < kProcessExit + kReasonBuckets) {
        exit_calls[i] += calls.back();
        exit_ns[i] += ns.back();
      }
    }
    emit_tallies(layer_name(layer), ".self_us", calls, ns);
  }
  emit_tallies("hv.process_exit", ".self_us", exit_calls, exit_ns);

  // Inclusive phases.
  for (std::size_t phase = 0; phase < kNumPhases; ++phase) {
    std::vector<double> calls, ns;
    for (const auto& r : rounds) {
      const Tally& t = r.tracer.phases()[phase];
      calls.push_back(static_cast<double>(t.calls));
      ns.push_back(static_cast<double>(t.ticks) * ns_per_tick);
    }
    emit_tallies(phase_name(phase), ".total_us", calls, ns);
  }

  std::vector<double> residual, overhead, trace_overhead, restore_ratio;
  for (const auto& r : rounds) {
    const double wall_ns = r.outcome.wall_s * 1e9;
    std::uint64_t reads = 0;
    for (const Tally& t : r.tracer.layers()) reads += t.reads;
    residual.push_back(100.0 * self_ns(r.tracer.layers()[kResidual]) / wall_ns);
    overhead.push_back(100.0 * static_cast<double>(reads) * read_ticks * ns_per_tick /
                       wall_ns);
    trace_overhead.push_back(100.0 * (r.outcome.wall_s / r.reference_s - 1.0));
    const double mutants = static_cast<double>(r.tracer.layers()[kMutate].calls);
    restore_ratio.push_back(
        mutants > 0 ? static_cast<double>(r.tracer.layers()[kRestore].calls) / mutants
                    : 0.0);
  }
  out.push_back(metric("fuzz.restore_ratio", "ratio", restore_ratio));
  out.push_back(metric("attrib.residual_pct", "%", residual));
  out.push_back(metric("attrib.span_overhead_pct", "%", overhead));
  out.push_back(metric("trace_overhead_pct", "%", trace_overhead));
  out.push_back(metric("host.calib_ms", "ms", calibs));
  std::vector<RoundOutcome> outcomes;
  for (const auto& r : rounds) outcomes.push_back(r.outcome);
  add_keyed(out, outcomes, &RoundOutcome::layer);

  // Attribution table (stderr): median self time per round of every
  // layer that ran, its share of the traced round, and the remainder.
  std::vector<double> walls;
  for (const auto& r : rounds) walls.push_back(r.outcome.wall_s * 1e3);
  const double wall_ms = summarize(walls).median;
  std::vector<std::pair<double, std::string>> rows;
  for (std::size_t layer = 0; layer < kNumLayers; ++layer) {
    if (layer == kResidual) continue;
    std::vector<double> ns;
    for (const auto& r : rounds) ns.push_back(self_ns(r.tracer.layers()[layer]));
    const double ms = summarize(ns).median / 1e6;
    if (ms != 0.0) rows.emplace_back(ms, layer_name(layer));
  }
  std::sort(rows.rbegin(), rows.rend());
  std::fprintf(stderr, "\nattribution, %.*s: median traced round %.2f ms (%zu rounds)\n",
               static_cast<int>(workload.size()), workload.data(), wall_ms,
               rounds.size());
  std::fprintf(stderr, "  %-34s %10s %7s\n", "layer", "self ms", "share");
  double explained = 0.0;
  for (const auto& [ms, name] : rows) {
    std::fprintf(stderr, "  %-34s %10.3f %6.2f%%\n", name.c_str(), ms,
                 100.0 * ms / wall_ms);
    explained += ms;
  }
  const double overhead_pct = summarize(overhead).median;
  const double residual_pct = summarize(residual).median;
  std::fprintf(stderr, "  %-34s %10.3f %6.2f%%\n", "(clock reads, subtracted)",
               wall_ms * overhead_pct / 100.0, overhead_pct);
  std::fprintf(stderr, "  %-34s %10.3f %6.2f%%\n", "residual", wall_ms * residual_pct / 100.0,
               residual_pct);
  std::fprintf(stderr, "  layers explain %.2f%% of the round; tracing costs %+.1f%% wall\n",
               100.0 * explained / wall_ms, summarize(trace_overhead).median);
  return out;
}

/// Spans (times in ns from the first span of the run) and per-round
/// layer tallies, one JSON object per line.
void write_trace_file(const std::string& path, const std::vector<TracedRound>& rounds,
                      double read_ticks) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const double ns_per_tick = tick_ns();
  out << "{\"tick_ns\": " << ns_per_tick << ", \"clock_read_ns\": "
      << read_ticks * ns_per_tick << "}\n";
  const std::int64_t origin =
      rounds.empty() || rounds[0].tracer.spans().empty()
          ? 0
          : rounds[0].tracer.spans()[0].start_ticks;
  auto ns = [&](std::int64_t t) {
    return static_cast<std::int64_t>(static_cast<double>(t - origin) * ns_per_tick);
  };
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Tracer& t = rounds[i].tracer;
    for (const Span& s : t.spans()) {
      out << "{\"round\": " << i << ", \"span\": " << s.id << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\", \"start_ns\": " << ns(s.start_ticks)
          << ", \"end_ns\": " << ns(s.end_ticks) << "}\n";
    }
    for (std::size_t layer = 0; layer < kNumLayers; ++layer) {
      const Tally& tally = t.layers()[layer];
      if (tally.calls == 0) continue;
      out << "{\"round\": " << i << ", \"layer\": \"" << layer_name(layer)
          << "\", \"calls\": " << tally.calls << ", \"ns\": "
          << static_cast<std::int64_t>(static_cast<double>(tally.ticks) * ns_per_tick)
          << ", \"reads\": " << tally.reads << "}\n";
    }
  }
}

// --- One workload, in this process ------------------------------------------

int run_workload(const Options& opt) {
  RunContext ctx;
  ctx.seed = opt.seed;
  ctx.dir = (fs::path(opt.work_dir) / (opt.workload + "-" + std::to_string(::getpid())))
                .string();
  std::error_code ec;
  fs::remove_all(ctx.dir, ec);
  fs::create_directories(ctx.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", ctx.dir.c_str(), ec.message().c_str());
    return 2;
  }
  Oracles oracles;
  if (!oracles.load(opt.oracles, opt.seed)) return 2;
  auto workload = make_workload(opt.workload, ctx);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  // Warm-up: untimed, and the reference every later round must reproduce.
  const RoundOutcome first = workload->round();
  for (const auto& [key, value] : first.oracle) {
    if (!oracles.check(opt.workload + "." + key, value)) {
      ctx.mismatch("pinned oracle " + opt.workload + "." + key);
    }
  }
  std::size_t attempted = first.attempted;
  std::size_t failed = first.failed;
  auto check_round = [&](const RoundOutcome& r, const char* what, std::size_t index) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.hash != first.hash) {
      ctx.mismatch(std::string(what) + " round " + std::to_string(index) + " hashes " +
                   hex64(r.hash) + ", the first round " + hex64(first.hash));
    }
  };

  std::vector<double> calibs;
  std::vector<Metric> metrics;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  if (!opt.trace) {
    std::vector<RoundOutcome> rounds;
    std::vector<double> setups;
    while (keep_running(opt, *workload, rounds.size(), deadline)) {
      setups.push_back(workload->setup());
      rounds.push_back(workload->round());
      calibs.push_back(calibration_ms());
      check_round(rounds.back(), "timed", rounds.size());
    }
    metrics = end_to_end(rounds, setups, calibs);
    metrics.push_back(metric("failed_frac", "ratio",
                             {static_cast<double>(failed) /
                              static_cast<double>(std::max<std::size_t>(attempted, 1))}));
  } else {
    const double read_ticks = clock_read_ticks();
    std::vector<TracedRound> rounds;
    while (keep_running(opt, *workload, rounds.size(), deadline)) {
      const RoundOutcome reference = workload->reference_round();
      check_round(reference, "reference", rounds.size() + 1);
      TracedRound traced;
      traced.reference_s = reference.wall_s;
      traced.outcome = workload->traced_round(traced.tracer);
      check_round(traced.outcome, "traced replica", rounds.size() + 1);
      calibs.push_back(calibration_ms());
      rounds.push_back(std::move(traced));
    }
    metrics = per_layer(rounds, calibs, read_ticks, opt.workload);
    const std::string trace_path =
        (fs::path(opt.work_dir) /
         ("trace-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl"))
            .string();
    write_trace_file(trace_path, rounds, read_ticks);
    std::fprintf(stderr, "spans and per-round layer tallies written to %s\n",
                 trace_path.c_str());
  }
  fs::remove_all(ctx.dir, ec);

  for (const Metric& m : metrics) print_metric_line(opt.workload, m);
  std::vector<Metric> gated;
  if (opt.trace) {
    for (const std::string& name : benchmark_layer_metrics()) {
      const auto it = std::find_if(metrics.begin(), metrics.end(),
                                   [&name](const Metric& m) { return m.name == name; });
      if (it != metrics.end()) gated.push_back(*it);
    }
  } else {
    for (const char* name : kGatedEndToEnd) {
      const auto it = std::find_if(metrics.begin(), metrics.end(),
                                   [name](const Metric& m) { return m.name == name; });
      if (it != metrics.end()) gated.push_back(*it);
    }
  }
  const bool correct = ctx.correct && failed == 0;
  print_result_line(correct, attempted, failed, gated);
  return correct ? 0 : 1;
}

// --- Every workload, one child process each ---------------------------------

/// Runs each workload in a fresh child process (its own result line comes
/// first); the final line counts workloads attempted and failed.
int run_all(const Options& opt) {
  std::size_t failed = 0;
  for (const char* name : kWorkloadNames) {
    std::vector<std::string> args = {"bench_ledger", "--workload", name,
                                     "--seed",       std::to_string(opt.seed),
                                     "--seconds",    std::to_string(opt.seconds),
                                     "--trace",      opt.trace ? "1" : "0",
                                     "--work-dir",   opt.work_dir,
                                     "--oracles",    opt.oracles};
    std::fflush(stdout);
    const ::pid_t pid = ::fork();
    if (pid < 0) return 2;
    if (pid == 0) {
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv("/proc/self/exe", argv.data());
      ::_exit(127);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++failed;
      std::fprintf(stderr, "workload %s failed\n", name);
    }
  }
  print_result_line(failed == 0, std::size(kWorkloadNames), failed, {});
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  return opt.workload.empty() ? run_all(opt) : run_workload(opt);
}
