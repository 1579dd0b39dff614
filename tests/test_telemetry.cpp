// Telemetry-layer tests: the sharded metrics registry (exact counts
// under thread churn), the JSONL trace stream (round-trip, torn tails,
// corrupt lines), the flat-JSON reader backing status files — and the
// property the whole layer is built around: enabling telemetry leaves
// campaign::canonical_result_bytes bit-identical, across worker counts
// and with the cell sandbox on.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/checkpoint.h"
#include "campaign/monitor.h"
#include "fuzz/campaign.h"
#include "support/telemetry.h"

namespace iris::support {
namespace {

namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("iris-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_text(const fs::path& path, const std::string& text) {
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

// --- MetricsRegistry ---

TEST(MetricsRegistry, RegistrationIsIdempotentPerName) {
  MetricsRegistry reg;
  const MetricId a = reg.counter_id("cells");
  EXPECT_EQ(a, reg.counter_id("cells"));
  EXPECT_NE(a, reg.counter_id("mutants"));
  // Counters, gauges and histograms live in separate id spaces: the
  // same name may appear in each.
  EXPECT_EQ(reg.gauge_id("cells"), reg.gauge_id("cells"));
  EXPECT_EQ(reg.histogram_id("cells"), reg.histogram_id("cells"));
}

TEST(MetricsRegistry, ThreadedAddsMergeExactlyAcrossRetiredShards) {
  MetricsRegistry reg;
  const MetricId hits = reg.counter_id("hits");
  const MetricId hist = reg.histogram_id("lat", std::vector<double>{10.0});
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 25000;

  // Two waves of threads: the first wave's shards are retired (threads
  // joined) before the second wave starts, so the snapshot must merge
  // retired accumulators with live shards and lose nothing.
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          reg.add(hits);
          reg.observe(hist, 5.0);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("hits"), 2 * kThreads * kPerThread);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 2 * kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum,
                   5.0 * static_cast<double>(2 * kThreads * kPerThread));
  // All observations were 5.0 < bound 10.0: everything in bucket 0.
  ASSERT_EQ(snap.histograms[0].buckets.size(), 2u);
  EXPECT_EQ(snap.histograms[0].buckets[0], 2 * kThreads * kPerThread);
  EXPECT_EQ(snap.histograms[0].buckets[1], 0u);
}

TEST(MetricsRegistry, GaugesAreLastWriteWins) {
  MetricsRegistry reg;
  const MetricId depth = reg.gauge_id("queue.depth");
  reg.set_gauge(depth, 3.0);
  reg.set_gauge(depth, 7.5);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "queue.depth");
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 7.5);
}

TEST(MetricsRegistry, HistogramBucketsSplitOnSortedBounds) {
  MetricsRegistry reg;
  // Deliberately unsorted; the registry must sort before bucketing.
  const MetricId lat =
      reg.histogram_id("lat_us", std::vector<double>{100.0, 10.0});
  for (const double v : {1.0, 9.0, 10.0, 11.0, 99.0, 100.0, 101.0, 5000.0}) {
    reg.observe(lat, v);
  }
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& h = snap.histograms[0];
  ASSERT_EQ(h.bounds, (std::vector<double>{10.0, 100.0}));
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[0], 3u);  // <= 10:  1, 9, 10
  EXPECT_EQ(h.buckets[1], 3u);  // <= 100: 11, 99, 100
  EXPECT_EQ(h.buckets[2], 2u);  // overflow: 101, 5000
  EXPECT_EQ(h.count, 8u);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsHandedOutIds) {
  MetricsRegistry reg;
  const MetricId hits = reg.counter_id("hits");
  const MetricId depth = reg.gauge_id("depth");
  const MetricId lat = reg.histogram_id("lat");
  reg.add(hits, 41);
  reg.set_gauge(depth, 2.0);
  reg.observe(lat, 1.0);
  reg.reset_values();

  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("hits"), 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 0u);

  // The old ids still address the same metrics.
  reg.add(hits);
  EXPECT_EQ(reg.counter_id("hits"), hits);
  EXPECT_EQ(reg.gauge_id("depth"), depth);
  EXPECT_EQ(reg.histogram_id("lat"), lat);
  EXPECT_EQ(reg.snapshot().counter("hits"), 1u);
}

TEST(MetricsRegistry, ExhaustedCapacityDegradesToInvalidMetricNoOps) {
  MetricsRegistry reg;
  MetricId last = kInvalidMetric;
  std::size_t registered = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    // append(), not "c" + ...: GCC 12 at -O3 reports a false -Wrestrict
    // for a string literal plus a temporary std::string.
    last = reg.counter_id(std::string("c").append(std::to_string(i)));
    if (last == kInvalidMetric) break;
    ++registered;
  }
  ASSERT_EQ(last, kInvalidMetric) << "capacity never exhausted";
  EXPECT_GE(registered, 64u);
  // Adding through the invalid id must be a silent no-op.
  reg.add(kInvalidMetric, 99);
  reg.set_gauge(kInvalidMetric, 1.0);
  reg.observe(kInvalidMetric, 1.0);
  EXPECT_EQ(reg.snapshot().counters.size(), registered);
}

TEST(MetricsRegistry, ForkedChildCallsReturnWhileAParentThreadSnapshots) {
  // A sandboxed cell forks while some other parent thread may hold the
  // registry mutex (status publication snapshots under it). A child that
  // declared itself forked must never wait on that inherited mutex.
  MetricsRegistry& reg = metrics();
  const MetricId parent_counter = reg.counter_id("test.fork.parent");
  const MetricId parent_hist = reg.histogram_id("test.fork.parent_us");
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) (void)reg.snapshot();
  });

  constexpr int kChildren = 200;
  int hung = 0;
  int failed = 0;
  for (int k = 0; k < kChildren; ++k) {
    const ::pid_t pid = ::fork();
    if (pid < 0) {
      ++failed;
      break;
    }
    if (pid == 0) {
      note_forked_child();
      reg.add(reg.counter_id("test.fork.child" + std::to_string(k)));
      reg.add(parent_counter);
      reg.observe(parent_hist, 1.0);
      ::_exit(0);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    int status = 0;
    ::pid_t reaped = 0;
    while ((reaped = ::waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (reaped == 0) {
      ++hung;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++failed;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  EXPECT_EQ(hung, 0) << "children still blocked after 1 s";
  EXPECT_EQ(failed, 0);
  EXPECT_FALSE(in_forked_child());
}

// --- Trace stream ---

TEST(TraceStream, EventsRoundTripThroughJsonl) {
  const auto dir = scratch_dir("trace-roundtrip");
  const std::string path = (dir / "trace.jsonl").string();
  ASSERT_TRUE(set_trace_path(path, "0-of-2").ok());
  ASSERT_TRUE(trace_active());

  trace(std::move(TraceEvent("cell_start").num("cell", 7).num("worker", 1)));
  trace(std::move(TraceEvent("harness_fault")
                      .num("cell", 7)
                      .str("fault", "signal 11 \"segv\"\n")));
  trace(std::move(TraceEvent("cell_done").num("cell", 7).num("wall_ms", 12.5)));
  ASSERT_TRUE(set_trace_path("").ok());  // detach: flushes and disables
  EXPECT_FALSE(trace_active());

  auto file = read_trace(path);
  ASSERT_TRUE(file.ok()) << file.error().message;
  EXPECT_FALSE(file.value().torn_tail);
  EXPECT_EQ(file.value().skipped_lines, 0u);
  ASSERT_EQ(file.value().events.size(), 3u);

  const auto& events = file.value().events;
  EXPECT_EQ(events[0].event, "cell_start");
  EXPECT_EQ(events[0].num("cell"), 7.0);
  EXPECT_EQ(events[0].num("worker"), 1.0);
  // Integral values survive exactly (no ".0" drift) and seq/ts are
  // monotonic within the stream.
  EXPECT_EQ(*events[0].field("cell"), "7");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
  // The shard label is stamped into every line; escapes round-trip.
  for (const auto& event : events) {
    ASSERT_NE(event.field("shard"), nullptr);
    EXPECT_EQ(*event.field("shard"), "0-of-2");
  }
  EXPECT_EQ(*events[1].field("fault"), "signal 11 \"segv\"\n");
  EXPECT_EQ(events[2].num("wall_ms"), 12.5);
}

TEST(TraceStream, ReaderToleratesTornTailAndCountsCorruptLines) {
  const auto dir = scratch_dir("trace-torn");
  const fs::path path = dir / "trace.jsonl";
  write_text(path,
             "{\"seq\":1,\"ts_us\":10,\"event\":\"cell_start\",\"cell\":0}\n"
             "this line is not JSON at all\n"
             "{\"seq\":3,\"ts_us\":30,\"event\":\"cell_done\",\"cell\":0}\n"
             "{\"seq\":4,\"ts_us\":40,\"event\":\"cell_st");  // torn: no \n

  auto file = read_trace(path.string());
  ASSERT_TRUE(file.ok()) << file.error().message;
  EXPECT_TRUE(file.value().torn_tail);
  EXPECT_EQ(file.value().skipped_lines, 1u);
  ASSERT_EQ(file.value().events.size(), 2u);
  EXPECT_EQ(file.value().events[0].seq, 1u);
  EXPECT_EQ(file.value().events[1].seq, 3u);
  EXPECT_EQ(file.value().events[1].event, "cell_done");
}

TEST(TraceStream, MissingFileIsAnErrorValueNotACrash) {
  const auto dir = scratch_dir("trace-missing");
  EXPECT_FALSE(read_trace((dir / "nope.jsonl").string()).ok());
  // A directory is an error value too, not an exception from the read.
  const auto read_dir = read_trace(dir.string());
  ASSERT_FALSE(read_dir.ok());
  EXPECT_EQ(read_dir.error().code, 98);
  EXPECT_EQ(read_dir.error().sys_errno, EISDIR);
}

// --- FlatJson ---

TEST(FlatJson, ParsesScalarsNestedObjectsAndArrays) {
  auto parsed = FlatJson::parse(
      "{\"shard\": \"0-of-3\", \"pid\": 41, \"rate\": 1.5,\n"
      " \"finished\": 0,\n"
      " \"counters\": {\"campaign.cells_done\": 12, \"pool.resets\": 3},\n"
      " \"in_flight\": [4, 9]}");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const FlatJson& json = parsed.value();
  EXPECT_EQ(json.str("shard"), "0-of-3");
  EXPECT_EQ(json.num("pid"), 41.0);
  EXPECT_EQ(json.num("rate"), 1.5);
  // Nested children flatten as parent/child (metric names use dots).
  EXPECT_EQ(json.num("counters/campaign.cells_done"), 12.0);
  EXPECT_EQ(json.num("counters/pool.resets"), 3.0);
  ASSERT_NE(json.array("in_flight"), nullptr);
  EXPECT_EQ(*json.array("in_flight"), (std::vector<double>{4.0, 9.0}));
  EXPECT_EQ(json.find("absent"), nullptr);
  EXPECT_FALSE(json.num("shard").has_value());  // string, not a number
}

TEST(FlatJson, RejectsGarbage) {
  EXPECT_FALSE(FlatJson::parse("").ok());
  EXPECT_FALSE(FlatJson::parse("{\"key\": ").ok());
  EXPECT_FALSE(FlatJson::parse("not json").ok());
  // Booleans appear in no file this layer writes (finished is 1/0), so
  // the minimal parser rejects them rather than half-supporting them.
  EXPECT_FALSE(FlatJson::parse("{\"finished\": false}").ok());
}

// --- The determinism contract ---

fuzz::CampaignConfig base_config(std::size_t workers, bool sandbox) {
  fuzz::CampaignConfig config;
  config.workers = workers;
  config.hv_seed = 17;
  config.record_exits = 150;
  config.record_seed = 3;
  config.sandbox_cells = sandbox;
  return config;
}

TEST(TelemetryDeterminism, ResultsBitIdenticalWithTelemetryOnOrOff) {
  const auto grid =
      fuzz::make_table1_grid({guest::Workload::kCpuBound}, 60, 7);
  const auto dir = scratch_dir("telemetry-determinism");

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const bool sandbox : {false, true}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " sandbox=" + std::to_string(sandbox));
      const auto reference = campaign::canonical_result_bytes(
          fuzz::CampaignRunner(base_config(workers, sandbox)).run(grid));

      // Same campaign with every telemetry channel lit: status file on
      // an aggressive cadence, progress callback, trace stream.
      auto instrumented = base_config(workers, sandbox);
      const std::string tag =
          std::to_string(workers) + (sandbox ? "s" : "p");
      instrumented.status_path = (dir / ("status-" + tag + ".json")).string();
      instrumented.status_interval_seconds = 0.0;
      instrumented.shard_label = "probe-" + tag;
      std::atomic<std::size_t> callbacks{0};
      instrumented.on_progress = [&](const campaign::ShardStatus&) {
        callbacks.fetch_add(1, std::memory_order_relaxed);
      };
      ASSERT_TRUE(
          set_trace_path((dir / ("trace-" + tag + ".jsonl")).string(), tag)
              .ok());
      const auto result = fuzz::CampaignRunner(instrumented).run(grid);
      ASSERT_TRUE(set_trace_path("").ok());

      EXPECT_EQ(campaign::canonical_result_bytes(result), reference);
      EXPECT_GT(callbacks.load(), 0u);

      // The status file landed, parses, and describes a finished grid.
      auto status = campaign::read_status_file(instrumented.status_path);
      ASSERT_TRUE(status.ok()) << status.error().message;
      EXPECT_EQ(status.value().shard_id, "probe-" + tag);
      EXPECT_EQ(status.value().cells_total, grid.size());
      EXPECT_EQ(status.value().cells_done, grid.size());

      // The trace stream saw the run: cell_start/cell_done per cell.
      auto traced =
          read_trace((dir / ("trace-" + tag + ".jsonl")).string());
      ASSERT_TRUE(traced.ok());
      std::size_t done_events = 0;
      for (const auto& event : traced.value().events) {
        if (event.event == "cell_done") ++done_events;
      }
      EXPECT_EQ(done_events, grid.size());
    }
  }
}

}  // namespace
}  // namespace iris::support
