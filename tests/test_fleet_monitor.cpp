// Fleet-monitor tests: shard status files (full-fidelity round trip,
// atomic rewrites under a concurrent reader), and aggregate_fleet over
// hand-built fleets — live / done / stale classification, grid
// completion from grid.meta + done markers, lost-lease and quarantine
// totals, trace tails — plus an end-to-end distributed run whose
// self-published statuses aggregate to a 100%-complete fleet.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/distributed.h"
#include "campaign/grid_lease.h"
#include "campaign/monitor.h"
#include "fuzz/campaign.h"

namespace iris::campaign {
namespace {

namespace fs = std::filesystem;
using guest::Workload;

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

ShardStatus make_status(const std::string& id, double heartbeat,
                        bool finished) {
  ShardStatus status;
  status.shard_id = id;
  status.pid = 4242;
  status.started_unix = heartbeat - 30.0;
  status.heartbeat_unix = heartbeat;
  status.finished = finished;
  status.cells_total = 12;
  status.cells_done = 4;
  status.executed = 4000;
  status.elapsed_seconds = 30.0;
  status.mutants_per_second = 1000.0;
  return status;
}

// --- Status files ---

TEST(StatusFile, RoundTripPreservesEveryField) {
  const auto dir = scratch_dir("status-roundtrip");
  ShardStatus status = make_status("0-of-3", 1000.5, false);
  status.cells_resumed = 2;
  status.cells_poisoned = 1;
  status.harness_faults = 3;
  status.in_flight = {7, 11};
  status.counters = {{"campaign.cells_done", 4}, {"lease.lost", 1}};
  status.gauges = {{"campaign.progress", 0.25}};

  const std::string path = (dir / status_file_name("0-of-3")).string();
  ASSERT_TRUE(write_status_file(path, status).ok());

  auto read = read_status_file(path);
  ASSERT_TRUE(read.ok()) << read.error().message;
  const ShardStatus& got = read.value();
  EXPECT_EQ(got.shard_id, "0-of-3");
  EXPECT_EQ(got.pid, 4242u);
  EXPECT_DOUBLE_EQ(got.started_unix, 970.5);
  EXPECT_DOUBLE_EQ(got.heartbeat_unix, 1000.5);
  EXPECT_FALSE(got.finished);
  EXPECT_EQ(got.cells_total, 12u);
  EXPECT_EQ(got.cells_done, 4u);
  EXPECT_EQ(got.cells_resumed, 2u);
  EXPECT_EQ(got.cells_poisoned, 1u);
  EXPECT_EQ(got.harness_faults, 3u);
  EXPECT_EQ(got.executed, 4000u);
  EXPECT_DOUBLE_EQ(got.elapsed_seconds, 30.0);
  EXPECT_DOUBLE_EQ(got.mutants_per_second, 1000.0);
  EXPECT_EQ(got.in_flight, (std::vector<std::size_t>{7, 11}));
  EXPECT_EQ(got.counter("campaign.cells_done"), 4u);
  EXPECT_EQ(got.counter("lease.lost"), 1u);
  ASSERT_EQ(got.gauges.size(), 1u);
  EXPECT_EQ(got.gauges[0].first, "campaign.progress");
  EXPECT_DOUBLE_EQ(got.gauges[0].second, 0.25);
}

TEST(StatusFile, ConcurrentReaderNeverSeesATornRewrite) {
  const auto dir = scratch_dir("status-atomic");
  const std::string path = (dir / status_file_name("w")).string();
  ShardStatus a = make_status("w", 100.0, false);
  a.cells_done = 10;
  ShardStatus b = make_status("w", 200.0, false);
  b.cells_done = 20;
  // Big payloads make a torn (non-atomic) rewrite actually observable.
  for (int i = 0; i < 64; ++i) {
    a.counters.emplace_back("counter.padding." + std::to_string(i), i);
    b.counters.emplace_back("counter.padding." + std::to_string(i), i);
  }
  ASSERT_TRUE(write_status_file(path, a).ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      EXPECT_TRUE(write_status_file(path, i % 2 != 0 ? b : a).ok());
    }
    stop.store(true);
  });

  std::size_t reads = 0;
  while (!stop.load() || reads < 50) {
    auto status = read_status_file(path);
    // rename() replaces the file atomically: every read parses whole.
    ASSERT_TRUE(status.ok()) << status.error().message;
    EXPECT_EQ(status.value().shard_id, "w");
    EXPECT_TRUE(status.value().cells_done == 10 ||
                status.value().cells_done == 20)
        << status.value().cells_done;
    EXPECT_EQ(status.value().counters.size(), 64u);
    ++reads;
  }
  writer.join();
  EXPECT_GE(reads, 50u);
}

TEST(StatusFile, MissingOrCorruptFilesAreErrorValues) {
  const auto dir = scratch_dir("status-corrupt");
  EXPECT_FALSE(read_status_file((dir / "absent.json").string()).ok());
  write_text(dir / "torn.json", "{\"shard\": \"x\", \"cells_don");
  EXPECT_FALSE(read_status_file((dir / "torn.json").string()).ok());
  write_text(dir / "foreign.json", "{\"pid\": 1}");  // parses, no shard id
  EXPECT_FALSE(read_status_file((dir / "foreign.json").string()).ok());
}

// --- Fleet aggregation ---

TEST(FleetMonitor, ClassifiesThreeShardFleetWithStaleAndQuarantine) {
  const auto dir = scratch_dir("fleet-three");
  const double now = 10000.0;

  // A real grid.meta (12 cells in 3 ranges) with range 0 completed, so
  // completion comes from the lease protocol's own files.
  {
    GridLeaseConfig config;
    config.dir = dir.string();
    config.shard_id = "seed";
    config.total_cells = 12;
    config.range_size = 4;
    config.fingerprint = 0x5EED;
    auto lease = GridLease::open(config);
    ASSERT_TRUE(lease.ok());
    ASSERT_TRUE(lease.value()->try_claim(0));
    for (std::size_t cell = 0; cell < 4; ++cell) {
      lease.value()->completed(cell);
    }
    ASSERT_EQ(lease.value()->stats().completed_ranges, 1u);
  }

  // Shard 0 finished; shard 1 went silent 120 s ago (SIGKILL); shard 2
  // is live, quarantining cells and reporting a stolen lease.
  ShardStatus done = make_status("0-of-3", now - 60.0, true);
  ShardStatus dead = make_status("1-of-3", now - 120.0, false);
  ShardStatus live = make_status("2-of-3", now - 1.0, false);
  live.cells_poisoned = 2;
  live.harness_faults = 5;
  live.in_flight = {9};
  live.counters = {{"lease.lost", 1},         {"lease.reclaims", 2},
                   {"cell.rlimit_kills", 3},  {"fuzz.model_faults", 4},
                   {"poison.reprobes", 2},    {"poison.rehabilitated", 1}};
  for (const auto* status : {&done, &dead, &live}) {
    ASSERT_TRUE(write_status_file(
                    (dir / status_file_name(status->shard_id)).string(),
                    *status)
                    .ok());
  }
  write_text(dir / "trace-2-of-3.jsonl",
             "{\"seq\":1,\"ts_us\":10,\"event\":\"cell_start\",\"cell\":9}\n"
             "{\"seq\":2,\"ts_us\":20,\"event\":\"quarantine\",\"cell\":8}\n");

  auto fleet = aggregate_fleet(dir.string(), 15.0, now, 1);
  ASSERT_TRUE(fleet.ok()) << fleet.error().message;
  const FleetView& view = fleet.value();

  ASSERT_EQ(view.shards.size(), 3u);  // sorted by shard id
  EXPECT_EQ(view.shards[0].status.shard_id, "0-of-3");
  EXPECT_EQ(view.shards[0].state, ShardView::State::kDone);
  EXPECT_EQ(view.shards[1].status.shard_id, "1-of-3");
  EXPECT_EQ(view.shards[1].state, ShardView::State::kStale);
  EXPECT_DOUBLE_EQ(view.shards[1].heartbeat_age_seconds, 120.0);
  EXPECT_EQ(view.shards[2].status.shard_id, "2-of-3");
  EXPECT_EQ(view.shards[2].state, ShardView::State::kLive);
  EXPECT_EQ(view.done_shards, 1u);
  EXPECT_EQ(view.stale_shards, 1u);
  EXPECT_EQ(view.live_shards, 1u);

  EXPECT_EQ(view.cells_total, 12u);
  EXPECT_EQ(view.ranges_total, 3u);
  EXPECT_EQ(view.ranges_done, 1u);
  EXPECT_NEAR(view.completion_pct, 100.0 / 3.0, 1e-9);
  EXPECT_EQ(view.cells_done, 12u);      // 4 per shard
  EXPECT_EQ(view.cells_poisoned, 2u);
  EXPECT_EQ(view.harness_faults, 5u);  // only the live shard faulted
  EXPECT_EQ(view.lost_leases, 1u);
  EXPECT_EQ(view.lease_reclaims, 2u);
  // PR 9 fault-taxonomy counters fold the same way lease counters do.
  EXPECT_EQ(view.rlimit_kills, 3u);
  EXPECT_EQ(view.model_faults, 4u);
  EXPECT_EQ(view.reprobes, 2u);
  EXPECT_EQ(view.rehabilitated, 1u);
  // Throughput counts live shards only: a dead shard's last-reported
  // rate must not inflate the fleet.
  EXPECT_DOUBLE_EQ(view.mutants_per_second, 1000.0);

  // trace_tail = 1 keeps only the newest event of the stream.
  ASSERT_EQ(view.recent_events.size(), 1u);
  EXPECT_EQ(view.recent_events[0].event, "quarantine");

  // The JSON rendering keeps each shard's facts on one greppable line.
  const std::string json = render_fleet_json(view);
  EXPECT_NE(json.find("{\"shard\": \"1-of-3\", \"state\": \"stale\""),
            std::string::npos);
  EXPECT_NE(json.find("{\"shard\": \"2-of-3\", \"state\": \"live\""),
            std::string::npos);
  // Fleet-level fault-taxonomy keys are present for scripted monitors.
  EXPECT_NE(json.find("\"rlimit_kills\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"model_faults\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"reprobes\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rehabilitated\": 1"), std::string::npos);
}

TEST(FleetMonitor, EmptyDirIsAnEmptyFleetAndMissingDirAnError) {
  const auto dir = scratch_dir("fleet-empty");
  auto fleet = aggregate_fleet(dir.string(), 15.0, 100.0);
  ASSERT_TRUE(fleet.ok());
  EXPECT_TRUE(fleet.value().shards.empty());
  EXPECT_EQ(fleet.value().completion_pct, 0.0);
  EXPECT_FALSE(
      aggregate_fleet((dir / "missing").string(), 15.0, 100.0).ok());
}

TEST(FleetMonitor, TornStatusFilesAreSkippedNotFatal) {
  const auto dir = scratch_dir("fleet-torn");
  ASSERT_TRUE(write_status_file((dir / status_file_name("ok")).string(),
                                make_status("ok", 99.0, false))
                  .ok());
  write_text(dir / "status-torn.json", "{\"shard\": \"to");
  auto fleet = aggregate_fleet(dir.string(), 15.0, 100.0);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(fleet.value().shards.size(), 1u);
  EXPECT_EQ(fleet.value().shards[0].status.shard_id, "ok");
}

TEST(FleetMonitor, DirectoriesNamedLikeFleetFilesAreSkipped) {
  // A stream read of a directory throws std::ios_base::failure, which
  // used to abort the monitor; each is now one more bad entry.
  const auto dir = scratch_dir("fleet-dir-entry");
  ASSERT_TRUE(write_status_file((dir / status_file_name("ok")).string(),
                                make_status("ok", 99.0, false))
                  .ok());
  for (const char* name : {"status-x.json", "trace-x.jsonl", "forensics-x.json"}) {
    fs::create_directories(dir / name);
  }
  auto fleet = aggregate_fleet(dir.string(), 15.0, 100.0);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(fleet.value().shards.size(), 1u);
  EXPECT_EQ(fleet.value().shards[0].status.shard_id, "ok");
  EXPECT_EQ(fleet.value().forensics, 0u);
  EXPECT_TRUE(fleet.value().recent_events.empty());
}

// --- End to end: shards publish, the monitor aggregates ---

TEST(FleetMonitor, DistributedShardsPublishStatusesThatAggregateComplete) {
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 80, 7);
  const auto dir = scratch_dir("fleet-e2e");

  fuzz::CampaignConfig base;
  base.workers = 2;
  base.hv_seed = 17;
  base.record_exits = 150;
  base.record_seed = 3;
  base.status_interval_seconds = 0.0;  // publish every beat

  for (const std::string shard : {"0-of-2", "1-of-2"}) {
    ShardConfig config;
    config.lease_dir = dir.string();
    config.shard_id = shard;
    config.advisory_shards = 2;
    auto run = DistributedCampaign(config, base).run(grid);
    ASSERT_TRUE(run.ok()) << run.error().message;
  }

  auto fleet = aggregate_fleet(dir.string(), 30.0, wall_clock_unix());
  ASSERT_TRUE(fleet.ok()) << fleet.error().message;
  const FleetView& view = fleet.value();
  ASSERT_EQ(view.shards.size(), 2u);
  for (const ShardView& shard : view.shards) {
    EXPECT_EQ(shard.state, ShardView::State::kDone);
    EXPECT_TRUE(shard.status.finished);
    EXPECT_EQ(shard.status.cells_total, grid.size());
  }
  EXPECT_EQ(view.done_shards, 2u);
  EXPECT_GT(view.ranges_total, 0u);
  EXPECT_EQ(view.ranges_done, view.ranges_total);
  EXPECT_DOUBLE_EQ(view.completion_pct, 100.0);
  // Together the shards journaled the whole grid (first shard may take
  // everything if it finishes before the second starts).
  EXPECT_GE(view.cells_done, grid.size());
  EXPECT_GT(view.executed, 0u);
}

}  // namespace
}  // namespace iris::campaign
