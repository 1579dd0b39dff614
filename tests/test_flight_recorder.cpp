// Flight-recorder tests: breadcrumb ring wrap and torn-slot decode,
// crumb harvest from a SIGKILLed child with no child-side flush, phase
// span pairing/nesting, campaign byte-identity with the recorder armed
// (the recorder must never perturb the determinism contract), forensic
// publication from a faulted sandboxed cell, forensic JSON round trips
// including the crumb-tail truncation and corrupt-file error paths, and
// fleet-monitor folding of forensic records.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/forensics.h"
#include "campaign/monitor.h"
#include "fuzz/campaign.h"
#include "support/failpoints.h"
#include "support/flight_recorder.h"
#include "support/telemetry.h"

namespace iris {
namespace {

namespace fs = std::filesystem;
using campaign::ForensicRecord;
using fuzz::CampaignConfig;
using fuzz::CampaignRunner;
using guest::Workload;
using support::Crumb;
using support::CrumbType;
using support::FlightRecorder;
using support::Phase;

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

CampaignConfig small_config(std::size_t workers) {
  CampaignConfig config;
  config.workers = workers;
  config.hv_seed = 17;
  config.record_exits = 150;
  config.record_seed = 3;
  return config;
}

CampaignConfig sandbox_config(std::size_t workers) {
  CampaignConfig config = small_config(workers);
  config.sandbox_cells = true;
  config.cell_retries = 1;
  config.retry_base_backoff_ms = 0.1;
  return config;
}

std::vector<fuzz::TestCaseSpec> small_grid(std::size_t mutants = 40) {
  return fuzz::make_table1_grid({Workload::kCpuBound}, mutants, 7);
}

// --- Ring decode ---

TEST(FlightRecorder, RingWrapKeepsNewestAndCountsOverwritten) {
  FlightRecorder recorder(/*capacity=*/8, /*log_capacity=*/4);
  ASSERT_EQ(recorder.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    recorder.append(CrumbType::kMutant, i, i * 2);
  }
  const auto harvest = recorder.harvest();
  EXPECT_EQ(harvest.total, 20u);
  EXPECT_EQ(harvest.overwritten, 12u);
  EXPECT_EQ(harvest.torn, 0u);
  ASSERT_EQ(harvest.crumbs.size(), 8u);
  for (std::size_t i = 0; i < harvest.crumbs.size(); ++i) {
    const Crumb& c = harvest.crumbs[i];
    EXPECT_EQ(c.ordinal, 12u + i);
    EXPECT_EQ(c.type, CrumbType::kMutant);
    EXPECT_EQ(c.a, 12u + i);
    EXPECT_EQ(c.b, (12u + i) * 2);
  }
}

TEST(FlightRecorder, TornSlotIsSkippedAndCounted) {
  FlightRecorder recorder(/*capacity=*/8, /*log_capacity=*/4);
  for (std::uint64_t i = 0; i < 8; ++i) {
    recorder.append(CrumbType::kVmExit, 0x1e, 0x1000 + i);
  }
  // A writer killed between the zero store and the publish store of
  // ordinal 3's slot: the stamp is 0 but the cursor already counted it.
  recorder.tear_slot_for_test(3);
  const auto harvest = recorder.harvest();
  EXPECT_EQ(harvest.total, 8u);
  EXPECT_EQ(harvest.overwritten, 0u);
  EXPECT_EQ(harvest.torn, 1u);
  ASSERT_EQ(harvest.crumbs.size(), 7u);
  for (const Crumb& c : harvest.crumbs) EXPECT_NE(c.ordinal, 3u);
}

TEST(FlightRecorder, ResetClearsTheRingForReuse) {
  FlightRecorder recorder(/*capacity=*/8, /*log_capacity=*/4);
  for (std::uint64_t i = 0; i < 20; ++i) {
    recorder.append(CrumbType::kMutant, i, 0);
  }
  recorder.append_log("stale line", 10);
  recorder.reset();
  const auto empty = recorder.harvest();
  EXPECT_EQ(empty.total, 0u);
  EXPECT_TRUE(empty.crumbs.empty());
  EXPECT_TRUE(empty.log_tail.empty());
  recorder.append(CrumbType::kSnapshotRestore, 5, 0);
  const auto reused = recorder.harvest();
  EXPECT_EQ(reused.total, 1u);
  ASSERT_EQ(reused.crumbs.size(), 1u);
  EXPECT_EQ(reused.crumbs[0].ordinal, 0u);
}

TEST(FlightRecorder, LogTailWrapsAndTruncatesLongLines) {
  FlightRecorder recorder(/*capacity=*/8, /*log_capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    const std::string line = "line " + std::to_string(i);
    recorder.append_log(line.c_str(), line.size());
  }
  const std::string huge(200, 'x');
  recorder.append_log(huge.c_str(), huge.size());
  const auto harvest = recorder.harvest();
  // Newest 4 survive: lines 3..5 plus the truncated giant.
  ASSERT_EQ(harvest.log_tail.size(), 4u);
  EXPECT_EQ(harvest.log_tail[0], "line 3");
  EXPECT_EQ(harvest.log_tail[2], "line 5");
  EXPECT_EQ(harvest.log_tail[3],
            std::string(FlightRecorder::kLogLineBytes - 1, 'x'));
}

// --- Phase spans ---

TEST(FlightRecorder, PhaseSpansNestAndStayOpenAtFault) {
  FlightRecorder recorder;
  recorder.arm();
  support::span_begin(Phase::kMutate);
  support::span_begin(Phase::kReplay);
  support::span_end(Phase::kReplay);
  // Same-phase nesting pairs LIFO: the inner reset closes, the outer
  // stays open, like a fault in the middle of a nested reset would
  // leave it.
  support::span_begin(Phase::kReset);
  support::span_begin(Phase::kReset);
  support::span_end(Phase::kReset);
  recorder.disarm();

  const auto harvest = recorder.harvest();
  ASSERT_EQ(harvest.spans.size(), 4u);
  EXPECT_EQ(harvest.spans[0].phase, Phase::kMutate);
  EXPECT_FALSE(harvest.spans[0].closed);
  EXPECT_EQ(harvest.spans[1].phase, Phase::kReplay);
  EXPECT_TRUE(harvest.spans[1].closed);
  EXPECT_GE(harvest.spans[1].end_us, harvest.spans[1].begin_us);
  EXPECT_EQ(harvest.spans[2].phase, Phase::kReset);
  EXPECT_FALSE(harvest.spans[2].closed);  // outer, interrupted
  EXPECT_EQ(harvest.spans[3].phase, Phase::kReset);
  EXPECT_TRUE(harvest.spans[3].closed);  // inner, paired LIFO
}

TEST(FlightRecorder, CrumbHelpersAreInertWhileDisarmed) {
  FlightRecorder recorder;
  support::crumb_vm_exit(0x1e, 0x401000);
  support::crumb_mutant(7);
  { support::FlightSpan span(Phase::kMutate); }
  EXPECT_EQ(recorder.harvest().total, 0u);
  recorder.arm();
  support::crumb_vm_exit(0x1e, 0x401000);
  { support::FlightSpan span(Phase::kMutate); }
  recorder.disarm();
  EXPECT_EQ(recorder.harvest().total, 3u);
}

// --- Crash-surviving harvest ---

TEST(FlightRecorder, ParentHarvestsCrumbsFromSigkilledChild) {
  FlightRecorder recorder(/*capacity=*/64, /*log_capacity=*/4);
  if (!recorder.shared()) {
    GTEST_SKIP() << "mmap degraded to heap memory; crumbs cannot cross fork";
  }
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The child writes its breadcrumbs and then parks; it never
    // flushes, never exits cleanly — the parent SIGKILLs it.
    ::close(fds[0]);
    recorder.arm();
    support::span_begin(Phase::kMutate);
    support::crumb_mutant(41);
    support::crumb_vm_exit(0x1e, 0x401337);
    support::crumb_vmcs_write(0x6800, 0xdeadbeef);
    support::flight_log_line("guest wedged", 12);
    char byte = 'r';
    (void)!::write(fds[1], &byte, 1);
    for (;;) ::pause();
  }
  ::close(fds[1]);
  char byte = 0;
  ASSERT_EQ(::read(fds[0], &byte, 1), 1);
  ::close(fds[0]);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  const auto harvest = recorder.harvest();
  EXPECT_EQ(harvest.total, 4u);
  EXPECT_EQ(harvest.torn, 0u);
  ASSERT_EQ(harvest.crumbs.size(), 4u);
  EXPECT_EQ(harvest.crumbs[1].type, CrumbType::kMutant);
  EXPECT_EQ(harvest.crumbs[1].a, 41u);
  EXPECT_EQ(harvest.crumbs[2].type, CrumbType::kVmExit);
  EXPECT_EQ(harvest.crumbs[2].b, 0x401337u);
  EXPECT_EQ(harvest.crumbs[3].type, CrumbType::kVmcsWrite);
  EXPECT_EQ(harvest.crumbs[3].a, 0x6800u);
  ASSERT_EQ(harvest.spans.size(), 1u);
  EXPECT_EQ(harvest.spans[0].phase, Phase::kMutate);
  EXPECT_FALSE(harvest.spans[0].closed);
  ASSERT_EQ(harvest.log_tail.size(), 1u);
  EXPECT_EQ(harvest.log_tail[0], "guest wedged");
}

// --- Determinism ---

TEST(FlightRecorder, ArmedCampaignIsByteIdenticalToDarkAcrossModes) {
  const auto grid = small_grid();
  const auto reference = CampaignRunner(small_config(1)).run(grid);
  ASSERT_TRUE(reference.complete);
  const auto expected = campaign::canonical_result_bytes(reference);

  // A forensics directory arms every sandboxed cell's recorder.
  const auto forensics = scratch_dir("armed-campaign");
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    CampaignConfig config = sandbox_config(workers);
    config.forensics_dir = forensics.string();
    const auto result = CampaignRunner(config).run(grid);
    ASSERT_TRUE(result.complete) << "workers=" << workers;
    EXPECT_EQ(campaign::canonical_result_bytes(result), expected)
        << "workers=" << workers;
  }
}

// --- Forensics publication ---

TEST(FlightRecorder, FaultedSandboxedCellPublishesItsForensics) {
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 2;
  const auto reference = CampaignRunner(small_config(1)).run(grid);
  ASSERT_TRUE(reference.complete);
  const std::string file = campaign::forensic_file_name(victim);
  const std::string kill = "cell_exec:signal=KILL:cell=" + std::to_string(victim);

  // One SIGKILL: the dead child's ring is published, and the retry
  // reproduces the in-process bytes.
  const auto transient = scratch_dir("forensics-transient");
  CampaignConfig config = sandbox_config(1);
  config.forensics_dir = transient.string();
  ASSERT_TRUE(support::failpoints::configure(kill + ":count=1").ok());
  const auto recovered = CampaignRunner(config).run(grid);
  support::failpoints::clear();
  ASSERT_TRUE(recovered.complete);
  EXPECT_EQ(recovered.forensics_written, 1u);
  EXPECT_EQ(campaign::canonical_result_bytes(recovered),
            campaign::canonical_result_bytes(reference));
  const auto record = campaign::read_forensics((transient / file).string());
  ASSERT_TRUE(record.ok()) << record.error().message;
  EXPECT_EQ(record.value().cell, victim);
  EXPECT_EQ(record.value().attempt, 1u);
  EXPECT_NE(record.value().fault.find("signal 9"), std::string::npos)
      << record.value().fault;

  // A persistent kill quarantines the cell, and its journaled poison
  // points triage at the forensic record.
  const auto persistent = scratch_dir("forensics-persistent");
  config.forensics_dir = persistent.string();
  config.checkpoint_path = (persistent / "campaign.ckpt").string();
  ASSERT_TRUE(support::failpoints::configure(kill).ok());
  const auto poisoned = CampaignRunner(config).run(grid);
  support::failpoints::clear();
  ASSERT_EQ(poisoned.poisoned_cells.size(), 1u);
  EXPECT_EQ(poisoned.poisoned_cells[0].index, victim);
  auto journal = campaign::CampaignCheckpoint::open(
      config.checkpoint_path, campaign::campaign_fingerprint(grid, config));
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  ASSERT_EQ(journal.value().poisons().size(), 1u);
  EXPECT_TRUE(journal.value().poisons()[0].message.ends_with(" forensics=" + file))
      << journal.value().poisons()[0].message;
}

std::vector<std::uint8_t> cell_bytes(const fuzz::TestCaseResult& result) {
  ByteWriter out;
  campaign::serialize_cell_result(result, out);
  return out.data();
}

TEST(SandboxedCampaign, KillOnALaterCellIsAttributedToThatCell) {
  const auto grid = small_grid();
  const auto reference = CampaignRunner(small_config(1)).run(grid);
  ASSERT_TRUE(reference.complete);
  // The victim is at least the worker's third cell and follows a cell
  // that ran mutants, so crumbs left over from earlier cells would show.
  const std::size_t victim = 4;
  ASSERT_GT(reference.results[victim - 1].executed, 0u);

  const auto dir = scratch_dir("forensics-later-cell");
  CampaignConfig config = sandbox_config(1);
  config.forensics_dir = dir.string();
  ASSERT_TRUE(support::failpoints::configure(
                  "cell_exec:signal=KILL:cell=" + std::to_string(victim))
                  .ok());
  const std::uint64_t spawns_before =
      support::metrics().snapshot().counter("sandbox.spawns");
  const auto result = CampaignRunner(config).run(grid);
  support::failpoints::clear();
  // A clean one-workload run forks one child; each faulted attempt
  // retires its child, and the next cell runs in a new one.
  EXPECT_EQ(support::metrics().snapshot().counter("sandbox.spawns") -
                spawns_before,
            1 + result.harness_faults);

  ASSERT_EQ(result.poisoned_cells.size(), 1u);
  EXPECT_EQ(result.poisoned_cells[0].index, victim);
  EXPECT_EQ(result.poisoned_cells[0].fault.kind, fuzz::HarnessFault::Kind::kSignal);
  EXPECT_EQ(result.poisoned_cells[0].fault.detail, SIGKILL);
  // The kill fires before the cell body, so the victim's record holds
  // none of the mutant loop's crumbs.
  const auto record = campaign::read_forensics(
      (dir / campaign::forensic_file_name(victim)).string());
  ASSERT_TRUE(record.ok()) << record.error().message;
  EXPECT_EQ(record.value().cell, victim);
  for (const Crumb& crumb : record.value().harvest.crumbs) {
    EXPECT_NE(crumb.type, CrumbType::kMutant) << "crumb " << crumb.ordinal;
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i == victim) continue;
    EXPECT_EQ(cell_bytes(result.results[i]), cell_bytes(reference.results[i]))
        << "cell " << i;
  }
}

// --- Forensic records ---

ForensicRecord sample_record() {
  ForensicRecord record;
  record.cell = 11;
  record.attempt = 3;
  record.shard = "2-of-4";
  record.fault = "cell killed by signal 9";
  record.written_unix = 1700000000;
  record.harvest.total = 300;
  record.harvest.overwritten = 36;
  record.harvest.torn = 1;
  record.harvest.crumbs = {
      {263, CrumbType::kMutant, 12, 0},
      // Full-width values must survive the JSON round trip bit-exact.
      {264, CrumbType::kVmExit, 0x1e, 0xffffffffffffff01ULL},
      {265, CrumbType::kVmcsWrite, 0x6800, 0x8000000000000000ULL},
  };
  record.harvest.spans = {
      {Phase::kReplay, 100, 250, true},
      {Phase::kMutate, 260, 0, false},
  };
  record.harvest.log_tail = {"log line \"quoted\"", "plain line"};
  return record;
}

TEST(Forensics, FileNameSchemeRoundTrips) {
  EXPECT_EQ(campaign::forensic_file_name(4), "forensics-4.json");
  EXPECT_TRUE(campaign::is_forensic_file_name("forensics-4.json"));
  EXPECT_TRUE(campaign::is_forensic_file_name("forensics-1234.json"));
  EXPECT_FALSE(campaign::is_forensic_file_name("status-0.json"));
  EXPECT_FALSE(campaign::is_forensic_file_name("forensics-4.tmp"));
}

TEST(Forensics, RecordRoundTripsThroughJson) {
  const auto dir = scratch_dir("forensics-roundtrip");
  const ForensicRecord record = sample_record();
  ASSERT_TRUE(campaign::write_forensics(dir.string(), record).ok());

  auto read = campaign::read_forensics(
      (dir / campaign::forensic_file_name(record.cell)).string());
  ASSERT_TRUE(read.ok()) << read.error().message;
  const ForensicRecord& got = read.value();
  EXPECT_EQ(got.cell, 11u);
  EXPECT_EQ(got.attempt, 3u);
  EXPECT_EQ(got.shard, "2-of-4");
  EXPECT_EQ(got.fault, "cell killed by signal 9");
  EXPECT_EQ(got.written_unix, 1700000000u);
  EXPECT_EQ(got.harvest.total, 300u);
  EXPECT_EQ(got.harvest.overwritten, 36u);
  EXPECT_EQ(got.harvest.torn, 1u);
  ASSERT_EQ(got.harvest.crumbs.size(), 3u);
  EXPECT_EQ(got.harvest.crumbs[1].ordinal, 264u);
  EXPECT_EQ(got.harvest.crumbs[1].type, CrumbType::kVmExit);
  EXPECT_EQ(got.harvest.crumbs[1].b, 0xffffffffffffff01ULL);
  EXPECT_EQ(got.harvest.crumbs[2].b, 0x8000000000000000ULL);
  ASSERT_EQ(got.harvest.spans.size(), 2u);
  EXPECT_EQ(got.harvest.spans[0].phase, Phase::kReplay);
  EXPECT_TRUE(got.harvest.spans[0].closed);
  EXPECT_EQ(got.harvest.spans[0].end_us, 250u);
  EXPECT_EQ(got.harvest.spans[1].phase, Phase::kMutate);
  EXPECT_FALSE(got.harvest.spans[1].closed);
  ASSERT_EQ(got.harvest.log_tail.size(), 2u);
  EXPECT_EQ(got.harvest.log_tail[0], "log line \"quoted\"");
}

TEST(Forensics, PersistedCrumbsAreCappedToTheNewestTail) {
  ForensicRecord record = sample_record();
  record.harvest.crumbs.clear();
  for (std::uint64_t i = 0; i < campaign::kForensicCrumbTail + 6; ++i) {
    record.harvest.crumbs.push_back({i, CrumbType::kMutant, i, 0});
  }
  auto parsed = campaign::parse_forensics(campaign::render_forensics(record));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  ASSERT_EQ(parsed.value().harvest.crumbs.size(), campaign::kForensicCrumbTail);
  // The newest tail survives; the 6 oldest are dropped from the file.
  EXPECT_EQ(parsed.value().harvest.crumbs.front().ordinal, 6u);
  EXPECT_EQ(parsed.value().harvest.crumbs.back().ordinal,
            campaign::kForensicCrumbTail + 5);
  EXPECT_EQ(parsed.value().harvest.total, 300u);
}

TEST(Forensics, CorruptOrTruncatedFilesAreCleanErrors) {
  const auto dir = scratch_dir("forensics-corrupt");
  const std::string rendered = campaign::render_forensics(sample_record());
  write_text(dir / "forensics-1.json", rendered.substr(0, rendered.size() / 2));
  write_text(dir / "forensics-2.json", "not json at all");
  write_text(dir / "forensics-3.json", "{\"forensics_version\": 2}");

  auto truncated = campaign::read_forensics((dir / "forensics-1.json").string());
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code, 101);
  auto garbage = campaign::read_forensics((dir / "forensics-2.json").string());
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.error().code, 101);
  auto future = campaign::read_forensics((dir / "forensics-3.json").string());
  ASSERT_FALSE(future.ok());
  EXPECT_EQ(future.error().code, 102);
  auto missing = campaign::read_forensics((dir / "forensics-4.json").string());
  EXPECT_FALSE(missing.ok());
}

// --- Fleet-monitor folding ---

TEST(Forensics, FleetMonitorFoldsForensicRecords) {
  const auto dir = scratch_dir("forensics-fleet");
  ForensicRecord older = sample_record();
  older.cell = 3;
  older.fault = "cell killed by signal 9";
  older.written_unix = 100;
  ASSERT_TRUE(campaign::write_forensics(dir.string(), older).ok());
  ForensicRecord newer = sample_record();
  newer.cell = 5;
  newer.fault = "harness overran the cell deadline";
  newer.written_unix = 200;
  ASSERT_TRUE(campaign::write_forensics(dir.string(), newer).ok());
  // A torn forensic file is skipped by the monitor, not counted.
  write_text(dir / "forensics-9.json", "{ torn");

  auto fleet = campaign::aggregate_fleet(dir.string(), 15.0,
                                         campaign::wall_clock_unix(), 8);
  ASSERT_TRUE(fleet.ok()) << fleet.error().message;
  EXPECT_EQ(fleet.value().forensics, 2u);
  EXPECT_EQ(fleet.value().last_fault_cell, 5u);
  EXPECT_EQ(fleet.value().last_fault_unix, 200u);
  EXPECT_EQ(fleet.value().last_fault, "harness overran the cell deadline");

  const std::string json = campaign::render_fleet_json(fleet.value());
  EXPECT_NE(json.find("\"forensics\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"last_fault_cell\": 5"), std::string::npos);
}

}  // namespace
}  // namespace iris
