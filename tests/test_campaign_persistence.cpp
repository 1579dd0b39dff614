// Tests for the persistent campaign subsystem (src/campaign/): on-disk
// corpus store round trips, pinned entry bytes and atomicity, checkpoint
// journaling and kill/resume byte-identity across worker counts, and
// crash-reproducer archiving and replay.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "campaign/checkpoint.h"
#include "campaign/corpus_store.h"
#include "campaign/crash_archive.h"
#include "fuzz/campaign.h"

namespace iris::campaign {
namespace {

namespace fs = std::filesystem;
using fuzz::CampaignConfig;
using fuzz::CampaignRunner;
using guest::Workload;

/// Fresh scratch directory per test, wiped up front so reruns start
/// clean.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("iris-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

VmSeed make_seed(std::uint64_t value) {
  VmSeed seed;
  seed.reason = vtx::ExitReason::kRdtsc;
  seed.items.push_back(SeedItem{SeedItemKind::kGpr, 0, value});
  seed.items.push_back(SeedItem{SeedItemKind::kGpr, 1, value ^ 0xFF});
  return seed;
}

CorpusEntry make_entry(std::uint64_t value) {
  CorpusEntry entry;
  entry.seed = make_seed(value);
  entry.energy = 32;
  entry.discoveries = 2;
  entry.born_of = 3;
  return entry;
}

CampaignConfig small_config(std::size_t workers) {
  CampaignConfig config;
  config.workers = workers;
  config.hv_seed = 17;
  config.record_exits = 150;
  config.record_seed = 3;
  return config;
}

// --- CorpusStore ---

TEST(CorpusStore, EntryRoundTripPreservesSeedAndMetadata) {
  const auto dir = scratch_dir("corpus-roundtrip");
  CorpusStore store(dir.string());
  ASSERT_TRUE(store.init().ok());

  const auto entry = make_entry(0xAB);
  ASSERT_TRUE(store.write_entry(entry).ok());
  EXPECT_TRUE(store.contains(entry.seed));
  ASSERT_EQ(store.size(), 1u);

  const auto names = store.list();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], CorpusStore::entry_name(entry.seed));

  auto loaded = store.read_entry(names[0]);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().seed, entry.seed);
  EXPECT_EQ(loaded.value().energy, entry.energy);
  EXPECT_EQ(loaded.value().discoveries, entry.discoveries);
  EXPECT_EQ(loaded.value().born_of, entry.born_of);
}

TEST(CorpusStore, EntryBytesAndFileNameArePinned) {
  // The entry file is a wire format: corpus dirs written by any build
  // must read back in every other, and equal seeds must keep colliding
  // on one file name. make_entry's energy, discoveries and born_of all
  // differ from an entry's defaults, so every stored field reaches the
  // pinned bytes.
  const auto entry = make_entry(0x5EED);
  ByteWriter w;
  CorpusStore::serialize_entry(entry, w);
  EXPECT_EQ(fnv1a(w.data()), 0x53aef0254fc85211ULL) << std::hex << fnv1a(w.data());
  EXPECT_EQ(CorpusStore::entry_name(entry.seed), "seed-4498a00b8629e7cf.bin");
}

TEST(CorpusStore, BornOfByteOutsideItsRangeIsRejected) {
  auto entry = make_entry(0x77);
  for (const int born_of : {0, 4, 5, 255}) {
    entry.born_of = static_cast<std::uint8_t>(born_of);
    ByteWriter w;
    CorpusStore::serialize_entry(entry, w);
    ByteReader r(w.data());
    const auto back = CorpusStore::deserialize_entry(r);
    if (born_of <= kMaxBornOf) {
      ASSERT_TRUE(back.ok()) << born_of;
      EXPECT_EQ(back.value().born_of, born_of);
    } else {
      ASSERT_FALSE(back.ok()) << born_of;
      EXPECT_EQ(back.error().code, 26);
    }
  }
}

TEST(CorpusStore, ContentHashNamesDeduplicateAcrossWriters) {
  const auto dir = scratch_dir("corpus-dedup");
  CorpusStore store(dir.string());
  ASSERT_TRUE(store.init().ok());

  // The same seed written twice (e.g. by two workers) is one file.
  ASSERT_TRUE(store.write_entry(make_entry(1)).ok());
  ASSERT_TRUE(store.write_entry(make_entry(1)).ok());
  ASSERT_TRUE(store.write_entry(make_entry(2)).ok());
  EXPECT_EQ(store.size(), 2u);
}

TEST(CorpusStore, LeavesNoTempFilesAndSkipsCorruptEntries) {
  const auto dir = scratch_dir("corpus-corrupt");
  CorpusStore store(dir.string());
  ASSERT_TRUE(store.init().ok());
  ASSERT_TRUE(store.write_entry(make_entry(3)).ok());

  // No temp droppings after a successful atomic write.
  for (const auto& dirent : fs::directory_iterator(dir)) {
    EXPECT_FALSE(dirent.path().filename().string().ends_with(".tmp"));
  }

  // A torn file (e.g. from a killed writer on a non-atomic filesystem)
  // is skipped by load_all, not fatal.
  std::ofstream bad(dir / "seed-0000000000000bad.bin", std::ios::binary);
  bad << "garbage";
  bad.close();
  std::size_t skipped = 0;
  const auto entries = store.load_all(&skipped);
  EXPECT_EQ(entries.size(), 1u);
  EXPECT_EQ(skipped, 1u);
}

TEST(CorpusStore, SyncFromImportsOnlyMissingEntries) {
  const auto src_dir = scratch_dir("corpus-sync-src");
  const auto dst_dir = scratch_dir("corpus-sync-dst");
  CorpusStore src(src_dir.string());
  CorpusStore dst(dst_dir.string());
  ASSERT_TRUE(src.init().ok());
  ASSERT_TRUE(dst.init().ok());

  ASSERT_TRUE(src.write_entry(make_entry(10)).ok());
  ASSERT_TRUE(src.write_entry(make_entry(11)).ok());
  ASSERT_TRUE(dst.write_entry(make_entry(11)).ok());  // shared already
  ASSERT_TRUE(dst.write_entry(make_entry(12)).ok());

  auto imported = dst.sync_from(src);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value(), 1u);  // only entry 10 was missing
  EXPECT_EQ(dst.size(), 3u);

  // Re-syncing is a no-op.
  imported = dst.sync_from(src);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value(), 0u);
}

// --- Checkpoint journal ---

TEST(CampaignCheckpoint, CellRoundTripIncludingCrashes) {
  fuzz::TestCaseResult result;
  result.spec = fuzz::TestCaseSpec{Workload::kIdle, vtx::ExitReason::kHlt,
                                   fuzz::MutationArea::kGpr, 500, 99};
  result.ran = true;
  result.target_index = 7;
  result.baseline_loc = 123;
  result.new_loc = 45;
  result.coverage_increase_pct = 36.58;
  result.executed = 500;
  result.vm_crashes = 3;
  fuzz::CrashRecord crash;
  crash.mutant = make_seed(0xDEAD);
  crash.mutation = fuzz::AppliedMutation{1, 9, 0xDEAD ^ 0xFF, 0xBEEF};
  crash.kind = hv::FailureKind::kVmCrash;
  crash.log_line = "domain 2 killed: triple fault";
  crash.mutant_index = 42;
  result.crashes.push_back(crash);

  CheckpointCell cell;
  cell.index = 5;
  cell.result = result;
  cell.coverage = {{hv::pack_block(hv::Component::kVmx, 3), 7},
                   {hv::pack_block(hv::Component::kEmulate, 9), 12}};

  ByteWriter w;
  serialize_checkpoint_cell(cell, w);
  ByteReader r(w.data());
  auto parsed = deserialize_checkpoint_cell(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(r.exhausted());

  const CheckpointCell& back = parsed.value();
  EXPECT_EQ(back.index, 5u);
  EXPECT_EQ(back.coverage, cell.coverage);
  ByteWriter a, b;
  serialize_cell_result(cell.result, a);
  serialize_cell_result(back.result, b);
  EXPECT_EQ(a.data(), b.data());
}

TEST(CampaignCheckpoint, RecoversAppendedCellsAndDropsTornTail) {
  const auto dir = scratch_dir("ckpt-torn");
  const std::string path = (dir / "campaign.ckpt").string();

  CheckpointCell cell;
  cell.index = 2;
  cell.result.ran = true;
  cell.result.executed = 10;
  cell.coverage = {{hv::pack_block(hv::Component::kVmx, 1), 4}};

  auto ckpt = CampaignCheckpoint::open(path, 0x1234);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_TRUE(ckpt.value().cells().empty());
  ASSERT_TRUE(ckpt.value().append(cell).ok());
  cell.index = 4;
  ASSERT_TRUE(ckpt.value().append(cell).ok());

  // Simulate a kill mid-append: garbage after the last intact record.
  {
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn << "\x30\x00\x00\x00partial";
  }
  const auto torn_size = fs::file_size(path);

  auto reopened = CampaignCheckpoint::open(path, 0x1234);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened.value().cells().size(), 2u);
  EXPECT_EQ(reopened.value().cells()[0].index, 2u);
  EXPECT_EQ(reopened.value().cells()[1].index, 4u);
  // The torn tail was truncated away so future appends extend a valid
  // journal.
  EXPECT_LT(fs::file_size(path), torn_size);
  ASSERT_TRUE(reopened.value().append(cell).ok());
  auto again = CampaignCheckpoint::open(path, 0x1234);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().cells().size(), 3u);
}

TEST(CampaignCheckpoint, RejectsForeignFingerprint) {
  const auto dir = scratch_dir("ckpt-foreign");
  const std::string path = (dir / "campaign.ckpt").string();
  ASSERT_TRUE(CampaignCheckpoint::open(path, 1).ok());
  EXPECT_FALSE(CampaignCheckpoint::open(path, 2).ok());
}

TEST(CampaignFingerprint, SensitiveToGridAndConfig) {
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 100, 7);
  const auto config = small_config(1);
  const auto base = campaign_fingerprint(grid, config);

  auto other_config = config;
  other_config.hv_seed ^= 1;
  EXPECT_NE(base, campaign_fingerprint(grid, other_config));

  auto other_grid = grid;
  other_grid[0].mutants += 1;
  EXPECT_NE(base, campaign_fingerprint(other_grid, config));

  // Worker count and persistence paths must NOT change the identity:
  // any sharding of the same campaign may resume any checkpoint.
  auto sharded = config;
  sharded.workers = 8;
  sharded.checkpoint_path = "/elsewhere.ckpt";
  sharded.cell_budget = 3;
  EXPECT_EQ(base, campaign_fingerprint(grid, sharded));
}

// --- Kill + resume determinism (the acceptance criterion) ---

class CampaignResumeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CampaignResumeTest, ResumedRunIsByteIdenticalToUninterrupted) {
  const std::size_t workers = GetParam();
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 120, 7);

  // Reference: one uninterrupted, unpersisted run.
  const auto uninterrupted = CampaignRunner(small_config(workers)).run(grid);
  const auto reference = canonical_result_bytes(uninterrupted);

  // "Kill" a checkpointed run after 5 cells, then resume it to
  // completion in a fresh runner (a fresh process, as far as the
  // subsystem can tell: all state flows through the journal).
  const auto dir = scratch_dir("resume-w" + std::to_string(workers));
  auto config = small_config(workers);
  config.checkpoint_path = (dir / "campaign.ckpt").string();
  config.cell_budget = 5;
  const auto partial = CampaignRunner(config).run(grid);
  EXPECT_FALSE(partial.complete);
  EXPECT_TRUE(partial.persistence_error.empty()) << partial.persistence_error;
  EXPECT_EQ(partial.cells_resumed, 0u);

  auto resume_config = small_config(workers);
  resume_config.checkpoint_path = config.checkpoint_path;
  const auto resumed = CampaignRunner(resume_config).run(grid);
  EXPECT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.persistence_error.empty()) << resumed.persistence_error;
  EXPECT_EQ(resumed.cells_resumed, 5u);

  EXPECT_EQ(canonical_result_bytes(resumed), reference);

  // A third run resumes everything and still reproduces the bytes.
  const auto replayed = CampaignRunner(resume_config).run(grid);
  EXPECT_EQ(replayed.cells_resumed, grid.size());
  EXPECT_EQ(canonical_result_bytes(replayed), reference);
}

TEST_P(CampaignResumeTest, ResumeAcrossWorkerCountsMatches) {
  // A checkpoint written by a single worker can be finished by four
  // (and vice versa) — the journal carries no sharding assumptions.
  const std::size_t workers = GetParam();
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 120, 7);
  const auto reference =
      canonical_result_bytes(CampaignRunner(small_config(1)).run(grid));

  const auto dir = scratch_dir("resume-cross-w" + std::to_string(workers));
  auto config = small_config(workers);
  config.checkpoint_path = (dir / "campaign.ckpt").string();
  config.cell_budget = 7;
  (void)CampaignRunner(config).run(grid);

  auto finish = small_config(workers == 1 ? 4 : 1);
  finish.checkpoint_path = config.checkpoint_path;
  const auto resumed = CampaignRunner(finish).run(grid);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(canonical_result_bytes(resumed), reference);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CampaignResumeTest,
                         ::testing::Values(1u, 4u));

TEST(CampaignRunner, CellBudgetStopsCleanly) {
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 60, 7);
  auto config = small_config(2);
  config.cell_budget = 3;
  const auto result = CampaignRunner(config).run(grid);
  EXPECT_FALSE(result.complete);
  std::size_t with_results = 0;
  for (const auto& r : result.results) {
    if (r.executed > 0 || r.ran) ++with_results;
  }
  EXPECT_LE(with_results, 3u);
}

TEST(CampaignRunner, FullyResumedRunReportsNoThroughput) {
  // Throughput counts only the mutants a run executes: a run that
  // resumes every cell executes none, however many its cells hold.
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 60, 7);
  const auto dir = scratch_dir("resume-throughput");
  auto config = small_config(1);
  config.checkpoint_path = (dir / "campaign.ckpt").string();
  const auto first = CampaignRunner(config).run(grid);
  ASSERT_TRUE(first.complete);
  EXPECT_GT(first.mutants_per_second, 0.0);

  const auto resumed = CampaignRunner(config).run(grid);
  EXPECT_EQ(resumed.cells_resumed, grid.size());
  EXPECT_EQ(resumed.executed, first.executed);
  EXPECT_EQ(resumed.mutants_per_second, 0.0);
}

// --- Crash archive ---

TEST(CrashArchive, CampaignWritesReplayableReproducers) {
  const auto dir = scratch_dir("crash-archive");
  auto config = small_config(2);
  config.crash_archive_dir = (dir / "crashes").string();
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 300, 3);
  const auto result = CampaignRunner(config).run(grid);
  ASSERT_FALSE(result.unique_crashes.empty());
  EXPECT_TRUE(result.persistence_error.empty()) << result.persistence_error;

  CrashArchive archive(config.crash_archive_dir);
  const auto names = archive.list();
  ASSERT_EQ(names.size(), result.unique_crashes.size());

  std::size_t matched = 0;
  for (const auto& name : names) {
    auto repro = archive.load(name);
    ASSERT_TRUE(repro.ok()) << name;
    EXPECT_EQ(CrashArchive::reproducer_name(repro.value().key), name);
    const auto verdict = CrashArchive::replay(repro.value());
    EXPECT_TRUE(verdict.walked) << name;
    if (verdict.matches) ++matched;
  }
  // Every reproducer must re-fail with its archived failure kind.
  EXPECT_EQ(matched, names.size());
}

/// Every file in `dir`, by name.
std::map<std::string, std::string> file_bytes(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

TEST(CrashArchive, FullyResumedRunWritesTheSameReproducers) {
  // A run that resumes every cell runs none, so its archive must record
  // the buckets' workloads itself; its reproducers (prefixes included)
  // must still match the ones the executing run wrote.
  const auto dir = scratch_dir("crash-archive-resumed");
  auto config = small_config(2);
  config.checkpoint_path = (dir / "campaign.ckpt").string();
  config.crash_archive_dir = (dir / "first").string();
  const auto grid =
      fuzz::make_table1_grid({Workload::kCpuBound, Workload::kIoBound}, 300, 3);
  const auto first = CampaignRunner(config).run(grid);
  ASSERT_TRUE(first.complete);
  ASSERT_FALSE(first.unique_crashes.empty());
  EXPECT_TRUE(first.persistence_error.empty()) << first.persistence_error;

  config.crash_archive_dir = (dir / "second").string();
  const auto resumed = CampaignRunner(config).run(grid);
  EXPECT_EQ(resumed.cells_resumed, grid.size());
  EXPECT_TRUE(resumed.persistence_error.empty()) << resumed.persistence_error;

  const auto written = file_bytes(dir / "first");
  EXPECT_EQ(written.size(), first.unique_crashes.size());
  EXPECT_EQ(file_bytes(dir / "second"), written);
}

TEST(CrashArchive, ReproducerRoundTripAndCorruptionRejected) {
  CrashReproducer repro;
  repro.key = fuzz::CrashKey{hv::FailureKind::kVmCrash, vtx::ExitReason::kCpuid,
                             SeedItemKind::kVmcsField, 9};
  repro.spec = fuzz::TestCaseSpec{Workload::kOsBoot, vtx::ExitReason::kCpuid,
                                  fuzz::MutationArea::kVmcs, 100, 5};
  repro.hv_seed = 77;
  repro.target_index = 2;
  repro.prefix = {make_seed(1), make_seed(2), make_seed(3)};
  repro.mutant = make_seed(0xBAD);

  ByteWriter w;
  CrashArchive::serialize_reproducer(repro, w);
  {
    ByteReader r(w.data());
    auto back = CrashArchive::deserialize_reproducer(r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().key, repro.key);
    EXPECT_EQ(back.value().prefix, repro.prefix);
    EXPECT_EQ(back.value().mutant, repro.mutant);
    EXPECT_EQ(back.value().target_index, repro.target_index);
  }
  // Every strict prefix must fail cleanly, never crash.
  for (std::size_t len = 0; len < w.size(); ++len) {
    ByteReader r(std::span(w.data()).first(len));
    EXPECT_FALSE(CrashArchive::deserialize_reproducer(r).ok()) << len;
  }
}

}  // namespace
}  // namespace iris::campaign
