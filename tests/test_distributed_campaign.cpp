// Tests for the distributed campaign subsystem: grid-lease claim
// races and crash recovery, reducer merges proven byte-identical to
// single-process runs (including kill-and-reclaim), reducer conflict
// detection, and sync-epoch determinism across resume and re-shard.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/corpus_store.h"
#include "campaign/distributed.h"
#include "campaign/grid_lease.h"
#include "campaign/reducer.h"
#include "fuzz/campaign.h"
#include "iris/manager.h"
#include "support/fs_atomic.h"

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

CampaignConfig small_config() {
  CampaignConfig config;
  config.workers = 1;
  config.hv_seed = 17;
  config.record_exits = 150;
  config.record_seed = 3;
  return config;
}

GridLeaseConfig lease_config(const fs::path& dir, const std::string& shard,
                             std::size_t cells, std::size_t range_size,
                             double ttl = 30.0) {
  GridLeaseConfig config;
  config.dir = dir.string();
  config.shard_id = shard;
  config.total_cells = cells;
  config.range_size = range_size;
  config.ttl_seconds = ttl;
  config.fingerprint = 0x5EED;
  return config;
}

/// Age a protocol file's mtime so its lease reads as stale.
void age_file(const std::string& path, double seconds) {
  const auto written = fs::last_write_time(path);
  fs::last_write_time(
      path, written - std::chrono::duration_cast<fs::file_time_type::duration>(
                          std::chrono::duration<double>(seconds)));
}

// --- Grid-lease protocol ---

TEST(GridLease, TwoShardsClaimDisjointRanges) {
  const auto dir = scratch_dir("lease-race");
  auto a = GridLease::open(lease_config(dir, "a", 12, 3));
  auto b = GridLease::open(lease_config(dir, "b", 12, 3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // Interleave claim attempts: whoever claims a cell owns its whole
  // range, and the loser is denied every cell of that range.
  for (std::size_t i = 0; i < 12; ++i) {
    const bool a_first = (i / 3) % 2 == 0;
    const bool first = a_first ? a.value()->try_claim(i) : b.value()->try_claim(i);
    const bool second = a_first ? b.value()->try_claim(i) : a.value()->try_claim(i);
    EXPECT_TRUE(first) << i;
    EXPECT_FALSE(second) << i;
  }
  EXPECT_EQ(a.value()->stats().claims, 2u);
  EXPECT_EQ(b.value()->stats().claims, 2u);
  // Every cell's losing claimant was denied exactly once.
  EXPECT_EQ(a.value()->stats().denials + b.value()->stats().denials, 12u);
}

TEST(GridLease, ManyThreadsRaceOneDirectoryWithoutOverlap) {
  const auto dir = scratch_dir("lease-thread-race");
  constexpr std::size_t kCells = 64;
  constexpr std::size_t kShards = 4;
  std::vector<std::unique_ptr<GridLease>> gates;
  for (std::size_t s = 0; s < kShards; ++s) {
    // append(), not "t" + ...: GCC 12 at -O3 reports a false -Wrestrict
    // for a string literal plus a temporary std::string.
    auto gate =
        GridLease::open(lease_config(
            dir, std::string("t").append(std::to_string(s)), kCells, 4));
    ASSERT_TRUE(gate.ok());
    gates.push_back(std::move(gate).take());
  }
  std::vector<std::vector<std::size_t>> won(kShards);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      for (std::size_t i = 0; i < kCells; ++i) {
        if (gates[s]->try_claim(i)) won[s].push_back(i);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<int> owners(kCells, 0);
  std::size_t total = 0;
  for (const auto& cells : won) {
    for (const std::size_t i : cells) {
      ++owners[i];
      ++total;
    }
  }
  EXPECT_EQ(total, kCells);  // every cell claimed...
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(owners[i], 1) << "cell " << i;  // ...by exactly one shard
  }
}

TEST(GridLease, StaleLeaseReclaimedFreshOneIsNot) {
  const auto dir = scratch_dir("lease-stale");
  auto dead = GridLease::open(lease_config(dir, "dead", 6, 2, 0.5));
  ASSERT_TRUE(dead.ok());
  ASSERT_TRUE(dead.value()->try_claim(0));

  auto live = GridLease::open(lease_config(dir, "live", 6, 2, 0.5));
  ASSERT_TRUE(live.ok());
  EXPECT_FALSE(live.value()->try_claim(0));  // fresh lease: hands off

  age_file(dead.value()->lease_path(0), 1.0);
  EXPECT_TRUE(live.value()->try_claim(0));  // stale: reclaimed
  EXPECT_EQ(live.value()->stats().reclaims, 1u);
  // The reclaimer now owns the range; the (zombie) original shard holds
  // a cached claim, which is exactly the both-run-it case the reducer's
  // checksum dedup exists for.
}

TEST(GridLease, OwnLeaseAdoptedInstantlyAfterRestart) {
  const auto dir = scratch_dir("lease-adopt");
  {
    auto first = GridLease::open(lease_config(dir, "me", 6, 2));
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value()->try_claim(0));
  }  // "killed" without completing the range
  auto relaunched = GridLease::open(lease_config(dir, "me", 6, 2));
  ASSERT_TRUE(relaunched.ok());
  EXPECT_TRUE(relaunched.value()->try_claim(0));  // no TTL wait on own lease
  EXPECT_EQ(relaunched.value()->stats().adoptions, 1u);
  EXPECT_EQ(relaunched.value()->stats().reclaims, 0u);
}

TEST(GridLease, CompletedRangePublishesDoneMarkerAndStaysFinal) {
  const auto dir = scratch_dir("lease-done");
  auto a = GridLease::open(lease_config(dir, "a", 4, 2, 0.1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a.value()->try_claim(0));
  a.value()->completed(0);
  EXPECT_TRUE(fs::exists(a.value()->lease_path(0)));
  a.value()->completed(1);
  // Lease retired into the done marker atomically.
  EXPECT_FALSE(fs::exists(a.value()->lease_path(0)));
  EXPECT_TRUE(fs::exists(a.value()->done_path(0)));

  // Done is final: no TTL ever reopens it.
  auto b = GridLease::open(lease_config(dir, "b", 4, 2, 0.1));
  ASSERT_TRUE(b.ok());
  age_file(a.value()->done_path(0), 10.0);
  EXPECT_FALSE(b.value()->try_claim(0));
  EXPECT_FALSE(b.value()->try_claim(1));
}

TEST(GridLease, ForeignCampaignOrGeometryRejected) {
  const auto dir = scratch_dir("lease-foreign");
  ASSERT_TRUE(GridLease::open(lease_config(dir, "a", 12, 3)).ok());

  auto foreign = lease_config(dir, "b", 12, 3);
  foreign.fingerprint = 0xBAD;
  EXPECT_FALSE(GridLease::open(foreign).ok());

  auto reshaped = lease_config(dir, "b", 12, 4);
  EXPECT_FALSE(GridLease::open(reshaped).ok());

  EXPECT_TRUE(GridLease::open(lease_config(dir, "b", 12, 3)).ok());
}

TEST(GridLease, TornGridMetaIsReclaimed) {
  // An older build created grid.meta first and wrote its bytes after,
  // so a shard killed in between left it short. The next shard reclaims
  // it and pins the same bytes a fresh directory gets.
  const auto fresh = scratch_dir("lease-meta-fresh");
  ASSERT_TRUE(GridLease::open(lease_config(fresh, "a", 12, 3)).ok());
  const auto whole = read_file_bytes(fresh / "grid.meta");
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole.value().size(), 28u);

  const std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> magic_only(whole.value().begin(),
                                             whole.value().begin() + 4);
  for (const auto& torn : {empty, magic_only}) {
    const auto dir = scratch_dir("lease-meta-torn");
    ASSERT_TRUE(write_file_atomic(dir, "grid.meta", torn).ok());
    auto lease = GridLease::open(lease_config(dir, "b", 12, 3));
    ASSERT_TRUE(lease.ok()) << torn.size() << " bytes: "
                            << lease.error().message;
    EXPECT_EQ(read_file_bytes(dir / "grid.meta").value(), whole.value())
        << torn.size() << " bytes";
    // Nothing but grid.meta is left: no aside copy, no temp file.
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    EXPECT_EQ(names, std::vector<std::string>{"grid.meta"});
  }

  // Shards racing to reclaim one torn grid.meta all open the directory.
  const auto dir = scratch_dir("lease-meta-torn-race");
  ASSERT_TRUE(write_file_atomic(dir, "grid.meta", magic_only).ok());
  constexpr std::size_t kShards = 8;
  std::vector<int> opened(kShards, 0);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      const auto id = std::string("r").append(std::to_string(s));
      opened[s] = GridLease::open(lease_config(dir, id, 12, 3)).ok() ? 1 : 0;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(opened, std::vector<int>(kShards, 1));
  EXPECT_EQ(read_file_bytes(dir / "grid.meta").value(), whole.value());
}

// --- Distributed runs reduce to the single-process bytes ---

ShardConfig shard_config(const fs::path& dir, const std::string& id,
                         std::size_t advisory) {
  ShardConfig shard;
  shard.lease_dir = dir.string();
  shard.shard_id = id;
  shard.range_size = 1;  // max interleaving between racing shards
  shard.advisory_shards = advisory;
  return shard;
}

class ShardCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardCountTest, ConcurrentShardsReduceToSingleProcessBytes) {
  const std::size_t shards = GetParam();
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 120, 7);
  const auto reference =
      canonical_result_bytes(CampaignRunner(small_config()).run(grid));

  const auto dir = scratch_dir("shards-" + std::to_string(shards));
  std::vector<std::thread> threads;
  std::vector<int> failures(shards, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      auto run = DistributedCampaign(
                     shard_config(dir, std::string("s").append(std::to_string(s)),
                                  shards),
                     small_config())
                     .run(grid);
      if (!run.ok() || !run.value().result.persistence_error.empty()) {
        failures[s] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t s = 0; s < shards; ++s) EXPECT_EQ(failures[s], 0) << s;
  // Every file the shards created was published whole: no temp is left.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_FALSE(entry.path().filename().string().starts_with("."))
        << entry.path();
  }

  const auto journals = DistributedCampaign::shard_journals(dir.string());
  ASSERT_EQ(journals.size(), shards);
  auto reduced = reduce_journals(journals, grid, small_config());
  ASSERT_TRUE(reduced.ok()) << reduced.error().message;
  EXPECT_TRUE(reduced.value().result.complete);
  EXPECT_TRUE(reduced.value().missing.empty());
  EXPECT_EQ(canonical_result_bytes(reduced.value().result), reference);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardCountTest,
                         ::testing::Values(1u, 2u, 4u));

TEST(DistributedCampaign, KilledShardReclaimedMidRunStaysByteIdentical) {
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 120, 7);
  const auto reference =
      canonical_result_bytes(CampaignRunner(small_config()).run(grid));
  const auto dir = scratch_dir("kill-reclaim");

  // Shard A "dies" after 5 cells: the cell budget stops it exactly the
  // way SIGKILL would — journal flushed per cell, leases left behind.
  auto dying = small_config();
  dying.cell_budget = 5;
  auto victim = shard_config(dir, "victim", 2);
  victim.lease_ttl_seconds = 0.2;
  auto first = DistributedCampaign(victim, dying).run(grid);
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_FALSE(first.value().result.complete);

  // Its unfinished leases go stale...
  for (const auto& dirent : fs::directory_iterator(dir)) {
    const std::string name = dirent.path().filename().string();
    if (name.starts_with("lease-")) age_file(dirent.path().string(), 1.0);
  }

  // ...and a surviving shard reclaims them and finishes the grid.
  auto survivor = shard_config(dir, "survivor", 2);
  survivor.lease_ttl_seconds = 0.2;
  auto second = DistributedCampaign(survivor, small_config()).run(grid);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_GT(second.value().lease.reclaims, 0u);

  auto reduced = reduce_journals(DistributedCampaign::shard_journals(dir.string()),
                                 grid, small_config());
  ASSERT_TRUE(reduced.ok()) << reduced.error().message;
  EXPECT_TRUE(reduced.value().result.complete);
  EXPECT_EQ(canonical_result_bytes(reduced.value().result), reference);
}

TEST(DistributedCampaign, RelaunchedShardResumesOwnJournalAndLeases) {
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 120, 7);
  const auto reference =
      canonical_result_bytes(CampaignRunner(small_config()).run(grid));
  const auto dir = scratch_dir("relaunch");

  auto dying = small_config();
  dying.cell_budget = 4;
  auto first = DistributedCampaign(shard_config(dir, "only", 1), dying).run(grid);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().result.complete);

  // Same shard id relaunched: journal resumed, leases adopted without
  // any TTL wait, grid finished single-handedly.
  auto second =
      DistributedCampaign(shard_config(dir, "only", 1), small_config()).run(grid);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().result.cells_resumed, 4u);

  auto reduced = reduce_journals(DistributedCampaign::shard_journals(dir.string()),
                                 grid, small_config());
  ASSERT_TRUE(reduced.ok()) << reduced.error().message;
  EXPECT_EQ(canonical_result_bytes(reduced.value().result), reference);
}

// --- Reducer invariants ---

TEST(Reducer, DuplicateIdenticalCellsDeduplicateConflictingOnesError) {
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 60, 7);
  const auto config = small_config();
  const std::uint64_t fp = campaign_fingerprint(grid, config);
  const auto dir = scratch_dir("reduce-conflict");

  // Run the campaign once and journal every cell into shard A.
  auto journaled = config;
  journaled.checkpoint_path = (dir / "shard-a.ckpt").string();
  const auto result = CampaignRunner(journaled).run(grid);
  ASSERT_TRUE(result.persistence_error.empty());

  // Shard B re-journals cell 0 identically: a benign re-run.
  auto a = CampaignCheckpoint::open((dir / "shard-a.ckpt").string(), fp);
  ASSERT_TRUE(a.ok());
  auto b = CampaignCheckpoint::open((dir / "shard-b.ckpt").string(), fp);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b.value().append(a.value().cells()[0]).ok());

  const std::vector<std::string> journals = {(dir / "shard-a.ckpt").string(),
                                             (dir / "shard-b.ckpt").string()};
  auto merged = reduce_journals(journals, grid, config);
  ASSERT_TRUE(merged.ok()) << merged.error().message;
  EXPECT_EQ(merged.value().duplicate_cells, 1u);
  EXPECT_EQ(canonical_result_bytes(merged.value().result),
            canonical_result_bytes(result));

  // Shard C journals cell 1 with a different outcome: the determinism
  // contract is broken and the reduce must fail naming both shards.
  auto c = CampaignCheckpoint::open((dir / "shard-c.ckpt").string(), fp);
  ASSERT_TRUE(c.ok());
  CheckpointCell tampered = a.value().cells()[1];
  tampered.result.executed += 1;
  ASSERT_TRUE(c.value().append(tampered).ok());
  auto conflicted = reduce_journals(
      {journals[0], journals[1], (dir / "shard-c.ckpt").string()}, grid, config);
  ASSERT_FALSE(conflicted.ok());
  EXPECT_NE(conflicted.error().message.find("shard-a.ckpt"), std::string::npos);
  EXPECT_NE(conflicted.error().message.find("shard-c.ckpt"), std::string::npos);
}

TEST(Reducer, ObserverNeverTruncatesALiveJournalsTornTail) {
  const auto dir = scratch_dir("reduce-live-tail");
  const std::string path = (dir / "shard-live.ckpt").string();
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 60, 7);
  auto config = small_config();
  config.checkpoint_path = path;
  config.cell_budget = 2;
  (void)CampaignRunner(config).run(grid);

  // A live shard is mid-append: the journal ends in a half-flushed
  // record. The reducer must read around it without truncating.
  {
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn << "\x40\x00\x00\x00half-flushed";
  }
  const auto size_before = fs::file_size(path);
  auto reduced = reduce_journals({path}, grid, small_config());
  ASSERT_TRUE(reduced.ok()) << reduced.error().message;
  EXPECT_EQ(reduced.value().cells_loaded, 2u);
  EXPECT_EQ(fs::file_size(path), size_before);  // untouched

  // The shard itself (writable open) still truncates and recovers.
  auto writer = CampaignCheckpoint::open(path, campaign_fingerprint(grid, config));
  ASSERT_TRUE(writer.ok());
  EXPECT_LT(fs::file_size(path), size_before);
  EXPECT_EQ(writer.value().cells().size(), 2u);
}

TEST(Reducer, MissingCellsReportedAsIncomplete) {
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 60, 7);
  auto config = small_config();
  const auto dir = scratch_dir("reduce-missing");
  config.checkpoint_path = (dir / "shard-a.ckpt").string();
  config.cell_budget = 3;
  (void)CampaignRunner(config).run(grid);

  auto reduced =
      reduce_journals({config.checkpoint_path}, grid, small_config());
  ASSERT_TRUE(reduced.ok()) << reduced.error().message;
  EXPECT_FALSE(reduced.value().result.complete);
  EXPECT_EQ(reduced.value().missing.size(), grid.size() - 3);
}

TEST(Reducer, ForeignJournalRejectedMissingJournalNotInvented) {
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 60, 7);
  const auto dir = scratch_dir("reduce-foreign");
  // A journal for a different campaign (different hv seed).
  auto other = small_config();
  other.hv_seed ^= 1;
  other.checkpoint_path = (dir / "shard-a.ckpt").string();
  (void)CampaignRunner(other).run(grid);

  EXPECT_FALSE(
      reduce_journals({other.checkpoint_path}, grid, small_config()).ok());
  EXPECT_FALSE(reduce_journals({(dir / "absent.ckpt").string()}, grid,
                               small_config())
                   .ok());
  EXPECT_FALSE(fs::exists(dir / "absent.ckpt"));  // reduce never creates
}

// --- Sync-epoch determinism ---

/// A corpus store seeded with real recorded seeds (so imports actually
/// execute and contribute mutants to the synced cells).
fs::path make_corpus(const std::string& name, std::size_t seeds) {
  const auto dir = scratch_dir(name);
  CorpusStore store(dir.string());
  EXPECT_TRUE(store.init().ok());
  hv::Hypervisor hv(51, 0.0);
  Manager manager(hv);
  const VmBehavior& behavior = manager.record_workload(Workload::kCpuBound, 150, 3);
  for (std::size_t i = 0; i < std::min(seeds, behavior.size()); ++i) {
    CorpusEntry entry;
    entry.seed = behavior[i].seed;
    EXPECT_TRUE(store.write_entry(entry).ok());
  }
  return dir;
}

TEST(SyncEpochs, ImportsChangeResultsAndStayDeterministicAcrossResume) {
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 120, 7);
  const auto corpus = make_corpus("sync-corpus", 40);

  auto synced = small_config();
  synced.corpus_dir = corpus.string();
  const auto reference = CampaignRunner(synced).run(grid);
  const auto reference_bytes = canonical_result_bytes(reference);

  // Sync must do real work: the imported seeds add executed mutants.
  const auto plain = CampaignRunner(small_config()).run(grid);
  EXPECT_GT(reference.executed, plain.executed);
  EXPECT_NE(reference_bytes, canonical_result_bytes(plain));

  // Kill a checkpointed synced run, grow the store behind its back,
  // and resume: the journaled epoch pins the original import set, so
  // the bytes still match the uninterrupted reference.
  const auto dir = scratch_dir("sync-resume");
  auto killed = synced;
  killed.checkpoint_path = (dir / "campaign.ckpt").string();
  killed.cell_budget = 5;
  const auto partial = CampaignRunner(killed).run(grid);
  ASSERT_TRUE(partial.persistence_error.empty()) << partial.persistence_error;
  EXPECT_FALSE(partial.complete);

  {
    CorpusStore store(corpus.string());
    CorpusEntry late;
    late.seed.reason = vtx::ExitReason::kRdtsc;
    late.seed.items.push_back(SeedItem{SeedItemKind::kGpr, 3, 0xA5A5A5A5ULL});
    ASSERT_TRUE(store.write_entry(late).ok());
  }

  auto resume = synced;
  resume.checkpoint_path = killed.checkpoint_path;
  const auto resumed = CampaignRunner(resume).run(grid);
  ASSERT_TRUE(resumed.persistence_error.empty()) << resumed.persistence_error;
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.cells_resumed, 5u);
  EXPECT_EQ(canonical_result_bytes(resumed), reference_bytes);

  // A fresh (non-resumed) run sees the grown store and may diverge —
  // that is the point of recording the epoch in the journal.
  const auto fresh = CampaignRunner(synced).run(grid);
  EXPECT_NE(canonical_result_bytes(fresh), reference_bytes);
}

TEST(SyncEpochs, ShardsShareOnePinnedEpochAcrossStoreGrowth) {
  const auto grid = fuzz::make_table1_grid({Workload::kCpuBound}, 120, 7);
  const auto corpus = make_corpus("sync-shard-corpus", 40);

  auto synced = small_config();
  synced.corpus_dir = corpus.string();
  const auto reference = canonical_result_bytes(CampaignRunner(synced).run(grid));

  // The lease dir does not exist yet: epoch pinning precedes
  // GridLease::open and must create it.
  const auto dir = scratch_dir("sync-shards") / "lease";
  auto budgeted = synced;
  budgeted.cell_budget = 6;
  auto first = DistributedCampaign(shard_config(dir, "s0", 2), budgeted).run(grid);
  ASSERT_TRUE(first.ok()) << first.error().message;

  // The store grows between the two shards' arrivals; the epoch file in
  // the lease dir keeps shard s1 on the original import set.
  {
    CorpusStore store(corpus.string());
    CorpusEntry late;
    late.seed.reason = vtx::ExitReason::kCpuid;
    late.seed.items.push_back(SeedItem{SeedItemKind::kGpr, 1, 0x1234ULL});
    ASSERT_TRUE(store.write_entry(late).ok());
  }
  for (const auto& dirent : fs::directory_iterator(dir)) {
    const std::string name = dirent.path().filename().string();
    if (name.starts_with("lease-")) age_file(dirent.path().string(), 120.0);
  }
  auto second = DistributedCampaign(shard_config(dir, "s1", 2), synced).run(grid);
  ASSERT_TRUE(second.ok()) << second.error().message;

  auto reduced = reduce_journals(DistributedCampaign::shard_journals(dir.string()),
                                 grid, synced);
  ASSERT_TRUE(reduced.ok()) << reduced.error().message;
  EXPECT_TRUE(reduced.value().result.complete);
  EXPECT_EQ(canonical_result_bytes(reduced.value().result), reference);
}

TEST(SyncEpochs, EpochRecordSurvivesJournalRoundTrip) {
  const auto dir = scratch_dir("epoch-roundtrip");
  const std::string path = (dir / "campaign.ckpt").string();
  SyncEpochRecord record;
  record.epoch = 1;
  VmSeed seed;
  seed.reason = vtx::ExitReason::kHlt;
  seed.items.push_back(SeedItem{SeedItemKind::kVmcsField, 7, 0xFEED});
  record.imports.push_back(seed);

  auto ckpt = CampaignCheckpoint::open(path, 0x77);
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(ckpt.value().append_epoch(record).ok());

  auto reopened = CampaignCheckpoint::open(path, 0x77);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened.value().epochs().size(), 1u);
  EXPECT_EQ(reopened.value().epochs()[0].epoch, 1u);
  ASSERT_EQ(reopened.value().epochs()[0].imports.size(), 1u);
  EXPECT_EQ(reopened.value().epochs()[0].imports[0], seed);

  // Corrupt truncations of the epoch payload must parse-fail cleanly.
  ByteWriter w;
  serialize_sync_epoch(record, w);
  for (std::size_t len = 0; len < w.size(); ++len) {
    ByteReader r(std::span(w.data()).first(len));
    auto parsed = deserialize_sync_epoch(r);
    EXPECT_TRUE(!parsed.ok() || !r.exhausted()) << len;
  }
}

}  // namespace
}  // namespace iris::campaign
