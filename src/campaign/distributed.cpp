#include "campaign/distributed.h"

#include <algorithm>
#include <filesystem>

#include "campaign/checkpoint.h"
#include "campaign/corpus_store.h"
#include "campaign/monitor.h"
#include "support/failpoints.h"
#include "support/fs_atomic.h"
#include "support/retry.h"

namespace iris::campaign {
namespace {

namespace fs = std::filesystem;

constexpr char kEpochFile[] = "corpus-epoch.bin";

/// The published epoch's import set, or an error if the file is absent
/// or invalid.
Result<std::vector<VmSeed>> read_epoch(const fs::path& path) {
  auto bytes = read_file_bytes(path);
  if (!bytes.ok()) return bytes.error();
  ByteReader r(bytes.value());
  auto epoch = deserialize_sync_epoch(r);
  if (!epoch.ok() || !r.exhausted()) {
    return Error{78, path.string() + " is not a valid corpus epoch"};
  }
  return std::move(epoch).take().imports;
}

/// Pin one corpus-sync epoch for the whole lease directory. The first
/// shard to arrive snapshots the store (sorted entry names, capped) and
/// publishes it with create_file_atomic: of any number of racing shards
/// (each possibly seeing a different snapshot of a growing store)
/// exactly one epoch is created, whole, and every loser loads the
/// winner's file. A last-wins rename here would let two shards fuzz
/// different import sets and turn the whole campaign into a reducer
/// conflict.
Result<std::vector<VmSeed>> pin_epoch(const std::string& lease_dir,
                                      const fuzz::CampaignConfig& config) {
  const fs::path path = fs::path(lease_dir) / kEpochFile;
  std::error_code ec;
  fs::create_directories(lease_dir, ec);  // pinning precedes GridLease::open
  if (fs::exists(path, ec)) return read_epoch(path);

  std::vector<VmSeed> imports =
      CorpusStore(config.corpus_dir).snapshot(fuzz::kCorpusMaxImports);
  ByteWriter w;
  serialize_sync_epoch(SyncEpochRecord{1, imports}, w);
  const auto create = [&]() -> Result<bool> {
    if (auto injected = support::failpoints::fs_error("epoch_pin")) {
      return *injected;
    }
    return create_file_atomic(lease_dir, kEpochFile, w.data());
  };
  const auto created = support::retry_io(support::RetryPolicy{}, create);
  if (!created.ok()) return created.error();
  if (created.value()) return imports;  // this shard's snapshot won
  return read_epoch(path);              // lost the race: adopt the winner's
}

}  // namespace

std::string DistributedCampaign::journal_path(const std::string& lease_dir,
                                              const std::string& shard_id) {
  return (fs::path(lease_dir) / ("shard-" + shard_id + ".ckpt")).string();
}

std::vector<std::string> DistributedCampaign::shard_journals(
    const std::string& lease_dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  fs::directory_iterator it(lease_dir, ec);
  if (ec) return paths;
  for (const auto& dirent : it) {
    const std::string name = dirent.path().filename().string();
    if (name.starts_with("shard-") && name.ends_with(".ckpt")) {
      paths.push_back(dirent.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::size_t DistributedCampaign::auto_range_size(std::size_t cells,
                                                 std::size_t advisory_shards) {
  const std::size_t shards = std::max<std::size_t>(advisory_shards, 1);
  return std::max<std::size_t>(1, cells / (4 * shards));
}

Result<ShardRun> DistributedCampaign::run(
    const std::vector<fuzz::TestCaseSpec>& grid) {
  if (grid.empty()) return Error{79, "cannot shard an empty grid"};

  fuzz::CampaignConfig config = base_;
  // Pin the sync epoch before fingerprinting is not required — the
  // fingerprint hashes whether sync is on and its parameters, never the
  // import set — but it must happen before any cell runs.
  if (!config.corpus_dir.empty() && !config.pinned_imports.has_value()) {
    auto pinned = pin_epoch(shard_.lease_dir, config);
    if (!pinned.ok()) return pinned.error();
    config.pinned_imports = std::move(pinned).take();
  }

  GridLeaseConfig lease_config;
  lease_config.dir = shard_.lease_dir;
  lease_config.shard_id = shard_.shard_id;
  lease_config.total_cells = grid.size();
  lease_config.range_size =
      shard_.range_size != 0
          ? shard_.range_size
          : auto_range_size(grid.size(), shard_.advisory_shards);
  lease_config.ttl_seconds = shard_.lease_ttl_seconds;
  lease_config.fingerprint = campaign_fingerprint(grid, config);
  auto lease = GridLease::open(lease_config);
  if (!lease.ok()) return lease.error();

  ShardRun out;
  out.journal_path = journal_path(shard_.lease_dir, shard_.shard_id);
  config.gate = lease.value().get();
  config.checkpoint_path = out.journal_path;
  if (config.shard_label.empty()) config.shard_label = shard_.shard_id;
  if (config.status_path.empty()) {
    config.status_path =
        (fs::path(shard_.lease_dir) / status_file_name(shard_.shard_id))
            .string();
  }

  // Cells this shard's journal covers after the latest pass.
  const auto journaled = [&out] {
    const auto& flags = out.result.cells_completed;
    return static_cast<std::size_t>(std::count(flags.begin(), flags.end(), 1));
  };
  // Claim sweeps until nothing is claimable: a pass that executes zero
  // new cells means every pending cell sits behind a live peer's lease
  // (or the grid is finished). A later reclaim would need a later
  // sweep, which a relaunch (or a peer) provides — sweeping forever
  // here would turn one dead shard into N spinning ones. A cell budget
  // is a deliberate kill switch, so it forces a single pass.
  for (;;) {
    ++out.passes;
    fuzz::CampaignRunner runner(config);
    out.result = runner.run(grid);
    if (out.result.interrupted) break;
    if (!out.result.persistence_error.empty()) break;
    if (out.result.complete || config.cell_budget != 0) break;
    if (journaled() <= out.result.cells_resumed) break;  // no new cells
  }
  // A graceful stop hands the shard's unfinished ranges back
  // immediately: peers claim them now instead of waiting out the TTL.
  if (out.result.interrupted) lease.value()->release_held();
  out.lease = lease.value()->stats();
  // Mark the last published status finished: this process will send no
  // more heartbeats, and the monitor should report it done rather than
  // ever aging it into "stale". (A SIGKILLed shard never gets here —
  // exactly the case staleness detection exists for.)
  if (!config.status_path.empty()) {
    if (auto status = read_status_file(config.status_path); status.ok()) {
      ShardStatus final_status = std::move(status).take();
      final_status.finished = true;
      final_status.heartbeat_unix = wall_clock_unix();
      // The last pass's board only saw that pass (a resume-everything
      // sweep executes zero new mutants); the final snapshot should
      // instead account for everything this shard's journal covers.
      final_status.cells_done = journaled();
      final_status.executed = out.result.executed;
      (void)write_status_file(config.status_path, final_status);
    }
  }
  return out;
}

}  // namespace iris::campaign
