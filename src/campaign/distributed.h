// One shard of a distributed campaign.
//
// A DistributedCampaign wires the pieces together for one process: it
// pins the corpus-sync epoch in the lease directory (so every shard
// fuzzes the same import set even while the shared store grows), opens
// a GridLease gate, points the CampaignRunner's checkpoint at this
// shard's own journal, and then runs claim→execute→journal passes until
// the grid is exhausted or nothing claimable remains. Any number of
// shard processes can run this concurrently against one lease
// directory; campaign::reduce_journals folds their journals into the
// single-process-identical CampaignResult.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/grid_lease.h"
#include "fuzz/campaign.h"
#include "support/result.h"

namespace iris::campaign {

struct ShardConfig {
  /// Shared coordination directory: grid.meta, leases, done markers,
  /// the pinned corpus epoch, and every shard's journal live here.
  std::string lease_dir;
  /// Unique, filesystem-safe shard identity (names this shard's journal
  /// and lease payloads). Relaunching with the same id resumes the
  /// shard: its journal is reloaded and its leases adopted instantly.
  std::string shard_id;
  /// Cells per lease; 0 = auto_range_size(grid, advisory_shards).
  std::size_t range_size = 0;
  /// Expected shard count — only a balance hint for the auto range
  /// size. The protocol itself never needs to know how many shards
  /// exist; any number may come and go.
  std::size_t advisory_shards = 1;
  /// Lease staleness threshold (see GridLeaseConfig::ttl_seconds).
  double lease_ttl_seconds = 30.0;
};

struct ShardRun {
  /// This shard's own view: its journal's cells plus what it executed.
  /// complete is false unless this shard saw every cell — use
  /// reduce_journals for the campaign-wide result.
  fuzz::CampaignResult result;
  GridLeaseStats lease;
  std::string journal_path;
  std::size_t passes = 0;  ///< claim sweeps until nothing was claimable
};

class DistributedCampaign {
 public:
  /// `base` is the campaign config every shard must share (it feeds the
  /// fingerprint); checkpoint_path and gate are overwritten per shard.
  DistributedCampaign(ShardConfig shard, fuzz::CampaignConfig base)
      : shard_(std::move(shard)), base_(std::move(base)) {}

  Result<ShardRun> run(const std::vector<fuzz::TestCaseSpec>& grid);

  /// This shard's journal file inside the lease directory.
  static std::string journal_path(const std::string& lease_dir,
                                  const std::string& shard_id);

  /// Every shard journal currently in `lease_dir`, sorted — the
  /// reducer's input.
  static std::vector<std::string> shard_journals(const std::string& lease_dir);

  /// Default lease granularity: aims at ~4 ranges per advisory shard so
  /// late-joining or reclaiming shards still find work, without paying
  /// a claim per cell.
  static std::size_t auto_range_size(std::size_t cells,
                                     std::size_t advisory_shards);

 private:
  ShardConfig shard_;
  fuzz::CampaignConfig base_;
};

}  // namespace iris::campaign
