// Grid-lease protocol: multi-process sharding of one campaign grid.
//
// N independent processes split a grid by claiming disjoint *cell
// ranges* through lease files in a shared lease directory (normally the
// checkpoint directory). The protocol needs nothing but a shared
// filesystem with hard links: every create-once file below is written
// to a temp file and hard-linked into place whole (create_file_atomic,
// support/fs_atomic.h), so exactly one racing creator wins and no shard,
// killed or alive, can leave or observe a short file.
//
//   grid.meta      created once; pins (fingerprint, cell count, range
//                  size) so shards of different campaigns or
//                  disagreeing geometries cannot share a directory. A
//                  short grid.meta, which only an older build can
//                  leave, is reclaimed like a stale lease.
//   lease-<r>.lock claim on range r. Acquired by creating it, refreshed
//                  by mtime heartbeat while the shard works, adopted
//                  instantly when the stored shard id matches ours (a
//                  relaunched shard picks up its own leases without
//                  waiting), and reclaimed once stale: a stealer
//                  atomically renames the expired lease aside — exactly
//                  one racer's rename succeeds — then creates its own.
//   done-<r>       range r is fully journaled. Published by atomically
//                  renaming the lease into the marker (or, if the lease
//                  was stolen, by creating the marker), so a range is
//                  never both leased and done. Done ranges are final:
//                  they are skipped, never reclaimed.
//
// A killed shard therefore costs nothing but its unfinished ranges'
// TTL: every cell it completed is in its (append-only, torn-tail-safe)
// journal, and every cell it did not is re-claimable. Re-running a cell
// twice is harmless by the determinism contract — both executions
// journal byte-identical results, which campaign::reduce_journals
// deduplicates (and *verifies*: diverging duplicates are a hard error).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "support/result.h"

namespace iris::campaign {

struct GridLeaseConfig {
  /// Shared lease directory (created if missing).
  std::string dir;
  /// Unique shard identity. Part of lease file payloads and steal-temp
  /// names, so it must be filesystem-safe ([A-Za-z0-9._-]).
  std::string shard_id;
  /// Grid size; fixed per directory by grid.meta.
  std::size_t total_cells = 0;
  /// Cells per lease. Smaller ranges balance better, larger ranges
  /// amortize the (one-file-create) claim cost over more cells.
  std::size_t range_size = 1;
  /// A lease whose mtime is older than this is considered abandoned and
  /// may be reclaimed. Must comfortably exceed the slowest cell plus
  /// the heartbeat interval (ttl/4).
  double ttl_seconds = 30.0;
  /// Campaign identity (campaign::campaign_fingerprint); pinned in
  /// grid.meta so foreign campaigns cannot mix journals in one
  /// directory.
  std::uint64_t fingerprint = 0;
};

/// The geometry grid.meta pins for a lease directory. Read-only view
/// for tooling (the fleet monitor derives grid completion % from it by
/// counting done-<r> markers against range_count()).
struct GridMeta {
  std::uint64_t fingerprint = 0;
  std::uint64_t total_cells = 0;
  std::uint64_t range_size = 0;

  [[nodiscard]] std::size_t range_count() const noexcept {
    return range_size == 0
               ? 0
               : static_cast<std::size_t>((total_cells + range_size - 1) /
                                          range_size);
  }
};

/// Parse `lease_dir`/grid.meta; an absent or foreign file is an error
/// value, never a crash.
Result<GridMeta> read_grid_meta(const std::string& lease_dir);

struct GridLeaseStats {
  std::size_t claims = 0;        ///< ranges acquired fresh
  std::size_t adoptions = 0;     ///< own leases re-adopted after a restart
  std::size_t reclaims = 0;      ///< stale leases stolen from dead shards
  std::size_t denials = 0;       ///< claims lost to a live peer or done marker
  std::size_t completed_ranges = 0;  ///< done markers this shard published
  std::size_t heartbeats = 0;    ///< mtime refresh sweeps performed
  std::size_t lost_leases = 0;   ///< held leases found stolen/unwritable
};

/// One shard's view of the lease directory. Thread-safe: a
/// CampaignRunner calls it from every worker thread.
class GridLease final : public fuzz::CellGate {
 public:
  /// Validate / initialize the lease directory and build a gate for one
  /// shard. Fails with error 73 if a whole grid.meta pins a different
  /// fingerprint or geometry, and with the I/O error if the directory
  /// cannot be written or read.
  static Result<std::unique_ptr<GridLease>> open(const GridLeaseConfig& config);

  bool try_claim(std::size_t index) override;
  void completed(std::size_t index) override;
  /// Refresh held leases' mtimes — after verifying each lease file still
  /// names this shard. A lease found stolen (a peer reclaimed it after a
  /// stall) or unwritable is *dropped*: the shard stops claiming inside
  /// the range and counts a lost_leases stat, instead of silently
  /// keeping a peer's lease alive or working a range it no longer owns.
  void heartbeat() override;

  /// Graceful-shutdown handoff: remove every lease this shard still
  /// holds (after verifying ownership) so peers can claim the ranges
  /// immediately instead of waiting out the TTL. Returns the number of
  /// leases released. Done markers are untouched — they are final.
  std::size_t release_held();

  [[nodiscard]] GridLeaseStats stats() const;
  [[nodiscard]] const GridLeaseConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t range_count() const noexcept;
  [[nodiscard]] bool holds(std::size_t range) const;

  /// Lease / done-marker paths for a range (exposed for tests and
  /// tooling that ages or inspects the protocol's files).
  [[nodiscard]] std::string lease_path(std::size_t range) const;
  [[nodiscard]] std::string done_path(std::size_t range) const;

 private:
  explicit GridLease(GridLeaseConfig config);

  [[nodiscard]] std::size_t range_of(std::size_t index) const noexcept {
    return index / config_.range_size;
  }
  [[nodiscard]] std::size_t range_len(std::size_t range) const noexcept;

  // Both run under mutex_.
  bool acquire(std::size_t range);
  void publish_done(std::size_t range);

  GridLeaseConfig config_;
  mutable std::mutex mutex_;
  std::vector<std::uint8_t> held_;
  std::vector<std::uint32_t> completed_count_;
  std::vector<std::vector<std::uint8_t>> completed_mask_;
  std::chrono::steady_clock::time_point last_refresh_;
  GridLeaseStats stats_;
};

}  // namespace iris::campaign
