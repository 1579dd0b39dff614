// Journal reducer: merge M shard journals into one CampaignResult.
//
// Each shard of a distributed campaign appends the cells it executed to
// its own CampaignCheckpoint journal. reduce_journals folds any set of
// such journals back into a single CampaignResult that is byte-identical
// (campaign::canonical_result_bytes) to what one uninterrupted
// single-process CampaignRunner::run would have produced — provable
// because every cell is a pure function of (spec, config) and the merge
// phase is literally the same code (fuzz::finalize_campaign_result).
//
// Invariants enforced while reducing:
//   - every journal must carry this campaign's fingerprint;
//   - a cell index journaled by two shards must have identical record
//     checksums (a benign re-run after a lease reclaim). Diverging
//     duplicates mean the determinism contract was broken — that is a
//     hard error naming both journals, never a silent pick-one;
//   - sync epochs journaled by different shards must agree, since the
//     epoch feeds every synced cell's result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "fuzz/campaign.h"
#include "support/result.h"

namespace iris::campaign {

struct ReduceReport {
  fuzz::CampaignResult result;
  std::size_t journals = 0;
  std::size_t cells_loaded = 0;      ///< intact cell records read
  std::size_t duplicate_cells = 0;   ///< identical re-runs deduplicated
  std::vector<std::size_t> missing;  ///< grid indices no journal covers
  /// Cells some shard quarantined and no shard completed (grid order,
  /// deduplicated; also mirrored into result.poisoned_cells). A clean
  /// result for the same index always wins — the cell plainly *can*
  /// run — and such overridden quarantines are only counted.
  std::vector<fuzz::PoisonedCell> poisoned;
  std::size_t poison_records = 0;      ///< poison records read, pre-dedup
  std::size_t overridden_poisons = 0;  ///< quarantines beaten by a clean cell
  std::size_t reprobe_records = 0;     ///< re-probe rounds journaled
  std::size_t rehabilitated = 0;       ///< re-probes whose outcome was clean
};

/// Merge the shard journals at `journal_paths` for the campaign
/// identified by (grid, config). Missing cells leave
/// result.complete == false (with their indices reported), so a reduce
/// over a still-running or partially-dead campaign is a valid progress
/// probe; conflicts and foreign journals are errors.
Result<ReduceReport> reduce_journals(
    const std::vector<std::string>& journal_paths,
    const std::vector<fuzz::TestCaseSpec>& grid,
    const fuzz::CampaignConfig& config);

}  // namespace iris::campaign
