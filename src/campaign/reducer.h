// Journal fold and reducer: read checkpoint journals back into one
// CampaignResult.
//
// A journal holds three kinds of per-cell record: a completed cell, a
// quarantine (poison) and a re-probe round. Resume (CampaignRunner::run
// reloading its own journal) and reduce_journals (merging shard
// journals) both fold them through JournalFold, so what a set of
// journals says about a cell has one definition:
//   - the first clean record of a cell wins; later ones are duplicates;
//   - a clean record beats a quarantine, whichever journal holds which;
//   - a cell's first poison record quarantines it, and each re-poisoned
//     re-probe round updates the quarantine's attempt count and fault
//     (a rehabilitated round needs nothing: the clean record that
//     follows it beats the quarantine);
//   - re-probe rounds are counted per cell, so a later run numbers its
//     next round after the journal's history.
// Sync epochs are not per-cell records; each reader handles them.
//
// Each shard of a distributed campaign appends the cells it executed to
// its own CampaignCheckpoint journal. reduce_journals folds any set of
// such journals back into a single CampaignResult that is byte-identical
// (campaign::canonical_result_bytes) to what one uninterrupted
// single-process CampaignRunner::run would have produced — provable
// because every cell is a pure function of (spec, config), each journal
// is read through the same fold resume uses, and the merge phase is
// literally the same code (fuzz::finalize_campaign_result).
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

/// Record counts of a fold (reduce_journals reports them).
struct FoldCounts {
  std::size_t cells_loaded = 0;        ///< in-grid cell records read
  std::size_t duplicate_cells = 0;     ///< re-runs of a folded cell dropped
  std::size_t poison_records = 0;      ///< poison records read, pre-dedup
  std::size_t overridden_poisons = 0;  ///< quarantines beaten by a clean cell
  std::size_t reprobe_records = 0;     ///< re-probe rounds journaled
  std::size_t rehabilitated = 0;       ///< re-probes whose outcome was clean
};

/// The one reading of a journal's per-cell records (see the file comment).
class JournalFold {
 public:
  /// An empty fold over `grid`: every result is a never-ran placeholder
  /// that carries its cell's spec, so partial reports can label it.
  explicit JournalFold(const std::vector<fuzz::TestCaseSpec>& grid);

  /// Fold one journal's cell, poison and re-probe records, in that order.
  /// A record naming a cell outside the grid (error 76) and a duplicate
  /// clean record whose bytes differ from the first one (error 77) are
  /// skipped; the first such record is returned as the error, after
  /// every other record has been folded.
  Status apply(const CampaignCheckpoint& journal);

  /// Cell `i` has neither a clean record nor a standing quarantine: a run
  /// over this fold would execute it, and a reduce reports it missing.
  [[nodiscard]] bool pending(std::size_t i) const {
    return done[i] == 0 && quarantined[i] == 0;
  }

  /// Folded state. When done[i], result.results[i] and coverage[i] hold
  /// cell i's first clean record. result.poisoned_cells lists the
  /// quarantines no clean record beat, sorted by index, and
  /// quarantined[i] flags them.
  fuzz::CampaignResult result;
  std::vector<fuzz::CellCoverage> coverage;
  std::vector<std::uint8_t> done;
  std::vector<std::uint8_t> quarantined;
  std::vector<std::uint32_t> reprobe_rounds;  ///< journaled rounds per cell
  FoldCounts counts;

 private:
  std::vector<std::uint8_t> poison_seen_;
  /// Journals applied so far, for error messages.
  std::vector<std::string> sources_;
  /// Per done cell: its first record's journal (index into sources_) and
  /// sync epoch, enough to rebuild that record when a duplicate arrives.
  std::vector<std::uint32_t> first_source_;
  std::vector<std::uint32_t> first_epoch_;
};

/// The merged campaign plus the journal fold's record counts.
struct ReduceReport : FoldCounts {
  fuzz::CampaignResult result;
  std::size_t journals = 0;
  std::vector<std::size_t> missing;  ///< grid indices no journal covers
  /// Cells some shard quarantined and no shard completed (grid order,
  /// deduplicated; also mirrored into result.poisoned_cells). A clean
  /// result for the same index always wins — the cell plainly *can*
  /// run — and such overridden quarantines are only counted.
  std::vector<fuzz::PoisonedCell> poisoned;
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
