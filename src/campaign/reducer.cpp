#include "campaign/reducer.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <utility>

#include "support/telemetry.h"

namespace iris::campaign {

JournalFold::JournalFold(const std::vector<fuzz::TestCaseSpec>& grid)
    : coverage(grid.size()),
      done(grid.size(), 0),
      quarantined(grid.size(), 0),
      reprobe_rounds(grid.size(), 0),
      poison_seen_(grid.size(), 0),
      first_source_(grid.size(), 0),
      first_epoch_(grid.size(), 0) {
  result.results.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) result.results[i].spec = grid[i];
}

Status JournalFold::apply(const CampaignCheckpoint& journal) {
  const std::size_t cells = done.size();
  const auto source = static_cast<std::uint32_t>(sources_.size());
  sources_.push_back(journal.path());
  Status error;
  const auto in_grid = [&](std::uint64_t index) {
    if (index < cells) return true;
    if (error.ok()) {
      error = Error{76, journal.path() + " journals cell " +
                            std::to_string(index) + " outside the " +
                            std::to_string(cells) + "-cell grid"};
    }
    return false;
  };

  for (const CheckpointCell& cell : journal.cells()) {
    if (!in_grid(cell.index)) continue;
    ++counts.cells_loaded;
    const std::size_t i = cell.index;
    if (done[i] != 0) {
      // A benign re-run (after a lease reclaim) has identical bytes;
      // diverging duplicates mean the determinism contract broke.
      ++counts.duplicate_cells;
      if (error.ok() &&
          checkpoint_cell_checksum(cell) !=
              checkpoint_cell_checksum(CheckpointCell{
                  i, first_epoch_[i], result.results[i], coverage[i]})) {
        error = Error{77, "cell " + std::to_string(i) +
                              " completed twice with different results: " +
                              sources_[first_source_[i]] + " vs " +
                              journal.path() +
                              " — determinism contract violated"};
      }
      continue;
    }
    done[i] = 1;
    first_source_[i] = source;
    first_epoch_[i] = cell.sync_epoch;
    result.results[i] = cell.result;
    coverage[i] = cell.coverage;
  }

  for (const PoisonRecord& poison : journal.poisons()) {
    if (!in_grid(poison.index)) continue;
    ++counts.poison_records;
    if (poison_seen_[poison.index] != 0) continue;  // first record wins
    poison_seen_[poison.index] = 1;
    quarantined[poison.index] = 1;
    result.poisoned_cells.push_back(fuzz::PoisonedCell{
        poison.index, poison.attempts,
        {static_cast<fuzz::HarnessFault::Kind>(poison.fault_kind),
         poison.detail, poison.message}});
  }

  for (const ReprobeRecord& rp : journal.reprobes()) {
    if (!in_grid(rp.index)) continue;
    ++counts.reprobe_records;
    ++reprobe_rounds[rp.index];
    if (rp.outcome == kReprobeRehabilitated) {
      ++counts.rehabilitated;
      continue;
    }
    for (auto& cell : result.poisoned_cells) {
      if (cell.index != rp.index) continue;
      cell.attempts = std::max(cell.attempts, rp.attempts_total);
      cell.fault = {static_cast<fuzz::HarnessFault::Kind>(rp.fault_kind),
                    rp.detail, rp.message};
    }
  }

  // A clean completion beats a quarantine: the cell demonstrably runs,
  // so a poison record describes some shard's environment, not the
  // cell. Count the override instead of carrying a lie.
  std::erase_if(result.poisoned_cells, [&](const fuzz::PoisonedCell& p) {
    if (done[p.index] == 0) return false;
    ++counts.overridden_poisons;
    quarantined[p.index] = 0;
    return true;
  });
  std::sort(result.poisoned_cells.begin(), result.poisoned_cells.end(),
            [](const fuzz::PoisonedCell& a, const fuzz::PoisonedCell& b) {
              return a.index < b.index;
            });
  return error;
}

Result<ReduceReport> reduce_journals(
    const std::vector<std::string>& journal_paths,
    const std::vector<fuzz::TestCaseSpec>& grid,
    const fuzz::CampaignConfig& config) {
  namespace fs = std::filesystem;
  const std::uint64_t fingerprint = campaign_fingerprint(grid, config);

  JournalFold fold(grid);
  /// First journal and serialization of each sync epoch index.
  std::map<std::uint32_t, std::pair<const std::string*, std::vector<std::uint8_t>>>
      epochs;

  for (const std::string& path : journal_paths) {
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      // A writable open would create a fresh journal here; a reduce
      // must never invent shards.
      return Error{74, "shard journal missing: " + path};
    }
    // Read-only: live shards may still be appending, and an observer
    // must neither truncate a half-flushed record out from under its
    // writer nor mutate anything else about the campaign.
    auto journal = CampaignCheckpoint::open_readonly(path, fingerprint);
    if (!journal.ok()) return journal.error();

    for (const SyncEpochRecord& epoch : journal.value().epochs()) {
      ByteWriter mine;
      serialize_sync_epoch(epoch, mine);
      const auto [seen, first] =
          epochs.try_emplace(epoch.epoch, &path, mine.data());
      if (!first && seen->second.second != mine.data()) {
        return Error{75, "sync epoch " + std::to_string(epoch.epoch) +
                             " differs between " + *seen->second.first +
                             " and " + path +
                             " — shards did not share one import set"};
      }
    }

    if (auto status = fold.apply(journal.value()); !status.ok()) {
      return status.error();
    }
  }

  ReduceReport report;
  static_cast<FoldCounts&>(report) = fold.counts;
  report.journals = journal_paths.size();
  report.result = std::move(fold.result);
  report.poisoned = report.result.poisoned_cells;
  // Missing = nobody journaled anything for the cell, not even a
  // quarantine: a poisoned cell is accounted for — honestly absent —
  // rather than silently awaited.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (fold.pending(i)) report.missing.push_back(i);
  }
  report.result.complete = report.missing.empty() && report.poisoned.empty();
  report.result.cells_completed = std::move(fold.done);
  report.result.workers_used = journal_paths.size();

  {
    auto& reg = support::metrics();
    reg.add(reg.counter_id("reduce.journals"), report.journals);
    reg.add(reg.counter_id("reduce.cells"), report.cells_loaded);
    reg.add(reg.counter_id("reduce.duplicates"), report.duplicate_cells);
  }

  fuzz::finalize_campaign_result(fold.coverage, report.result);
  return report;
}

}  // namespace iris::campaign
