#include "campaign/reducer.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "support/telemetry.h"

namespace iris::campaign {

Result<ReduceReport> reduce_journals(
    const std::vector<std::string>& journal_paths,
    const std::vector<fuzz::TestCaseSpec>& grid,
    const fuzz::CampaignConfig& config) {
  namespace fs = std::filesystem;
  const std::uint64_t fingerprint = campaign_fingerprint(grid, config);

  ReduceReport report;
  report.journals = journal_paths.size();
  report.result.results.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    report.result.results[i].spec = grid[i];
  }
  std::vector<std::vector<std::pair<hv::BlockKey, std::uint8_t>>> cell_cov(
      grid.size());
  std::vector<std::uint8_t> covered(grid.size(), 0);
  std::vector<std::uint8_t> poisoned_at(grid.size(), 0);
  /// First journal to complete each cell, with its record checksum —
  /// the conflict-detection ledger.
  std::vector<std::pair<const std::string*, std::uint64_t>> first_seen(
      grid.size(), {nullptr, 0});
  /// First journaled serialization of each sync epoch index.
  std::vector<std::pair<const std::string*, SyncEpochRecord>> epochs;

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
      bool known = false;
      for (const auto& [owner, seen] : epochs) {
        if (seen.epoch != epoch.epoch) continue;
        known = true;
        ByteWriter theirs;
        serialize_sync_epoch(seen, theirs);
        if (mine.data() != theirs.data()) {
          return Error{75, "sync epoch " + std::to_string(epoch.epoch) +
                               " differs between " + *owner + " and " + path +
                               " — shards did not share one import set"};
        }
      }
      if (!known) epochs.emplace_back(&path, epoch);
    }

    for (const CheckpointCell& cell : journal.value().cells()) {
      if (cell.index >= grid.size()) {
        return Error{76, path + " journals cell " +
                             std::to_string(cell.index) +
                             " outside the " + std::to_string(grid.size()) +
                             "-cell grid"};
      }
      ++report.cells_loaded;
      const std::uint64_t checksum = checkpoint_cell_checksum(cell);
      if (covered[cell.index] != 0) {
        if (first_seen[cell.index].second != checksum) {
          return Error{77, "cell " + std::to_string(cell.index) +
                               " completed twice with different results: " +
                               *first_seen[cell.index].first + " vs " + path +
                               " — determinism contract violated"};
        }
        ++report.duplicate_cells;
        continue;
      }
      covered[cell.index] = 1;
      first_seen[cell.index] = {&path, checksum};
      report.result.results[cell.index] = cell.result;
      cell_cov[cell.index] = cell.coverage;
    }

    for (const PoisonRecord& poison : journal.value().poisons()) {
      if (poison.index >= grid.size()) {
        return Error{76, path + " journals cell " +
                             std::to_string(poison.index) +
                             " outside the " + std::to_string(grid.size()) +
                             "-cell grid"};
      }
      ++report.poison_records;
      if (poisoned_at[poison.index] != 0) continue;  // dedup across shards
      poisoned_at[poison.index] = 1;
      fuzz::HarnessFault fault;
      fault.kind = static_cast<fuzz::HarnessFault::Kind>(poison.fault_kind);
      fault.detail = poison.detail;
      fault.message = poison.message;
      report.poisoned.push_back(
          fuzz::PoisonedCell{poison.index, poison.attempts, fault});
    }

    // Re-probe history. A rehabilitated round is followed by the cell's
    // clean record, which the clean-beats-poison pass below already
    // honors; a re-poisoned round updates the surviving quarantine's
    // attempt count and fault in place.
    for (const ReprobeRecord& rp : journal.value().reprobes()) {
      if (rp.index >= grid.size()) {
        return Error{76, path + " journals cell " + std::to_string(rp.index) +
                             " outside the " + std::to_string(grid.size()) +
                             "-cell grid"};
      }
      ++report.reprobe_records;
      if (rp.outcome == kReprobeRehabilitated) {
        ++report.rehabilitated;
        continue;
      }
      for (auto& cell : report.poisoned) {
        if (cell.index != rp.index) continue;
        cell.attempts = std::max(cell.attempts, rp.attempts_total);
        cell.fault.kind = static_cast<fuzz::HarnessFault::Kind>(rp.fault_kind);
        cell.fault.detail = rp.detail;
        cell.fault.message = rp.message;
      }
    }
  }

  // A clean completion beats a quarantine: the cell demonstrably runs,
  // so another shard's poison record describes that shard's environment,
  // not the cell. Count the override instead of carrying a lie.
  std::erase_if(report.poisoned, [&](const fuzz::PoisonedCell& p) {
    if (covered[p.index] == 0) return false;
    ++report.overridden_poisons;
    return true;
  });
  std::sort(report.poisoned.begin(), report.poisoned.end(),
            [](const fuzz::PoisonedCell& a, const fuzz::PoisonedCell& b) {
              return a.index < b.index;
            });
  report.result.poisoned_cells = report.poisoned;

  // Missing = nobody journaled anything for the cell, not even a
  // quarantine: a poisoned cell is accounted for — honestly absent —
  // rather than silently awaited.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (covered[i] == 0 && poisoned_at[i] == 0) report.missing.push_back(i);
  }
  report.result.complete = report.missing.empty() && report.poisoned.empty();
  report.result.cells_completed.assign(covered.begin(), covered.end());
  report.result.workers_used = journal_paths.size();

  {
    auto& reg = support::metrics();
    reg.add(reg.counter_id("reduce.journals"), report.journals);
    reg.add(reg.counter_id("reduce.cells"), report.cells_loaded);
    reg.add(reg.counter_id("reduce.duplicates"), report.duplicate_cells);
  }

  fuzz::finalize_campaign_result(cell_cov, report.result);
  return report;
}

}  // namespace iris::campaign
