// Resumable campaign checkpoints.
//
// A CampaignCheckpoint is an append-only journal of completed grid
// cells: each record carries one cell's TestCaseResult (including its
// archived crash records) plus the cell's hypervisor coverage blocks.
// Because every cell of a campaign is an independent pure function of
// (spec, config) — the PR 1 determinism contract — a killed
// CampaignRunner::run can reload the journal in a fresh process, skip
// the finished cells, and produce a CampaignResult byte-identical to an
// uninterrupted run at any worker count.
//
// Journal layout (little-endian, via support/serialize.h):
//   header:  magic "IRCK" (u32), version (u16), fingerprint (u64)
//   record*: payload_len (u32), fnv1a(payload) (u64), payload
//   payload: type (u8) + body — type 0 = completed cell, type 1 = sync
//            epoch (the frozen corpus-import set of a synced campaign),
//            type 2 = poisoned cell, type 3 = re-probe
// There is one format. Every journal is written with header version 5;
// journals with header versions 2-4 (written before poison and re-probe
// records existed) still open, and every record type is read whatever
// the header says. Which records a journal holds depends on how the
// campaign ran (sandboxed, re-probing), never on a mode declared at
// open. The fingerprint hashes the spec grid and every config field
// that feeds cell results, so a checkpoint can never be resumed against
// a different campaign. Records are checksummed individually: a process
// killed mid-append leaves a torn tail that open() detects, drops, and
// truncates — everything before it is kept.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/campaign.h"
#include "support/result.h"
#include "support/serialize.h"

namespace iris::campaign {

// --- Serializers for the campaign result types. Deserializers validate
// every enum/count so a corrupt journal yields an error, not a crash.

void serialize_spec(const fuzz::TestCaseSpec& spec, ByteWriter& out);
Result<fuzz::TestCaseSpec> deserialize_spec(ByteReader& in);

void serialize_crash_record(const fuzz::CrashRecord& crash, ByteWriter& out);
Result<fuzz::CrashRecord> deserialize_crash_record(ByteReader& in);

void serialize_cell_result(const fuzz::TestCaseResult& result, ByteWriter& out);
Result<fuzz::TestCaseResult> deserialize_cell_result(ByteReader& in);

/// Canonical byte image of a CampaignResult: per-cell results in grid
/// order, merged coverage sorted by block key, crash buckets in
/// first-occurrence order, and the aggregate counters. Wall-clock fields
/// (elapsed/throughput) and run-shape fields (workers_used, resumed cell
/// count) are deliberately excluded — they describe the run, not the
/// campaign — so equal bytes mean "same campaign outcome" across worker
/// counts and across kill/resume boundaries.
std::vector<std::uint8_t> canonical_result_bytes(const fuzz::CampaignResult& result);

/// Fingerprint of (grid, config): every input that determines cell
/// results. Worker count and persistence paths are excluded (they must
/// not affect results). Non-baseline spec profiles flow in through the
/// self-describing spec serialization, so a profile-matrix grid can
/// never collide with its baseline counterpart.
std::uint64_t campaign_fingerprint(const std::vector<fuzz::TestCaseSpec>& grid,
                                   const fuzz::CampaignConfig& config);

/// One journaled cell: its grid index, full result, and the coverage
/// blocks (key + LOC weight) its fresh hypervisor registered.
struct CheckpointCell {
  std::size_t index = 0;
  /// Sync epoch the cell's corpus imports came from (0 = sync off).
  std::uint32_t sync_epoch = 0;
  fuzz::TestCaseResult result;
  fuzz::CellCoverage coverage;
};

void serialize_checkpoint_cell(const CheckpointCell& cell, ByteWriter& out);
Result<CheckpointCell> deserialize_checkpoint_cell(ByteReader& in);

/// Checksum of a journaled cell, as used by the reducer's conflict
/// detection: two journals completing the same grid index must agree on
/// this value or the merge is a hard error.
std::uint64_t checkpoint_cell_checksum(const CheckpointCell& cell);

/// A frozen corpus-import set. Written once, before any synced cell, so
/// a resumed (or re-sharded) run replays exactly the same imports no
/// matter how the shared store has changed since. Self-contained: the
/// full seeds travel in the journal, not references into the store.
struct SyncEpochRecord {
  std::uint32_t epoch = 1;
  std::vector<VmSeed> imports;  ///< deterministic order (sorted entry names)
};

void serialize_sync_epoch(const SyncEpochRecord& record, ByteWriter& out);
Result<SyncEpochRecord> deserialize_sync_epoch(ByteReader& in);

/// A quarantined grid cell: the sandboxed harness died (signal, nonzero
/// exit, watchdog deadline, or a torn result frame) on every one of
/// `attempts` executions, so the cell has no result — and never will
/// from this journal. Poison records are journaled like completed cells
/// so resume skips the cell, grid leases retire its range instead of
/// reclaiming it forever, and reduce_journals reports it honestly.
struct PoisonRecord {
  std::uint64_t index = 0;
  std::uint32_t attempts = 0;
  std::uint8_t fault_kind = 0;  ///< fuzz::HarnessFault::Kind
  std::int32_t detail = 0;      ///< signal number / exit code
  std::string message;          ///< human-readable fault summary
};

void serialize_poison(const PoisonRecord& record, ByteWriter& out);
Result<PoisonRecord> deserialize_poison(ByteReader& in);

/// One end-of-run re-probe of a quarantined cell. A rehabilitated
/// re-probe is immediately followed by the cell's clean record, so
/// resume and reduce recover the result through the ordinary
/// clean-cell-wins path — this record only carries the *history*: how
/// often the cell was re-probed and what the last failure looked like.
/// A re-poisoned re-probe updates the quarantine's attempt count and
/// fault without appending a second poison record.
struct ReprobeRecord {
  std::uint64_t index = 0;
  std::uint32_t round = 1;        ///< 1-based re-probe round for this cell
  std::uint8_t outcome = 0;       ///< 0 = rehabilitated, 1 = re-poisoned
  std::uint8_t fault_kind = 0;    ///< failing fault (outcome 1); 0 otherwise
  std::int32_t detail = 0;
  std::uint32_t attempts_total = 0;  ///< cumulative attempts incl. this round
  std::string message;               ///< failing fault summary (outcome 1)
};

inline constexpr std::uint8_t kReprobeRehabilitated = 0;
inline constexpr std::uint8_t kReprobeRepoisoned = 1;

void serialize_reprobe(const ReprobeRecord& record, ByteWriter& out);
Result<ReprobeRecord> deserialize_reprobe(ByteReader& in);

class CampaignCheckpoint {
 public:
  /// Open (or create) the journal at `path` for the campaign identified
  /// by `fingerprint`. Loads every intact record; a torn or corrupt
  /// tail is truncated away so later appends extend a valid journal. A
  /// journal written by a different campaign is an error, and so is a
  /// header version outside 2-5.
  static Result<CampaignCheckpoint> open(const std::string& path,
                                         std::uint64_t fingerprint);

  /// Observer variant for journals another (live) process may still be
  /// appending to — e.g. the reducer probing shard journals mid-run.
  /// Identical validation, but nothing is created or written: a missing
  /// journal is an error, and a torn tail (possibly just a record the
  /// writer has not finished flushing) is ignored, never truncated.
  static Result<CampaignCheckpoint> open_readonly(const std::string& path,
                                                  std::uint64_t fingerprint);

  /// Cells recovered from the journal at open(), in journal order. Like
  /// the other record views below, appends do not extend it: it is what
  /// the journal held when this process opened it.
  [[nodiscard]] const std::vector<CheckpointCell>& cells() const noexcept {
    return cells_;
  }

  /// Sync epochs recovered from the journal at open(), in journal order
  /// (empty for non-synced campaigns).
  [[nodiscard]] const std::vector<SyncEpochRecord>& epochs() const noexcept {
    return epochs_;
  }

  /// Poison records recovered from the journal at open(), in journal
  /// order (only sandboxed campaigns write them).
  [[nodiscard]] const std::vector<PoisonRecord>& poisons() const noexcept {
    return poisons_;
  }

  /// Re-probe records recovered from the journal at open(), in journal
  /// order (only re-probing campaigns write them).
  [[nodiscard]] const std::vector<ReprobeRecord>& reprobes() const noexcept {
    return reprobes_;
  }

  /// Append one completed cell and flush it to disk. Transient-errno
  /// failures are retried under the shared campaign RetryPolicy before
  /// being reported.
  Status append(const CheckpointCell& cell);

  /// Append one sync epoch and flush it to disk.
  Status append_epoch(const SyncEpochRecord& record);

  /// Append one poisoned-cell record and flush it to disk.
  Status append_poison(const PoisonRecord& record);

  /// Append one re-probe record and flush it to disk.
  Status append_reprobe(const ReprobeRecord& record);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  CampaignCheckpoint(std::string path, std::vector<CheckpointCell> cells,
                     std::vector<SyncEpochRecord> epochs,
                     std::vector<PoisonRecord> poisons,
                     std::vector<ReprobeRecord> reprobes)
      : path_(std::move(path)),
        cells_(std::move(cells)),
        epochs_(std::move(epochs)),
        poisons_(std::move(poisons)),
        reprobes_(std::move(reprobes)) {}

  static Result<CampaignCheckpoint> open_impl(const std::string& path,
                                              std::uint64_t fingerprint,
                                              bool read_only);

  Status append_record(std::uint8_t type, const ByteWriter& payload);

  std::string path_;
  std::vector<CheckpointCell> cells_;
  std::vector<SyncEpochRecord> epochs_;
  std::vector<PoisonRecord> poisons_;
  std::vector<ReprobeRecord> reprobes_;
};

}  // namespace iris::campaign
