#include "campaign/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "support/failpoints.h"
#include "support/fs_atomic.h"
#include "support/retry.h"
#include "support/telemetry.h"

namespace iris::campaign {
namespace {

constexpr std::uint32_t kJournalMagic = 0x4952434B;  // "IRCK"
// Header versions 2-5 differ only in the record types their writers
// could emit: v2 typed cell and sync-epoch records, v3 added capability
// profiles to specs, v4 poison records, v5 re-probe records. Every record
// is self-describing (a type byte, and a spec wire that flags its own
// profile byte), so the reader accepts every record type whatever the
// header says, and every journal is written as v5. v1 journals (untyped
// payloads) are refused, not migrated: they are progress caches, not
// archives.
constexpr std::uint16_t kJournalVersionOldest = 2;
constexpr std::uint16_t kJournalVersion = 5;
constexpr std::size_t kHeaderBytes = 4 + 2 + 8;

constexpr std::uint8_t kRecordCell = 0;
constexpr std::uint8_t kRecordSyncEpoch = 1;
constexpr std::uint8_t kRecordPoison = 2;
constexpr std::uint8_t kRecordReprobe = 3;

/// Append retries: shared policy for every journal write. Transient
/// errnos (EINTR/ESTALE/EAGAIN/EBUSY) get a few jittered-backoff
/// retries; ENOSPC and friends fail fast so the runner can degrade to
/// in-memory completion instead of stalling the campaign in a hopeless
/// retry loop.
const support::RetryPolicy& journal_retry_policy() {
  static const support::RetryPolicy policy{};
  return policy;
}

void serialize_mutation(const fuzz::AppliedMutation& m, ByteWriter& out) {
  out.u64(m.item_index);
  out.u8(m.bit);
  out.u64(m.old_value);
  out.u64(m.new_value);
}

Result<fuzz::AppliedMutation> deserialize_mutation(ByteReader& in) {
  auto item_index = in.u64();
  auto bit = in.u8();
  auto old_value = in.u64();
  auto new_value = in.u64();
  if (!item_index.ok() || !bit.ok() || !old_value.ok() || !new_value.ok()) {
    return Error{40, "truncated mutation record"};
  }
  fuzz::AppliedMutation m;
  m.item_index = item_index.value();
  m.bit = bit.value();
  m.old_value = old_value.value();
  m.new_value = new_value.value();
  return m;
}

}  // namespace

void serialize_spec(const fuzz::TestCaseSpec& spec, ByteWriter& out) {
  // Bit 7 of the workload byte flags a trailing capability-profile
  // byte. Workload ids are tiny, so the flag is unambiguous — and a
  // baseline spec keeps the exact pre-profile byte layout, which is
  // what keeps legacy fingerprints and canonical result bytes
  // bit-identical.
  const bool profiled = spec.profile != vtx::ProfileId::kBaseline;
  out.u8(static_cast<std::uint8_t>(spec.workload) |
         static_cast<std::uint8_t>(profiled ? 0x80 : 0));
  out.u16(static_cast<std::uint16_t>(spec.reason));
  out.u8(static_cast<std::uint8_t>(spec.area));
  out.u64(spec.mutants);
  out.u64(spec.rng_seed);
  if (profiled) out.u8(static_cast<std::uint8_t>(spec.profile));
}

Result<fuzz::TestCaseSpec> deserialize_spec(ByteReader& in) {
  auto workload = in.u8();
  auto reason = in.u16();
  auto area = in.u8();
  auto mutants = in.u64();
  auto rng_seed = in.u64();
  if (!workload.ok() || !reason.ok() || !area.ok() || !mutants.ok() ||
      !rng_seed.ok()) {
    return Error{42, "truncated test-case spec"};
  }
  const bool profiled = (workload.value() & 0x80) != 0;
  const std::uint8_t workload_raw = workload.value() & 0x7F;
  if (workload_raw >= guest::kNumWorkloads) {
    return Error{43, "bad workload in spec"};
  }
  if (!vtx::is_defined_reason(reason.value())) {
    return Error{44, "bad exit reason in spec"};
  }
  if (area.value() > static_cast<std::uint8_t>(fuzz::MutationArea::kGpr)) {
    return Error{45, "bad mutation area in spec"};
  }
  fuzz::TestCaseSpec spec;
  spec.workload = static_cast<guest::Workload>(workload_raw);
  spec.reason = static_cast<vtx::ExitReason>(reason.value());
  spec.area = static_cast<fuzz::MutationArea>(area.value());
  spec.mutants = mutants.value();
  spec.rng_seed = rng_seed.value();
  if (profiled) {
    auto profile = in.u8();
    if (!profile.ok()) return Error{42, "truncated test-case spec"};
    if (!vtx::is_valid_profile_id(profile.value()) ||
        profile.value() == static_cast<std::uint8_t>(vtx::ProfileId::kBaseline)) {
      // Our writer never flags a baseline profile; a flagged one is
      // corruption (and accepting it would break round-trip identity).
      return Error{68, "bad capability profile in spec"};
    }
    spec.profile = static_cast<vtx::ProfileId>(profile.value());
  }
  return spec;
}

void serialize_crash_record(const fuzz::CrashRecord& crash, ByteWriter& out) {
  crash.mutant.serialize(out);
  serialize_mutation(crash.mutation, out);
  out.u8(static_cast<std::uint8_t>(crash.kind));
  out.str(crash.log_line);
  out.u64(crash.mutant_index);
}

Result<fuzz::CrashRecord> deserialize_crash_record(ByteReader& in) {
  auto mutant = VmSeed::deserialize(in);
  if (!mutant.ok()) return mutant.error();
  auto mutation = deserialize_mutation(in);
  if (!mutation.ok()) return mutation.error();
  auto kind = in.u8();
  auto log_line = in.str();
  auto mutant_index = in.u64();
  if (!kind.ok() || !log_line.ok() || !mutant_index.ok()) {
    return Error{46, "truncated crash record"};
  }
  if (kind.value() > static_cast<std::uint8_t>(hv::FailureKind::kHypervisorHang)) {
    return Error{47, "bad failure kind in crash record"};
  }
  fuzz::CrashRecord crash;
  crash.mutant = std::move(mutant).take();
  crash.mutation = mutation.value();
  // The triage paths index mutant.items by this — reject out-of-range
  // indices here so corrupt bytes cannot become an OOB access later.
  if (crash.mutation.item_index >= crash.mutant.items.size()) {
    return Error{48, "mutation index outside mutant items"};
  }
  crash.kind = static_cast<hv::FailureKind>(kind.value());
  crash.log_line = std::move(log_line).take();
  crash.mutant_index = mutant_index.value();
  return crash;
}

void serialize_cell_result(const fuzz::TestCaseResult& result, ByteWriter& out) {
  serialize_spec(result.spec, out);
  out.u8(result.ran ? 1 : 0);
  out.u64(result.target_index);
  out.u32(result.baseline_loc);
  out.u32(result.new_loc);
  out.u64(std::bit_cast<std::uint64_t>(result.coverage_increase_pct));
  out.u64(result.executed);
  out.u64(result.vm_crashes);
  out.u64(result.hv_crashes);
  out.u64(result.hangs);
  out.u64(result.entry_check_rejections);
  out.u32(static_cast<std::uint32_t>(result.crashes.size()));
  for (const auto& crash : result.crashes) serialize_crash_record(crash, out);
}

Result<fuzz::TestCaseResult> deserialize_cell_result(ByteReader& in) {
  auto spec = deserialize_spec(in);
  if (!spec.ok()) return spec.error();
  fuzz::TestCaseResult result;
  result.spec = spec.value();
  auto ran = in.u8();
  auto target_index = in.u64();
  auto baseline_loc = in.u32();
  auto new_loc = in.u32();
  auto pct = in.u64();
  auto executed = in.u64();
  auto vm_crashes = in.u64();
  auto hv_crashes = in.u64();
  auto hangs = in.u64();
  auto rejections = in.u64();
  auto crash_count = in.u32();
  if (!ran.ok() || !target_index.ok() || !baseline_loc.ok() || !new_loc.ok() ||
      !pct.ok() || !executed.ok() || !vm_crashes.ok() || !hv_crashes.ok() ||
      !hangs.ok() || !rejections.ok() || !crash_count.ok()) {
    return Error{49, "truncated cell result"};
  }
  if (ran.value() > 1) return Error{50, "bad ran flag in cell result"};
  // Each crash record costs at least its fixed fields; reject counts the
  // remaining bytes cannot possibly satisfy before reserving.
  if (crash_count.value() > in.remaining() / 16) {
    return Error{51, "crash count overruns cell result"};
  }
  result.ran = ran.value() != 0;
  result.target_index = target_index.value();
  result.baseline_loc = baseline_loc.value();
  result.new_loc = new_loc.value();
  result.coverage_increase_pct = std::bit_cast<double>(pct.value());
  result.executed = executed.value();
  result.vm_crashes = vm_crashes.value();
  result.hv_crashes = hv_crashes.value();
  result.hangs = hangs.value();
  result.entry_check_rejections = rejections.value();
  result.crashes.reserve(crash_count.value());
  for (std::uint32_t i = 0; i < crash_count.value(); ++i) {
    auto crash = deserialize_crash_record(in);
    if (!crash.ok()) return crash.error();
    result.crashes.push_back(std::move(crash).take());
  }
  return result;
}

std::vector<std::uint8_t> canonical_result_bytes(const fuzz::CampaignResult& result) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(result.results.size()));
  for (const auto& cell : result.results) serialize_cell_result(cell, w);

  std::vector<std::pair<hv::BlockKey, std::uint8_t>> merged(
      result.merged_coverage.begin(), result.merged_coverage.end());
  std::sort(merged.begin(), merged.end());
  w.u32(static_cast<std::uint32_t>(merged.size()));
  for (const auto& [block, loc] : merged) {
    w.u32(block);
    w.u8(loc);
  }
  w.u32(result.merged_loc);

  w.u32(static_cast<std::uint32_t>(result.unique_crashes.size()));
  for (const auto& bucket : result.unique_crashes) {
    w.u8(static_cast<std::uint8_t>(bucket.key.kind));
    w.u16(static_cast<std::uint16_t>(bucket.key.reason));
    w.u8(static_cast<std::uint8_t>(bucket.key.item_kind));
    w.u8(bucket.key.encoding);
    serialize_crash_record(bucket.first, w);
    w.u64(bucket.spec_index);
    w.u64(bucket.occurrences);
  }
  w.u64(result.total_crashes);

  w.u64(result.cells_ran);
  w.u64(result.executed);
  w.u64(result.vm_crashes);
  w.u64(result.hv_crashes);
  w.u64(result.hangs);
  return std::move(w).take();
}

std::uint64_t campaign_fingerprint(const std::vector<fuzz::TestCaseSpec>& grid,
                                   const fuzz::CampaignConfig& config) {
  ByteWriter w;
  w.u32(0x49524650);  // "IRFP"
  w.u32(static_cast<std::uint32_t>(grid.size()));
  for (const auto& spec : grid) serialize_spec(spec, w);
  w.u64(config.hv_seed);
  w.u64(std::bit_cast<std::uint64_t>(config.async_noise_prob));
  w.u64(config.record_exits);
  w.u64(config.record_seed);
  w.u64(config.fuzzer.max_archived_crashes);
  const Replayer::Config& replay = config.fuzzer.replay;
  w.u8(replay.use_preemption_timer ? 1 : 0);
  w.u8(replay.interpose_read_only ? 1 : 0);
  w.u8(replay.write_writable_fields ? 1 : 0);
  w.u64(replay.batch_size);
  w.u8(replay.replay_guest_memory ? 1 : 0);
  // Corpus-sync determinants. The import *set* is deliberately not
  // hashed — it is frozen into a journaled sync epoch instead, so one
  // checkpoint stays resumable while the shared store keeps growing.
  const bool sync_enabled =
      !config.corpus_dir.empty() || config.pinned_imports.has_value();
  w.u8(sync_enabled ? 1 : 0);
  w.u64(fuzz::kCorpusMaxImports);
  w.u64(fuzz::kImportMutants);
  return fnv1a(w.data());
}

void serialize_checkpoint_cell(const CheckpointCell& cell, ByteWriter& out) {
  out.u64(cell.index);
  out.u32(cell.sync_epoch);
  serialize_cell_result(cell.result, out);
  out.u32(static_cast<std::uint32_t>(cell.coverage.size()));
  for (const auto& [block, loc] : cell.coverage) {
    out.u32(block);
    out.u8(loc);
  }
}

Result<CheckpointCell> deserialize_checkpoint_cell(ByteReader& in) {
  auto index = in.u64();
  if (!index.ok()) return index.error();
  auto sync_epoch = in.u32();
  if (!sync_epoch.ok()) return sync_epoch.error();
  auto result = deserialize_cell_result(in);
  if (!result.ok()) return result.error();
  auto block_count = in.u32();
  if (!block_count.ok()) return block_count.error();
  if (block_count.value() > in.remaining() / 5) {
    return Error{52, "coverage count overruns checkpoint cell"};
  }
  CheckpointCell cell;
  cell.index = index.value();
  cell.sync_epoch = sync_epoch.value();
  cell.result = std::move(result).take();
  cell.coverage.reserve(block_count.value());
  for (std::uint32_t i = 0; i < block_count.value(); ++i) {
    auto block = in.u32();
    auto loc = in.u8();
    if (!block.ok() || !loc.ok()) return Error{53, "truncated coverage block"};
    if (block.value() >= hv::kBlockIndexSpace) {
      return Error{54, "coverage block key out of range"};
    }
    cell.coverage.emplace_back(block.value(), loc.value());
  }
  return cell;
}

std::uint64_t checkpoint_cell_checksum(const CheckpointCell& cell) {
  ByteWriter w;
  serialize_checkpoint_cell(cell, w);
  return fnv1a(w.data());
}

void serialize_sync_epoch(const SyncEpochRecord& record, ByteWriter& out) {
  out.u32(record.epoch);
  out.u32(static_cast<std::uint32_t>(record.imports.size()));
  for (const auto& seed : record.imports) seed.serialize(out);
}

Result<SyncEpochRecord> deserialize_sync_epoch(ByteReader& in) {
  auto epoch = in.u32();
  auto count = in.u32();
  if (!epoch.ok() || !count.ok()) return Error{62, "truncated sync epoch"};
  // A serialized seed costs at least its reason + two counts; reject
  // counts the remaining bytes cannot possibly satisfy before reserving.
  if (count.value() > in.remaining() / 6) {
    return Error{63, "import count overruns sync epoch"};
  }
  SyncEpochRecord record;
  record.epoch = epoch.value();
  record.imports.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto seed = VmSeed::deserialize(in);
    if (!seed.ok()) return seed.error();
    record.imports.push_back(std::move(seed).take());
  }
  return record;
}

void serialize_poison(const PoisonRecord& record, ByteWriter& out) {
  out.u64(record.index);
  out.u32(record.attempts);
  out.u8(record.fault_kind);
  out.u32(std::bit_cast<std::uint32_t>(record.detail));
  out.str(record.message);
}

Result<PoisonRecord> deserialize_poison(ByteReader& in) {
  auto index = in.u64();
  auto attempts = in.u32();
  auto fault_kind = in.u8();
  auto detail = in.u32();
  auto message = in.str();
  if (!index.ok() || !attempts.ok() || !fault_kind.ok() || !detail.ok() ||
      !message.ok()) {
    return Error{82, "truncated poison record"};
  }
  if (fault_kind.value() >
      static_cast<std::uint8_t>(fuzz::HarnessFault::Kind::kModelFault)) {
    return Error{83, "bad fault kind in poison record"};
  }
  PoisonRecord record;
  record.index = index.value();
  record.attempts = attempts.value();
  record.fault_kind = fault_kind.value();
  record.detail = std::bit_cast<std::int32_t>(detail.value());
  record.message = std::move(message).take();
  return record;
}

void serialize_reprobe(const ReprobeRecord& record, ByteWriter& out) {
  out.u64(record.index);
  out.u32(record.round);
  out.u8(record.outcome);
  out.u8(record.fault_kind);
  out.u32(std::bit_cast<std::uint32_t>(record.detail));
  out.u32(record.attempts_total);
  out.str(record.message);
}

Result<ReprobeRecord> deserialize_reprobe(ByteReader& in) {
  auto index = in.u64();
  auto round = in.u32();
  auto outcome = in.u8();
  auto fault_kind = in.u8();
  auto detail = in.u32();
  auto attempts_total = in.u32();
  auto message = in.str();
  if (!index.ok() || !round.ok() || !outcome.ok() || !fault_kind.ok() ||
      !detail.ok() || !attempts_total.ok() || !message.ok()) {
    return Error{86, "truncated reprobe record"};
  }
  if (outcome.value() > kReprobeRepoisoned ||
      fault_kind.value() >
          static_cast<std::uint8_t>(fuzz::HarnessFault::Kind::kModelFault)) {
    return Error{87, "bad outcome or fault kind in reprobe record"};
  }
  ReprobeRecord record;
  record.index = index.value();
  record.round = round.value();
  record.outcome = outcome.value();
  record.fault_kind = fault_kind.value();
  record.detail = std::bit_cast<std::int32_t>(detail.value());
  record.attempts_total = attempts_total.value();
  record.message = std::move(message).take();
  return record;
}

Result<CampaignCheckpoint> CampaignCheckpoint::open(const std::string& path,
                                                    std::uint64_t fingerprint) {
  return open_impl(path, fingerprint, /*read_only=*/false);
}

Result<CampaignCheckpoint> CampaignCheckpoint::open_readonly(
    const std::string& path, std::uint64_t fingerprint) {
  return open_impl(path, fingerprint, /*read_only=*/true);
}

Result<CampaignCheckpoint> CampaignCheckpoint::open_impl(
    const std::string& path, std::uint64_t fingerprint, bool read_only) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const bool exists = fs::exists(path, ec);
  const auto file_size = exists ? fs::file_size(path, ec) : 0;

  if (read_only && (!exists || file_size < kHeaderBytes)) {
    return Error{65, path + " is not an existing campaign checkpoint"};
  }

  // A nonempty file too small to hold our header is not something this
  // code ever leaves behind (the header is renamed into place whole);
  // treat it as foreign rather than truncating someone else's file.
  if (exists && file_size > 0 && file_size < kHeaderBytes) {
    return Error{57, path + " is not a campaign checkpoint"};
  }

  // Fresh journal (or an empty file an older build left): publish the
  // header whole and start empty.
  if (!exists || file_size < kHeaderBytes) {
    ByteWriter header;
    header.u32(kJournalMagic);
    header.u16(kJournalVersion);
    header.u64(fingerprint);
    const fs::path target(path);
    const auto write_header = [&]() -> Status {
      if (auto injected = support::failpoints::fs_error("checkpoint_open")) {
        return *injected;
      }
      return write_file_atomic(target.parent_path(),
                               target.filename().string(), header.data());
    };
    if (auto status = support::retry_io(journal_retry_policy(), write_header);
        !status.ok()) {
      return status.error();
    }
    return CampaignCheckpoint(path, {}, {}, {}, {});
  }

  if (auto injected = support::failpoints::fs_error("checkpoint_open")) {
    return *injected;
  }
  auto bytes = read_file_bytes(path);
  if (!bytes.ok()) return bytes.error();
  const auto& data = bytes.value();

  ByteReader r(data);
  auto magic = r.u32();
  auto version = r.u16();
  auto stored_fp = r.u64();
  if (!magic.ok() || magic.value() != kJournalMagic || !version.ok()) {
    return Error{57, path + " is not a campaign checkpoint"};
  }
  if (version.value() < kJournalVersionOldest ||
      version.value() > kJournalVersion) {
    return Error{64, path + " uses unsupported checkpoint version " +
                         std::to_string(version.value())};
  }
  if (!stored_fp.ok() || stored_fp.value() != fingerprint) {
    return Error{58, path + " belongs to a different campaign"};
  }

  // Replay intact records; stop at the first torn or corrupt one and
  // truncate it (and anything after it) away.
  std::vector<CheckpointCell> cells;
  std::vector<SyncEpochRecord> epochs;
  std::vector<PoisonRecord> poisons;
  std::vector<ReprobeRecord> reprobes;
  std::size_t offset = kHeaderBytes;
  while (offset + 12 <= data.size()) {
    ByteReader frame{std::span(data).subspan(offset, 12)};
    const std::uint32_t len = frame.u32().value();
    const std::uint64_t checksum = frame.u64().value();
    if (len > data.size() - offset - 12) break;
    const std::span<const std::uint8_t> payload =
        std::span(data).subspan(offset + 12, len);
    if (fnv1a(payload) != checksum) break;
    ByteReader pr(payload);
    auto type = pr.u8();
    if (!type.ok()) break;
    if (type.value() == kRecordCell) {
      auto cell = deserialize_checkpoint_cell(pr);
      if (!cell.ok() || !pr.exhausted()) break;
      cells.push_back(std::move(cell).take());
    } else if (type.value() == kRecordSyncEpoch) {
      auto epoch = deserialize_sync_epoch(pr);
      if (!epoch.ok() || !pr.exhausted()) break;
      epochs.push_back(std::move(epoch).take());
    } else if (type.value() == kRecordPoison) {
      auto poison = deserialize_poison(pr);
      if (!poison.ok() || !pr.exhausted()) break;
      poisons.push_back(std::move(poison).take());
    } else if (type.value() == kRecordReprobe) {
      auto record = deserialize_reprobe(pr);
      if (!record.ok() || !pr.exhausted()) break;
      reprobes.push_back(std::move(record).take());
    } else {
      break;  // unknown record type: treat as a corrupt tail
    }
    offset += 12 + len;
  }
  // An observer ignores the torn tail instead of truncating it: it may
  // be a record a live writer simply has not finished flushing.
  if (!read_only && offset < data.size()) {
    fs::resize_file(path, offset, ec);
    if (ec) return Error{59, "cannot truncate torn checkpoint tail: " + path};
  }
  return CampaignCheckpoint(path, std::move(cells), std::move(epochs),
                            std::move(poisons), std::move(reprobes));
}

Status CampaignCheckpoint::append_record(std::uint8_t type,
                                         const ByteWriter& payload) {
  ByteWriter record;
  record.u32(static_cast<std::uint32_t>(payload.size() + 1));
  ByteWriter typed;
  typed.u8(type);
  typed.bytes(payload.data());
  record.u64(fnv1a(typed.data()));
  record.bytes(typed.data());

  const auto write_once = [&]() -> Status {
    if (auto injected = support::failpoints::fs_error("checkpoint_append")) {
      return *injected;
    }
    errno = 0;
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    if (!out) return Error{60, "cannot append to checkpoint " + path_, errno};
    out.write(reinterpret_cast<const char*>(record.data().data()),
              static_cast<std::streamsize>(record.size()));
    out.flush();
    if (!out) return Error{61, "checkpoint append failed: " + path_, errno};
    return {};
  };
  auto& reg = support::metrics();
  static const support::MetricId appends = reg.counter_id("checkpoint.appends");
  static const support::MetricId append_errors =
      reg.counter_id("checkpoint.append_errors");
  static const support::MetricId append_us =
      reg.histogram_id("checkpoint.append_us");
  const auto append_started = std::chrono::steady_clock::now();
  const auto status = support::retry_io(journal_retry_policy(), write_once);
  reg.observe(append_us, std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - append_started)
                             .count());
  reg.add(status.ok() ? appends : append_errors);
  return status;
}

Status CampaignCheckpoint::append(const CheckpointCell& cell) {
  ByteWriter payload;
  serialize_checkpoint_cell(cell, payload);
  return append_record(kRecordCell, payload);
}

Status CampaignCheckpoint::append_epoch(const SyncEpochRecord& record) {
  ByteWriter payload;
  serialize_sync_epoch(record, payload);
  return append_record(kRecordSyncEpoch, payload);
}

Status CampaignCheckpoint::append_poison(const PoisonRecord& record) {
  ByteWriter payload;
  serialize_poison(record, payload);
  return append_record(kRecordPoison, payload);
}

Status CampaignCheckpoint::append_reprobe(const ReprobeRecord& record) {
  ByteWriter payload;
  serialize_reprobe(record, payload);
  return append_record(kRecordReprobe, payload);
}

}  // namespace iris::campaign
