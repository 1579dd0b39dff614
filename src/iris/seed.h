// The VM seed: IRIS's unit of record and replay (paper §IV, §V-A).
//
// A VM seed is everything the hypervisor consumed from one VM exit: the
// 15 guest GPRs it saved into its own structures, plus every VMCS
// {field, value} pair it VMREAD during handling. Serialized items are
// exactly the paper's packed struct — flag (1 byte), encoding (1 byte),
// value (8 bytes) — so a worst-case exit of 32 VMCS operations plus the
// GPR block costs 470 bytes (§VI-D).
//
// Seed metrics (coverage, VMWRITE pairs, cycle time) are recorded
// alongside but are not part of the replayable seed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hv/coverage.h"
#include "support/result.h"
#include "support/serialize.h"
#include "vcpu/regs.h"
#include "vtx/capability_profile.h"
#include "vtx/exit_reason.h"
#include "vtx/vmcs_fields.h"

namespace iris {

/// Flag byte of a serialized seed item (paper §V-A: "a flag (1 byte)
/// that indicates the kind of data").
enum class SeedItemKind : std::uint8_t {
  kGpr = 0,        ///< encoding = vcpu::Gpr (15 values)
  kVmcsField = 1,  ///< encoding = compact VMCS field index
};

/// One {flag, encoding, value} record. Exactly 10 bytes serialized.
struct SeedItem {
  SeedItemKind kind = SeedItemKind::kGpr;
  std::uint8_t encoding = 0;
  std::uint64_t value = 0;

  [[nodiscard]] bool is_gpr() const noexcept { return kind == SeedItemKind::kGpr; }
  [[nodiscard]] vcpu::Gpr gpr() const noexcept {
    return static_cast<vcpu::Gpr>(encoding);
  }
  [[nodiscard]] std::optional<vtx::VmcsField> field() const noexcept {
    return is_gpr() ? std::nullopt : vtx::field_from_compact(encoding);
  }

  friend bool operator==(const SeedItem&, const SeedItem&) = default;
};

/// Serialized size of one item (the paper's packed struct).
inline constexpr std::size_t kSeedItemBytes = 10;

/// A recorded guest-memory fragment the handler dereferenced (§IX
/// "Memory-related VM seeds effectiveness" extension — NOT part of the
/// baseline IRIS seed, which deliberately excludes guest memory).
struct MemChunk {
  std::uint64_t gpa = 0;
  std::vector<std::uint8_t> bytes;

  friend bool operator==(const MemChunk&, const MemChunk&) = default;
};

/// A full VM seed for one VM exit.
struct VmSeed {
  /// The basic exit reason qualifying this seed (stored so the replayer
  /// and fuzzer can target seeds by reason; also present among the VMCS
  /// items as the VM_EXIT_REASON read).
  vtx::ExitReason reason = vtx::ExitReason::kPreemptionTimer;
  /// Capability profile of the CPU the seed was recorded on —
  /// provenance for record-once/replay-everywhere campaigns. On the
  /// wire this rides in bit 15 of the reason word plus one trailing
  /// byte, but ONLY for non-baseline profiles: baseline seeds (and
  /// every pre-profile corpus file) keep the legacy byte layout, and
  /// old readers never see the flag bit.
  vtx::ProfileId profile = vtx::ProfileId::kBaseline;
  std::vector<SeedItem> items;
  /// Optional §IX extension: guest memory touched during handling.
  /// Empty under the paper's baseline configuration.
  std::vector<MemChunk> memory;

  /// First recorded value for `field`, if the handler read it.
  [[nodiscard]] std::optional<std::uint64_t> find_field(vtx::VmcsField field) const;

  /// Recorded value of a GPR (GPRs are always captured).
  [[nodiscard]] std::optional<std::uint64_t> find_gpr(vcpu::Gpr r) const;

  [[nodiscard]] std::size_t gpr_count() const noexcept;
  [[nodiscard]] std::size_t vmcs_count() const noexcept;

  /// Serialized size (§VI-D memory-overhead accounting).
  [[nodiscard]] std::size_t byte_size() const noexcept {
    std::size_t mem = 2;  // chunk count
    for (const auto& chunk : memory) mem += 12 + chunk.bytes.size();
    const std::size_t prof = profile == vtx::ProfileId::kBaseline ? 0 : 1;
    return 4 + prof + items.size() * kSeedItemBytes + mem;  // reason:2 count:2 + items
  }

  void serialize(ByteWriter& out) const;
  static Result<VmSeed> deserialize(ByteReader& in);

  /// Content hash for corpus deduplication.
  [[nodiscard]] std::uint64_t hash() const;

  friend bool operator==(const VmSeed&, const VmSeed&) = default;
};

/// Metrics recorded with a seed (paper §IV-A): accuracy and efficiency
/// evidence, not replay input.
struct SeedMetrics {
  hv::ExitCoverage coverage;
  std::vector<std::pair<vtx::VmcsField, std::uint64_t>> vmwrites;
  std::uint64_t cycles = 0;

  /// VMWRITEs restricted to the guest-state area (the Fig 8 fit metric).
  [[nodiscard]] std::vector<std::pair<vtx::VmcsField, std::uint64_t>>
  guest_state_writes() const;
};

/// One recorded VM exit: the seed plus its metrics.
struct RecordedExit {
  VmSeed seed;
  SeedMetrics metrics;
};

/// A VM behavior: the exit trace of a workload (paper §IV terminology).
using VmBehavior = std::vector<RecordedExit>;

/// Serialize / parse a whole behavior (corpus files).
void serialize_behavior(const VmBehavior& behavior, ByteWriter& out);
/// Exactly the number of bytes serialize_behavior writes.
[[nodiscard]] std::size_t behavior_byte_size(const VmBehavior& behavior) noexcept;
Result<VmBehavior> deserialize_behavior(ByteReader& in);

}  // namespace iris
