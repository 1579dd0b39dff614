#include "iris/seed.h"

#include <algorithm>

namespace iris {

std::optional<std::uint64_t> VmSeed::find_field(vtx::VmcsField field) const {
  const auto compact = vtx::compact_index(field);
  if (!compact) return std::nullopt;
  for (const auto& item : items) {
    if (item.kind == SeedItemKind::kVmcsField && item.encoding == *compact) {
      return item.value;
    }
  }
  return std::nullopt;
}

std::optional<std::uint64_t> VmSeed::find_gpr(vcpu::Gpr r) const {
  for (const auto& item : items) {
    if (item.kind == SeedItemKind::kGpr &&
        item.encoding == static_cast<std::uint8_t>(r)) {
      return item.value;
    }
  }
  return std::nullopt;
}

std::size_t VmSeed::gpr_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(items.begin(), items.end(),
                    [](const SeedItem& i) { return i.is_gpr(); }));
}

std::size_t VmSeed::vmcs_count() const noexcept { return items.size() - gpr_count(); }

void VmSeed::serialize(ByteWriter& out) const {
  // Bit 15 of the reason word flags a trailing capability-profile byte.
  // Exit reasons are 7-bit, so the flag is unambiguous, and baseline
  // seeds stay byte-identical to the pre-profile wire format.
  const bool profiled = profile != vtx::ProfileId::kBaseline;
  out.u16(static_cast<std::uint16_t>(reason) |
          static_cast<std::uint16_t>(profiled ? 0x8000 : 0));
  if (profiled) out.u8(static_cast<std::uint8_t>(profile));
  out.u16(static_cast<std::uint16_t>(items.size()));
  for (const auto& item : items) {
    out.u8(static_cast<std::uint8_t>(item.kind));
    out.u8(item.encoding);
    out.u64(item.value);
  }
  out.u16(static_cast<std::uint16_t>(memory.size()));
  for (const auto& chunk : memory) {
    out.u64(chunk.gpa);
    out.u32(static_cast<std::uint32_t>(chunk.bytes.size()));
    out.bytes(chunk.bytes);
  }
}

Result<VmSeed> VmSeed::deserialize(ByteReader& in) {
  VmSeed seed;
  auto reason = in.u16();
  if (!reason.ok()) return reason.error();
  if (reason.value() & 0x8000) {
    auto profile = in.u8();
    if (!profile.ok()) return Error{10, "truncated capability-profile id"};
    if (!vtx::is_valid_profile_id(profile.value()) ||
        profile.value() == static_cast<std::uint8_t>(vtx::ProfileId::kBaseline)) {
      // A flagged baseline byte never comes from our writer; treat it
      // as corruption so serialize(deserialize(x)) == x holds.
      return Error{10, "bad capability-profile id in seed"};
    }
    seed.profile = static_cast<vtx::ProfileId>(profile.value());
  }
  const std::uint16_t reason_raw = reason.value() & 0x7FFF;
  if (!vtx::is_defined_reason(reason_raw)) {
    return Error{1, "undefined exit reason in seed"};
  }
  seed.reason = static_cast<vtx::ExitReason>(reason_raw);
  auto count = in.u16();
  if (!count.ok()) return count.error();
  // Each item is exactly kSeedItemBytes on the wire; reject a count the
  // remaining bytes cannot satisfy before reserving for it, so corrupt
  // input cannot trigger an oversized allocation.
  if (count.value() * kSeedItemBytes > in.remaining()) {
    return Error{2, "truncated seed item"};
  }
  seed.items.reserve(count.value());
  for (std::uint16_t i = 0; i < count.value(); ++i) {
    auto kind = in.u8();
    auto encoding = in.u8();
    auto value = in.u64();
    if (!kind.ok() || !encoding.ok() || !value.ok()) {
      return Error{2, "truncated seed item"};
    }
    if (kind.value() > 1) return Error{3, "bad seed item flag"};
    const auto k = static_cast<SeedItemKind>(kind.value());
    if (k == SeedItemKind::kGpr && encoding.value() >= vcpu::kNumGprs) {
      return Error{4, "bad GPR encoding"};
    }
    if (k == SeedItemKind::kVmcsField &&
        !vtx::field_from_compact(encoding.value())) {
      return Error{5, "bad VMCS field encoding"};
    }
    seed.items.push_back(SeedItem{k, encoding.value(), value.value()});
  }
  auto nchunks = in.u16();
  if (!nchunks.ok()) return nchunks.error();
  // A chunk costs at least its gpa + length header (12 bytes).
  if (nchunks.value() * std::size_t{12} > in.remaining()) {
    return Error{8, "truncated memory chunk"};
  }
  seed.memory.reserve(nchunks.value());
  for (std::uint16_t c = 0; c < nchunks.value(); ++c) {
    auto gpa = in.u64();
    auto len = in.u32();
    if (!gpa.ok() || !len.ok()) return Error{8, "truncated memory chunk"};
    if (len.value() > in.remaining()) return Error{9, "memory chunk overruns"};
    MemChunk chunk;
    chunk.gpa = gpa.value();
    chunk.bytes.resize(len.value());
    for (auto& b : chunk.bytes) {
      auto byte = in.u8();
      if (!byte.ok()) return byte.error();
      b = byte.value();
    }
    seed.memory.push_back(std::move(chunk));
  }
  return seed;
}

std::uint64_t VmSeed::hash() const {
  ByteWriter w;
  serialize(w);
  return fnv1a(w.data());
}

std::vector<std::pair<vtx::VmcsField, std::uint64_t>> SeedMetrics::guest_state_writes()
    const {
  std::vector<std::pair<vtx::VmcsField, std::uint64_t>> out;
  for (const auto& [field, value] : vmwrites) {
    if (vtx::type_of(field) == vtx::FieldType::kGuestState) {
      out.emplace_back(field, value);
    }
  }
  return out;
}

void serialize_behavior(const VmBehavior& behavior, ByteWriter& out) {
  out.u32(static_cast<std::uint32_t>(behavior.size()));
  for (const auto& rec : behavior) {
    rec.seed.serialize(out);
    // Metrics: cycles + vmwrite pairs (coverage bitmaps are rebuilt on
    // replay, not persisted).
    out.u64(rec.metrics.cycles);
    out.u16(static_cast<std::uint16_t>(rec.metrics.vmwrites.size()));
    for (const auto& [field, value] : rec.metrics.vmwrites) {
      out.u16(static_cast<std::uint16_t>(field));
      out.u64(value);
    }
  }
}

std::size_t behavior_byte_size(const VmBehavior& behavior) noexcept {
  std::size_t size = 4;  // exit count
  for (const auto& rec : behavior) {
    // Seed, cycles (8), vmwrite count (2) and 10 bytes per vmwrite.
    size += rec.seed.byte_size() + 10 + 10 * rec.metrics.vmwrites.size();
  }
  return size;
}

Result<VmBehavior> deserialize_behavior(ByteReader& in) {
  auto count = in.u32();
  if (!count.ok()) return count.error();
  // A recorded exit costs at least 16 bytes (minimal seed + cycles +
  // vmwrite count). A hostile 32-bit count must not reach reserve():
  // that would be a multi-gigabyte allocation from a 20-byte input.
  if (count.value() > in.remaining() / 16) {
    return Error{6, "behavior count overruns stream"};
  }
  VmBehavior behavior;
  behavior.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto seed = VmSeed::deserialize(in);
    if (!seed.ok()) return seed.error();
    RecordedExit rec;
    rec.seed = std::move(seed).take();
    auto cycles = in.u64();
    if (!cycles.ok()) return cycles.error();
    rec.metrics.cycles = cycles.value();
    auto nwrites = in.u16();
    if (!nwrites.ok()) return nwrites.error();
    // Each pair is 10 bytes on the wire; a count the stream cannot hold
    // fails as the truncated read below would, before it is reserved.
    if (nwrites.value() * std::size_t{10} > in.remaining()) {
      return Error{6, "truncated metrics"};
    }
    rec.metrics.vmwrites.reserve(nwrites.value());
    for (std::uint16_t w = 0; w < nwrites.value(); ++w) {
      auto field = in.u16();
      auto value = in.u64();
      if (!field.ok() || !value.ok()) return Error{6, "truncated metrics"};
      if (!vtx::is_valid_field_encoding(field.value())) {
        return Error{7, "bad VMCS encoding in metrics"};
      }
      rec.metrics.vmwrites.emplace_back(static_cast<vtx::VmcsField>(field.value()),
                                        value.value());
    }
    behavior.push_back(std::move(rec));
  }
  return behavior;
}

}  // namespace iris
