// Tests for the VM seed format: the paper's packed {flag, encoding,
// value} records, serialization round-trips, and the seed DB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "iris/seed.h"
#include "iris/seed_db.h"

namespace iris {
namespace {

VmSeed sample_seed() {
  VmSeed seed;
  seed.reason = vtx::ExitReason::kCrAccess;
  for (int i = 0; i < vcpu::kNumGprs; ++i) {
    seed.items.push_back(SeedItem{SeedItemKind::kGpr, static_cast<std::uint8_t>(i),
                                  0x1000ULL + static_cast<std::uint64_t>(i)});
  }
  const auto add_field = [&seed](vtx::VmcsField f, std::uint64_t v) {
    seed.items.push_back(
        SeedItem{SeedItemKind::kVmcsField, *vtx::compact_index(f), v});
  };
  add_field(vtx::VmcsField::kVmExitReason, 28);
  add_field(vtx::VmcsField::kExitQualification, 0x0);
  add_field(vtx::VmcsField::kGuestCr0, 0x31);
  add_field(vtx::VmcsField::kGuestRip, 0x7C00);
  return seed;
}

TEST(SeedItem, TenByteSerializedLayout) {
  // The paper's struct: flag (1B) + encoding (1B) + value (8B) = 10B.
  // (Plus the 4-byte seed header and the 2-byte count of the optional
  // §IX memory section, empty under the baseline configuration.)
  VmSeed seed;
  seed.items.push_back(SeedItem{SeedItemKind::kGpr, 0, 0xAABB});
  ByteWriter w;
  seed.serialize(w);
  EXPECT_EQ(w.size(), 4u + kSeedItemBytes + 2u);
}

TEST(VmSeed, WorstCaseMatchesPaperBudget) {
  // 15 GPRs + 32 VMCS ops = 47 items x 10 B = 470 B (paper §VI-D).
  VmSeed seed;
  for (int i = 0; i < vcpu::kNumGprs; ++i) {
    seed.items.push_back(SeedItem{SeedItemKind::kGpr, static_cast<std::uint8_t>(i), 0});
  }
  for (int i = 0; i < 32; ++i) {
    seed.items.push_back(SeedItem{SeedItemKind::kVmcsField,
                                  static_cast<std::uint8_t>(i), 0});
  }
  EXPECT_EQ(seed.items.size() * kSeedItemBytes, 470u);
}

TEST(VmSeed, SerializeDeserializeRoundTrip) {
  const VmSeed seed = sample_seed();
  ByteWriter w;
  seed.serialize(w);
  ByteReader r(w.data());
  const auto back = VmSeed::deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), seed);
}

// The two malformed one-item seeds below spell out their little-endian
// bytes. Written through a fresh ByteWriter, u8() (a push_back) followed
// by u64() trips a false -Wstringop-overflow in GCC 12 at -O3.
TEST(VmSeed, DeserializeRejectsBadFlag) {
  const std::vector<std::uint8_t> bytes = {
      28, 0,                    // reason
      1, 0,                     // one item
      7,                        // invalid flag
      0,                        // encoding
      0, 0, 0, 0, 0, 0, 0, 0};  // value
  ByteReader r(bytes);
  EXPECT_FALSE(VmSeed::deserialize(r).ok());
}

TEST(VmSeed, DeserializeRejectsBadGprEncoding) {
  const std::vector<std::uint8_t> bytes = {
      28, 0,                    // reason
      1, 0,                     // one item
      0,                        // GPR flag
      15,                       // only 0..14 valid
      0, 0, 0, 0, 0, 0, 0, 0};  // value
  ByteReader r(bytes);
  EXPECT_FALSE(VmSeed::deserialize(r).ok());
}

TEST(VmSeed, DeserializeRejectsUndefinedReason) {
  ByteWriter w;
  w.u16(35);  // SDM hole
  w.u16(0);
  ByteReader r(w.data());
  EXPECT_FALSE(VmSeed::deserialize(r).ok());
}

TEST(VmSeed, DeserializeRejectsTruncation) {
  const VmSeed seed = sample_seed();
  ByteWriter w;
  seed.serialize(w);
  auto bytes = w.data();
  ASSERT_GT(bytes.size(), 3u);
  // Clamped so GCC's range analysis can prove the new size never wraps
  // (-Werror=stringop-overflow under the sanitizer preset).
  bytes.resize(bytes.size() - std::min<std::size_t>(bytes.size(), 3));
  ByteReader r(bytes);
  EXPECT_FALSE(VmSeed::deserialize(r).ok());
}

TEST(VmSeed, FindFieldAndGpr) {
  const VmSeed seed = sample_seed();
  EXPECT_EQ(seed.find_field(vtx::VmcsField::kGuestCr0).value_or(0), 0x31u);
  EXPECT_FALSE(seed.find_field(vtx::VmcsField::kGuestCr4).has_value());
  EXPECT_EQ(seed.find_gpr(vcpu::Gpr::kRax).value_or(0), 0x1000u);
  EXPECT_EQ(seed.find_gpr(vcpu::Gpr::kR15).value_or(0), 0x100Eu);
}

TEST(VmSeed, CountsByKind) {
  const VmSeed seed = sample_seed();
  EXPECT_EQ(seed.gpr_count(), 15u);
  EXPECT_EQ(seed.vmcs_count(), 4u);
}

TEST(VmSeed, HashDetectsContentChange) {
  VmSeed a = sample_seed();
  VmSeed b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.items[3].value ^= 1;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(SeedMetrics, GuestStateWriteFilter) {
  SeedMetrics metrics;
  metrics.vmwrites = {
      {vtx::VmcsField::kGuestCr0, 0x31},            // guest state
      {vtx::VmcsField::kCr0ReadShadow, 0x1},        // control
      {vtx::VmcsField::kGuestRip, 0x7C02},          // guest state
      {vtx::VmcsField::kVmEntryIntrInfoField, 0x0}, // control
  };
  const auto gs = metrics.guest_state_writes();
  ASSERT_EQ(gs.size(), 2u);
  EXPECT_EQ(gs[0].first, vtx::VmcsField::kGuestCr0);
  EXPECT_EQ(gs[1].first, vtx::VmcsField::kGuestRip);
}

TEST(Behavior, SerializeRoundTripWithMetrics) {
  VmBehavior behavior;
  RecordedExit rec;
  rec.seed = sample_seed();
  rec.metrics.cycles = 12345;
  rec.metrics.vmwrites = {{vtx::VmcsField::kGuestRip, 0x7C02}};
  behavior.push_back(rec);
  behavior.push_back(rec);

  ByteWriter w;
  serialize_behavior(behavior, w);
  EXPECT_EQ(w.size(), behavior_byte_size(behavior));
  ByteReader r(w.data());
  const auto back = deserialize_behavior(r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_EQ(back.value()[0].seed, behavior[0].seed);
  EXPECT_EQ(back.value()[0].metrics.cycles, 12345u);
  ASSERT_EQ(back.value()[1].metrics.vmwrites.size(), 1u);
  EXPECT_EQ(back.value()[1].metrics.vmwrites[0].second, 0x7C02u);
}

TEST(SeedDb, StoreAndLookup) {
  SeedDb db;
  VmBehavior behavior;
  behavior.push_back(RecordedExit{sample_seed(), {}});
  db.store("OS_BOOT", behavior);
  EXPECT_EQ(db.size(), 1u);
  ASSERT_NE(db.behavior("OS_BOOT"), nullptr);
  EXPECT_EQ(db.behavior("OS_BOOT")->size(), 1u);
  EXPECT_EQ(db.behavior("missing"), nullptr);
}

TEST(SeedDb, SeedsWithReason) {
  SeedDb db;
  VmBehavior behavior;
  behavior.push_back(RecordedExit{sample_seed(), {}});  // CR access
  VmSeed rdtsc;
  rdtsc.reason = vtx::ExitReason::kRdtsc;
  behavior.push_back(RecordedExit{rdtsc, {}});
  behavior.push_back(RecordedExit{sample_seed(), {}});
  db.store("w", behavior);
  EXPECT_EQ(db.seeds_with_reason("w", vtx::ExitReason::kCrAccess),
            (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(db.seeds_with_reason("w", vtx::ExitReason::kRdtsc),
            (std::vector<std::size_t>{1}));
  EXPECT_TRUE(db.seeds_with_reason("w", vtx::ExitReason::kHlt).empty());
}

TEST(SeedDb, UniqueSeedCountDeduplicates) {
  SeedDb db;
  VmBehavior behavior;
  behavior.push_back(RecordedExit{sample_seed(), {}});
  behavior.push_back(RecordedExit{sample_seed(), {}});  // duplicate content
  db.store("w", behavior);
  EXPECT_EQ(db.unique_seed_count(), 1u);
}

TEST(SeedDb, SerializeRoundTrip) {
  SeedDb db;
  VmBehavior behavior;
  behavior.push_back(RecordedExit{sample_seed(), {}});
  db.store("CPU-bound", behavior);
  db.store("IDLE", behavior);

  const auto bytes = db.serialize();
  const auto back = SeedDb::deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 2u);
  EXPECT_NE(back.value().behavior("CPU-bound"), nullptr);
  EXPECT_EQ(back.value().behavior("CPU-bound")->at(0).seed, sample_seed());
}

TEST(SeedDb, RejectsBadMagic) {
  std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(SeedDb::deserialize(junk).ok());
}

TEST(SeedDb, FileRoundTrip) {
  SeedDb db;
  VmBehavior behavior;
  behavior.push_back(RecordedExit{sample_seed(), {}});
  db.store("w", behavior);
  const std::string path = ::testing::TempDir() + "/iris_seeds.bin";
  ASSERT_TRUE(db.save_file(path).ok());
  const auto back = SeedDb::load_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 1u);
  std::remove(path.c_str());
}

TEST(SeedDb, LoadFileOfADirectoryIsAnError) {
  // Loading used to read through istreambuf_iterator, whose underflow
  // throws on a directory and aborted the process.
  const std::string dir = ::testing::TempDir() + "/iris_seed_db_dir";
  std::filesystem::create_directories(dir);
  const auto back = SeedDb::load_file(dir);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, 41);
  EXPECT_EQ(back.error().sys_errno, EISDIR);
}

TEST(SeedDb, TotalSeedBytesAccounting) {
  SeedDb db;
  VmBehavior behavior;
  behavior.push_back(RecordedExit{sample_seed(), {}});
  db.store("w", behavior);
  EXPECT_EQ(db.total_seed_bytes(), sample_seed().byte_size());
}

}  // namespace
}  // namespace iris
