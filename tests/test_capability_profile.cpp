// VMX capability-profile matrix tests.
//
// Covers the BitDefs mask algebra, the library profiles, per-profile
// allowed-0/allowed-1 control rejection at VM entry, reset≡fresh for
// pooled stacks under every profile, the baseline byte-identity
// guarantee (the refactor must not move a single baseline output bit),
// profile-grid divergence, and checkpoint resume and 2-shard reduce of a
// profile-matrix campaign.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/reducer.h"
#include "fuzz/campaign.h"
#include "fuzz/vm_pool.h"
#include "iris/manager.h"
#include "vtx/capability_profile.h"
#include "vtx/entry_checks.h"
#include "vtx/vmcs.h"
#include "vtx/vmx.h"

namespace iris {
namespace {

namespace fs = std::filesystem;
using fuzz::CampaignConfig;
using fuzz::CampaignRunner;
using fuzz::TestCaseSpec;
using vtx::BitDefs;
using vtx::ProfileId;
using vtx::VmxCapabilityProfile;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("iris-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- BitDefs algebra -------------------------------------------------

TEST(BitDefs, ApplyClampsBothDirections) {
  const BitDefs defs{0x5, 0xFF};
  EXPECT_EQ(defs.apply(0x0), 0x5u);      // must-one bits forced on
  EXPECT_EQ(defs.apply(0x100), 0x5u);    // unsupported bit stripped
  EXPECT_EQ(defs.apply(0xA2), 0xA7u);    // both at once
  EXPECT_TRUE(defs.allows(defs.apply(0xFFFF'FFFF'FFFF'FFFFULL)));
}

TEST(BitDefs, ViolationMasksNameTheBits) {
  const BitDefs defs{0b0110, 0b1111'0110};
  EXPECT_EQ(defs.missing_ones(0b0010), 0b0100u);
  EXPECT_EQ(defs.missing_ones(0b0110), 0u);
  EXPECT_EQ(defs.forbidden_ones(0b1'0000'0110), 0b1'0000'0000u);
  EXPECT_FALSE(defs.allows(0b0010));
  EXPECT_FALSE(defs.allows(0b1'0000'0110));
  EXPECT_TRUE(defs.allows(0b0110));
}

TEST(BitDefs, FromMsrSplitsAllowedPairs) {
  // IA32_VMX_*_CTLS layout: low 32 = allowed-0 (must-be-one), high 32 =
  // allowed-1 (may-be-one).
  const BitDefs defs = BitDefs::from_msr(0x0000'00FF'0000'0016ULL);
  EXPECT_EQ(defs.must_one, 0x16u);
  EXPECT_EQ(defs.may_one, 0xFFu);
}

// --- Library ---------------------------------------------------------

TEST(ProfileLibrary, IdsNamesAndLookupsAgree) {
  const auto library = vtx::profile_library();
  ASSERT_EQ(library.size(), static_cast<std::size_t>(ProfileId::kCount));
  for (std::size_t i = 0; i < library.size(); ++i) {
    const auto& profile = library[i];
    EXPECT_EQ(static_cast<std::size_t>(profile.id), i);
    EXPECT_FALSE(profile.name.empty());
    EXPECT_EQ(vtx::to_string(profile.id), profile.name);
    const auto round = vtx::profile_id_from_string(profile.name);
    ASSERT_TRUE(round.has_value()) << profile.name;
    EXPECT_EQ(*round, profile.id);
    EXPECT_EQ(&vtx::profile_by_id(profile.id), &profile);
  }
  EXPECT_FALSE(vtx::profile_id_from_string("no-such-profile").has_value());
  EXPECT_FALSE(vtx::is_valid_profile_id(
      static_cast<std::uint8_t>(ProfileId::kCount)));
}

TEST(ProfileLibrary, BaselineMatchesPreProfileConstants) {
  const auto& baseline = vtx::baseline_profile();
  EXPECT_TRUE(baseline.is_baseline());
  // Controls are fully permissive in the 32-bit control space: recorded
  // seeds carry arbitrary control words that must keep entering.
  for (const BitDefs* defs :
       {&baseline.pin_based, &baseline.proc_based, &baseline.proc_based2,
        &baseline.vm_exit, &baseline.vm_entry}) {
    EXPECT_EQ(defs->must_one, 0u);
    EXPECT_EQ(defs->apply(0xDEAD'BEEFULL), 0xDEAD'BEEFULL);
  }
  // CR0: the legacy "NE fixed to 1" rule, nothing else.
  EXPECT_EQ(baseline.apply_cr0(0), vtx::kCr0Ne);
  EXPECT_EQ(baseline.cr0_fixed.missing_ones(vtx::kCr0Pe), vtx::kCr0Ne);
  // CR4: the legacy reserved mask (bits 23+ and bit 11 forbidden).
  EXPECT_NE(baseline.cr4_fixed.forbidden_ones(1ULL << 11), 0u);
  EXPECT_NE(baseline.cr4_fixed.forbidden_ones(1ULL << 23), 0u);
  EXPECT_EQ(baseline.cr4_fixed.forbidden_ones(vtx::kCr4Pae), 0u);
}

// --- Per-profile VM-entry rejection ----------------------------------

struct ControlField {
  const char* label;
  const BitDefs VmxCapabilityProfile::* defs;
  vtx::VmcsField field;
};

constexpr ControlField kControlFields[] = {
    {"pin-based controls", &VmxCapabilityProfile::pin_based,
     vtx::VmcsField::kPinBasedVmExecControl},
    {"primary processor-based controls", &VmxCapabilityProfile::proc_based,
     vtx::VmcsField::kCpuBasedVmExecControl},
    {"secondary processor-based controls", &VmxCapabilityProfile::proc_based2,
     vtx::VmcsField::kSecondaryVmExecControl},
    {"VM-exit controls", &VmxCapabilityProfile::vm_exit,
     vtx::VmcsField::kVmExitControls},
    {"VM-entry controls", &VmxCapabilityProfile::vm_entry,
     vtx::VmcsField::kVmEntryControls},
};

/// Guest state that passes every modeled SDM 26.3 check, with all five
/// control words clamped into `profile`'s supported range. The primary
/// controls always activate the secondary word so its checks apply.
vtx::Vmcs valid_vmcs_for(const VmxCapabilityProfile& profile) {
  vtx::Vmcs vmcs;
  vmcs.hw_write(vtx::VmcsField::kGuestCr0,
                profile.apply_cr0(vtx::kCr0Pe | vtx::kCr0Et));
  vmcs.hw_write(vtx::VmcsField::kGuestCr4, profile.apply_cr4(0));
  vmcs.hw_write(vtx::VmcsField::kGuestRflags, 0x2);
  vmcs.hw_write(vtx::VmcsField::kVmcsLinkPointer, ~0ULL);
  vmcs.hw_write(vtx::VmcsField::kGuestCsArBytes, 0x9B);
  vmcs.hw_write(vtx::VmcsField::kGuestTrArBytes, 0x8B);
  vmcs.hw_write(vtx::VmcsField::kGuestSsArBytes, 0x93);
  vmcs.hw_write(vtx::VmcsField::kGuestActivityState, vtx::kActivityActive);
  for (const auto& control : kControlFields) {
    std::uint64_t value = (profile.*control.defs).apply(0);
    if (control.field == vtx::VmcsField::kCpuBasedVmExecControl) {
      value = (profile.*control.defs).apply(value | vtx::kCpuSecondaryControls);
      value |= vtx::kCpuSecondaryControls;  // activate the secondary word
    }
    vmcs.hw_write(control.field, value);
  }
  return vmcs;
}

bool has_rule(const std::vector<vtx::EntryCheckViolation>& violations,
              std::string_view needle) {
  for (const auto& v : violations) {
    if (v.rule.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::uint64_t lowest_bit(std::uint64_t mask) { return mask & (~mask + 1); }

TEST(ProfileEntryChecks, CleanStatePassesEveryProfile) {
  for (const auto& profile : vtx::profile_library()) {
    const auto vmcs = valid_vmcs_for(profile);
    EXPECT_TRUE(vtx::check_control_fields(vmcs, profile).empty())
        << profile.name;
    EXPECT_TRUE(vtx::check_guest_state(vmcs, profile).empty()) << profile.name;
  }
}

TEST(ProfileEntryChecks, AllowedZeroViolationRejectedPerProfile) {
  // Clearing a must-be-one bit of any control word must be rejected with
  // the allowed-0 rule. Profiles without control must-one bits (the
  // baseline) exercise the equivalent CR0 fixed-1 rule instead.
  for (const auto& profile : vtx::profile_library()) {
    bool exercised = false;
    for (const auto& control : kControlFields) {
      const BitDefs& defs = profile.*control.defs;
      if (defs.must_one == 0) continue;
      auto vmcs = valid_vmcs_for(profile);
      const std::uint64_t clean = vmcs.hw_read(control.field);
      vmcs.hw_write(control.field, clean & ~lowest_bit(defs.must_one));
      const auto violations = vtx::check_control_fields(vmcs, profile);
      EXPECT_TRUE(has_rule(violations, std::string(control.label) +
                                           " allowed-0 violation"))
          << profile.name << ": " << control.label;
      exercised = true;
    }
    if (!exercised) {
      auto vmcs = valid_vmcs_for(profile);
      const std::uint64_t cr0 = vmcs.hw_read(vtx::VmcsField::kGuestCr0);
      vmcs.hw_write(vtx::VmcsField::kGuestCr0,
                    cr0 & ~lowest_bit(profile.cr0_fixed.must_one));
      EXPECT_TRUE(has_rule(vtx::check_guest_state(vmcs, profile), "fixed"))
          << profile.name;
    }
  }
}

TEST(ProfileEntryChecks, AllowedOneViolationRejectedPerProfile) {
  // Setting a must-be-zero control bit must be rejected with the
  // allowed-1 rule; fully permissive profiles exercise the CR4
  // must-be-zero (reserved) rule instead.
  for (const auto& profile : vtx::profile_library()) {
    bool exercised = false;
    for (const auto& control : kControlFields) {
      const BitDefs& defs = profile.*control.defs;
      const std::uint64_t forbidden = ~defs.may_one & 0xFFFF'FFFFULL;
      if (forbidden == 0) continue;
      auto vmcs = valid_vmcs_for(profile);
      std::uint64_t bit = lowest_bit(forbidden);
      if (control.field == vtx::VmcsField::kCpuBasedVmExecControl &&
          bit == vtx::kCpuSecondaryControls) {
        bit = lowest_bit(forbidden & ~vtx::kCpuSecondaryControls);
        if (bit == 0) continue;
      }
      vmcs.hw_write(control.field, vmcs.hw_read(control.field) | bit);
      const auto violations = vtx::check_control_fields(vmcs, profile);
      EXPECT_TRUE(has_rule(violations, std::string(control.label) +
                                           " allowed-1 violation"))
          << profile.name << ": " << control.label;
      exercised = true;
    }
    if (!exercised) {
      auto vmcs = valid_vmcs_for(profile);
      const std::uint64_t cr4 = vmcs.hw_read(vtx::VmcsField::kGuestCr4);
      vmcs.hw_write(vtx::VmcsField::kGuestCr4,
                    cr4 | lowest_bit(~profile.cr4_fixed.may_one));
      EXPECT_TRUE(has_rule(vtx::check_guest_state(vmcs, profile),
                           "CR4 reserved"))
          << profile.name;
    }
  }
}

TEST(ProfileEntryChecks, HypervisorLaunchesUnderEveryProfile) {
  // The hypervisor folds its launch controls through the active profile,
  // so construction + a short recording must succeed on every modeled
  // CPU — the clamp keeps its own entries in range by construction.
  for (const auto& profile : vtx::profile_library()) {
    hv::Hypervisor hypervisor(7, 0.0, profile);
    Manager manager(hypervisor);
    const VmBehavior& behavior =
        manager.record_workload(guest::Workload::kCpuBound, 20, 7);
    EXPECT_FALSE(behavior.empty()) << profile.name;
    EXPECT_EQ(&hypervisor.capability_profile(), &profile);
  }
}

// --- Pooled reset ≡ fresh under every profile ------------------------

TEST(ProfilePool, ResetMatchesFreshDigestForEveryProfile) {
  fuzz::PooledVm vm(17, 0.0);
  // Interleave profiles and revisit the first one, so a stale-profile
  // digest or memoization mixup cannot pass.
  std::vector<const VmxCapabilityProfile*> order;
  for (const auto& profile : vtx::profile_library()) order.push_back(&profile);
  order.push_back(&vtx::baseline_profile());
  for (const auto* profile : order) {
    vm.reset(*profile);
    EXPECT_EQ(hv::state_digest(vm.hv()), vm.fresh_digest(*profile))
        << profile->name;
  }
  // Distinct profiles must have distinct fresh digests (the digest
  // hashes the profile masks themselves).
  EXPECT_NE(vm.fresh_digest(vtx::baseline_profile()),
            vm.fresh_digest(vtx::profile_by_id(ProfileId::kStrictFixedCrs)));
}

// --- Baseline byte-identity ------------------------------------------

/// The canonical-result fnv1a of the reference campaign below, captured
/// on the pre-profile tree (PR 5). The profile refactor must reproduce
/// it bit-for-bit: baseline IS the old fixed CPU.
constexpr std::uint64_t kPreRefactorHash = 0xe7f9d222d96ab226ULL;

CampaignConfig reference_config(std::size_t workers) {
  CampaignConfig config;
  config.workers = workers;
  config.hv_seed = 7;
  config.record_exits = 200;
  config.record_seed = 3;
  return config;
}

std::vector<TestCaseSpec> reference_grid() {
  return fuzz::make_table1_grid({guest::Workload::kCpuBound}, 120, 7);
}

TEST(ProfileBaselineIdentity, CanonicalBytesMatchPreRefactorTree) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    CampaignRunner runner(reference_config(workers));
    const auto result = runner.run(reference_grid());
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(fnv1a(campaign::canonical_result_bytes(result)),
              kPreRefactorHash)
        << "workers=" << workers;
  }
}

TEST(ProfileBaselineIdentity, BaselineOnlyProfileGridIsTable1Grid) {
  const auto plain = reference_grid();
  const auto via_profiles = fuzz::make_profile_grid(
      {guest::Workload::kCpuBound}, 120, 7, {ProfileId::kBaseline});
  ASSERT_EQ(plain.size(), via_profiles.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ByteWriter a, b;
    campaign::serialize_spec(plain[i], a);
    campaign::serialize_spec(via_profiles[i], b);
    EXPECT_EQ(a.data(), b.data()) << i;
  }
}

// --- Profile-matrix campaigns ----------------------------------------

const std::vector<ProfileId> kMatrixProfiles = {
    ProfileId::kBaseline, ProfileId::kStrictFixedCrs,
    ProfileId::kNoUnrestrictedGuest};

CampaignConfig matrix_config(std::size_t workers) {
  CampaignConfig config;
  config.workers = workers;
  config.hv_seed = 7;
  config.record_exits = 150;
  config.record_seed = 3;
  return config;
}

std::vector<TestCaseSpec> matrix_grid() {
  return fuzz::make_profile_grid({guest::Workload::kCpuBound}, 40, 7,
                                 kMatrixProfiles);
}

/// Canonical bytes of one profile's slice of the results, in grid order.
std::vector<std::uint8_t> profile_slice_bytes(
    const fuzz::CampaignResult& result, ProfileId id) {
  ByteWriter bytes;
  for (const auto& cell : result.results) {
    if (cell.spec.profile == id) campaign::serialize_cell_result(cell, bytes);
  }
  return bytes.data();
}

TEST(ProfileMatrixCampaign, ProfilesShareRngButDiverge) {
  const auto grid = matrix_grid();
  const std::size_t per_profile = grid.size() / kMatrixProfiles.size();
  ASSERT_EQ(grid.size(), per_profile * kMatrixProfiles.size());
  // Profile-major layout sharing the baseline's rng seeds: the matrix
  // varies the modeled CPU and nothing else.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].profile, kMatrixProfiles[i / per_profile]);
    EXPECT_EQ(grid[i].rng_seed, grid[i % per_profile].rng_seed);
  }

  CampaignRunner runner(matrix_config(2));
  const auto result = runner.run(grid);
  ASSERT_TRUE(result.complete);
  const auto baseline = profile_slice_bytes(result, ProfileId::kBaseline);
  // Both restrictive profiles make recorded guest CR0/CR4 values fail
  // the fixed-bit checks, so their slices must diverge from baseline.
  EXPECT_NE(profile_slice_bytes(result, ProfileId::kStrictFixedCrs), baseline);
  EXPECT_NE(profile_slice_bytes(result, ProfileId::kNoUnrestrictedGuest),
            baseline);
}

TEST(ProfileMatrixCampaign, WorkerCountInvariant) {
  const auto grid = matrix_grid();
  CampaignRunner one(matrix_config(1));
  CampaignRunner four(matrix_config(4));
  const auto a = one.run(grid);
  const auto b = four.run(grid);
  EXPECT_EQ(campaign::canonical_result_bytes(a),
            campaign::canonical_result_bytes(b));
}

TEST(ProfileMatrixCampaign, CheckpointResumeIsByteIdentical) {
  const fs::path dir = scratch_dir("profile-resume");
  const auto grid = matrix_grid();

  CampaignRunner direct(matrix_config(2));
  const auto expected =
      campaign::canonical_result_bytes(direct.run(grid));

  auto config = matrix_config(2);
  config.checkpoint_path = (dir / "matrix.ckpt").string();
  config.cell_budget = 3;
  const auto partial = CampaignRunner(config).run(grid);
  ASSERT_TRUE(partial.persistence_error.empty()) << partial.persistence_error;
  ASSERT_FALSE(partial.complete);

  config.cell_budget = 0;
  const auto resumed = CampaignRunner(config).run(grid);
  ASSERT_TRUE(resumed.persistence_error.empty()) << resumed.persistence_error;
  ASSERT_TRUE(resumed.complete);
  EXPECT_GT(resumed.cells_resumed, 0u);
  EXPECT_EQ(campaign::canonical_result_bytes(resumed), expected);
}

TEST(ProfileMatrixCampaign, TwoShardReduceIsByteIdentical) {
  const fs::path dir = scratch_dir("profile-reduce");
  const auto grid = matrix_grid();
  auto config = matrix_config(2);

  // Run the full campaign once with a journal, then split its cell
  // records across two shard journals — exactly the journal content two
  // grid-lease shards would have produced.
  config.checkpoint_path = (dir / "full.ckpt").string();
  CampaignRunner runner(config);
  const auto full = runner.run(grid);
  ASSERT_TRUE(full.complete);
  ASSERT_TRUE(full.persistence_error.empty()) << full.persistence_error;
  const auto expected = campaign::canonical_result_bytes(full);

  const auto fingerprint = campaign::campaign_fingerprint(grid, config);
  auto source =
      campaign::CampaignCheckpoint::open(config.checkpoint_path, fingerprint);
  ASSERT_TRUE(source.ok()) << source.error().message;
  const std::string shard_a = (dir / "shard-a.ckpt").string();
  const std::string shard_b = (dir / "shard-b.ckpt").string();
  auto a = campaign::CampaignCheckpoint::open(shard_a, fingerprint);
  auto b = campaign::CampaignCheckpoint::open(shard_b, fingerprint);
  ASSERT_TRUE(a.ok() && b.ok());
  std::size_t n = 0;
  for (const auto& cell : source.value().cells()) {
    ASSERT_TRUE(((n++ % 2 == 0) ? a : b).value().append(cell).ok());
  }

  config.checkpoint_path.clear();
  auto reduced = campaign::reduce_journals({shard_a, shard_b}, grid, config);
  ASSERT_TRUE(reduced.ok()) << reduced.error().message;
  EXPECT_TRUE(reduced.value().missing.empty());
  EXPECT_EQ(campaign::canonical_result_bytes(reduced.value().result), expected);
}

// --- Wire formats ----------------------------------------------------

TEST(ProfileWire, SpecRoundTripsAndBaselineLayoutIsLegacy) {
  TestCaseSpec spec;
  spec.workload = guest::Workload::kCpuBound;
  spec.reason = vtx::ExitReason::kCpuid;
  spec.area = fuzz::MutationArea::kGpr;
  spec.mutants = 77;
  spec.rng_seed = 0xABCD;

  ByteWriter base;
  campaign::serialize_spec(spec, base);
  // Baseline wire: no profile flag, no trailing byte.
  EXPECT_EQ(base.data()[0] & 0x80, 0);

  spec.profile = ProfileId::kStrictFixedCrs;
  ByteWriter profiled;
  campaign::serialize_spec(spec, profiled);
  EXPECT_EQ(profiled.data().size(), base.data().size() + 1);
  EXPECT_NE(profiled.data()[0] & 0x80, 0);

  ByteReader in(profiled.data());
  auto round = campaign::deserialize_spec(in);
  ASSERT_TRUE(round.ok()) << round.error().message;
  EXPECT_EQ(round.value().profile, ProfileId::kStrictFixedCrs);
  EXPECT_EQ(round.value().rng_seed, spec.rng_seed);
  EXPECT_EQ(round.value().workload, spec.workload);

  // A flagged byte carrying an invalid profile id is corruption.
  auto bytes = profiled.data();
  bytes.back() = static_cast<std::uint8_t>(ProfileId::kCount);
  ByteReader bad(bytes);
  EXPECT_FALSE(campaign::deserialize_spec(bad).ok());
}

TEST(ProfileWire, SeedRoundTripsProfileId) {
  VmSeed seed;
  seed.reason = vtx::ExitReason::kRdtsc;
  seed.items.push_back(SeedItem{SeedItemKind::kGpr, 2, 0x1234});
  seed.profile = ProfileId::kNoTprShadow;

  ByteWriter out;
  seed.serialize(out);
  EXPECT_EQ(out.data().size(), seed.byte_size());
  ByteReader in(out.data());
  auto round = VmSeed::deserialize(in);
  ASSERT_TRUE(round.ok()) << round.error().message;
  EXPECT_EQ(round.value().profile, ProfileId::kNoTprShadow);
  EXPECT_EQ(round.value().reason, vtx::ExitReason::kRdtsc);

  // A flagged reason word with a baseline profile byte never comes from
  // our writer — reject it so serialize∘deserialize is the identity.
  auto bytes = out.data();
  bytes[2] = 0;  // the trailing... profile byte sits right after reason
  ByteReader bad(bytes);
  EXPECT_FALSE(VmSeed::deserialize(bad).ok());
}

TEST(ProfileWire, RecorderStampsActiveProfile) {
  const auto& profile = vtx::profile_by_id(ProfileId::kMinimalSecondaryCtls);
  hv::Hypervisor hypervisor(11, 0.0, profile);
  Manager manager(hypervisor);
  const VmBehavior& behavior =
      manager.record_workload(guest::Workload::kCpuBound, 15, 11);
  ASSERT_FALSE(behavior.empty());
  for (const auto& record : behavior) {
    EXPECT_EQ(record.seed.profile, ProfileId::kMinimalSecondaryCtls);
  }
}

}  // namespace
}  // namespace iris
