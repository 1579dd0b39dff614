// Tests for the PoC fuzzer: mutation rules, test-case execution, and
// the failure classification of §VII.
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>

#include "fuzz/fuzzer.h"

namespace iris::fuzz {
namespace {

using guest::Workload;

VmSeed sample_seed() {
  VmSeed seed;
  seed.reason = vtx::ExitReason::kRdtsc;
  for (int i = 0; i < vcpu::kNumGprs; ++i) {
    seed.items.push_back(SeedItem{SeedItemKind::kGpr, static_cast<std::uint8_t>(i),
                                  0xFF00ULL + static_cast<std::uint64_t>(i)});
  }
  seed.items.push_back(SeedItem{SeedItemKind::kVmcsField,
                                *vtx::compact_index(vtx::VmcsField::kVmExitReason),
                                16});
  seed.items.push_back(SeedItem{SeedItemKind::kVmcsField,
                                *vtx::compact_index(vtx::VmcsField::kGuestRip),
                                0x1000});
  return seed;
}

TEST(Mutator, SingleBitFlipInGprArea) {
  Mutator mutator(1);
  const VmSeed seed = sample_seed();
  AppliedMutation applied;
  const auto mutant = mutator.mutate(seed, MutationArea::kGpr, &applied);
  ASSERT_TRUE(mutant.has_value());
  EXPECT_TRUE(mutant->items[applied.item_index].is_gpr());
  // Exactly one bit differs, in exactly one item.
  int changed_items = 0;
  for (std::size_t i = 0; i < seed.items.size(); ++i) {
    const auto diff = seed.items[i].value ^ mutant->items[i].value;
    if (diff != 0) {
      ++changed_items;
      EXPECT_EQ(__builtin_popcountll(diff), 1);
      EXPECT_EQ(i, applied.item_index);
      EXPECT_EQ(diff, 1ULL << applied.bit);
    }
  }
  EXPECT_EQ(changed_items, 1);
}

TEST(Mutator, VmcsAreaTargetsOnlyVmcsItems) {
  Mutator mutator(2);
  const VmSeed seed = sample_seed();
  for (int trial = 0; trial < 50; ++trial) {
    AppliedMutation applied;
    const auto mutant = mutator.mutate(seed, MutationArea::kVmcs, &applied);
    ASSERT_TRUE(mutant.has_value());
    EXPECT_FALSE(mutant->items[applied.item_index].is_gpr());
  }
}

TEST(Mutator, NoCandidatesReturnsNullopt) {
  Mutator mutator(3);
  VmSeed gpr_only;
  gpr_only.items.push_back(SeedItem{SeedItemKind::kGpr, 0, 1});
  EXPECT_FALSE(mutator.mutate(gpr_only, MutationArea::kVmcs).has_value());
}

TEST(Mutator, DeterministicUnderSeed) {
  const VmSeed seed = sample_seed();
  Mutator a(7), b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.mutate(seed, MutationArea::kVmcs)->items,
              b.mutate(seed, MutationArea::kVmcs)->items);
  }
}

TEST(MutationArea, Names) {
  EXPECT_EQ(to_string(MutationArea::kVmcs), "VMCS");
  EXPECT_EQ(to_string(MutationArea::kGpr), "GPR");
}

class FuzzerTest : public ::testing::Test {
 protected:
  FuzzerTest() : hv_(17, 0.0), manager_(hv_) {}

  hv::Hypervisor hv_;
  Manager manager_;
};

TEST_F(FuzzerTest, TestCaseWithAbsentReasonDoesNotRun) {
  const auto& behavior = manager_.record_workload(Workload::kCpuBound, 100, 3);
  Fuzzer fuzzer(manager_);
  TestCaseSpec spec;
  spec.workload = Workload::kCpuBound;
  spec.reason = vtx::ExitReason::kHlt;  // CPU-bound has no HLT exits
  spec.mutants = 10;
  const auto result = fuzzer.run_test_case(spec, behavior);
  EXPECT_FALSE(result.ran);  // the '-' cells of Table I
}

TEST_F(FuzzerTest, FuzzingDiscoversNewCoverage) {
  const auto& behavior = manager_.record_workload(Workload::kCpuBound, 150, 3);
  Fuzzer fuzzer(manager_);
  TestCaseSpec spec;
  spec.workload = Workload::kCpuBound;
  spec.reason = vtx::ExitReason::kRdtsc;
  spec.area = MutationArea::kVmcs;
  spec.mutants = 300;
  const auto result = fuzzer.run_test_case(spec, behavior);
  ASSERT_TRUE(result.ran);
  EXPECT_GT(result.executed, 0u);
  EXPECT_GT(result.baseline_loc, 0u);
  // Table I: every cell shows newly discovered coverage.
  EXPECT_GT(result.new_loc, 0u);
  EXPECT_GT(result.coverage_increase_pct, 0.0);
}

TEST_F(FuzzerTest, VmcsMutationCausesCrashes) {
  const auto& behavior = manager_.record_workload(Workload::kCpuBound, 150, 3);
  Fuzzer fuzzer(manager_);
  TestCaseSpec spec;
  spec.workload = Workload::kCpuBound;
  spec.reason = vtx::ExitReason::kRdtsc;
  spec.area = MutationArea::kVmcs;
  spec.mutants = 500;
  const auto result = fuzzer.run_test_case(spec, behavior);
  ASSERT_TRUE(result.ran);
  // §VII-4: VMCS mutation produces both VM and hypervisor crashes.
  EXPECT_GT(result.vm_crashes + result.hv_crashes, 0u);
  EXPECT_FALSE(result.crashes.empty());
  EXPECT_LE(result.crashes.size(), 32u);  // archive bound
}

TEST_F(FuzzerTest, GprMutationMostlyBenign) {
  const auto& behavior = manager_.record_workload(Workload::kCpuBound, 150, 3);
  Fuzzer fuzzer(manager_);
  TestCaseSpec vmcs_spec{Workload::kCpuBound, vtx::ExitReason::kRdtsc,
                         MutationArea::kVmcs, 400, 3};
  TestCaseSpec gpr_spec{Workload::kCpuBound, vtx::ExitReason::kRdtsc,
                        MutationArea::kGpr, 400, 3};
  const auto vmcs_result = fuzzer.run_test_case(vmcs_spec, behavior);
  const auto gpr_result = fuzzer.run_test_case(gpr_spec, behavior);
  ASSERT_TRUE(vmcs_result.ran);
  ASSERT_TRUE(gpr_result.ran);
  // The paper's asymmetry: VMCS mutation is far more destructive.
  EXPECT_GT(vmcs_result.vm_crashes + vmcs_result.hv_crashes,
            gpr_result.vm_crashes + gpr_result.hv_crashes);
}

TEST_F(FuzzerTest, FuzzerSurvivesHypervisorCrashes) {
  // After any host panic the fuzzer must reset and keep executing.
  const auto& behavior = manager_.record_workload(Workload::kOsBoot, 150, 3);
  Fuzzer fuzzer(manager_);
  TestCaseSpec spec;
  spec.workload = Workload::kOsBoot;
  spec.reason = vtx::ExitReason::kCrAccess;
  spec.area = MutationArea::kVmcs;
  spec.mutants = 300;
  const auto result = fuzzer.run_test_case(spec, behavior);
  ASSERT_TRUE(result.ran);
  EXPECT_EQ(result.executed, 300u);  // no mutant was skipped
  EXPECT_FALSE(hv_.failures().host_is_down());  // left in a clean state
}

TEST_F(FuzzerTest, CrashRecordsCarryTriageMetadata) {
  const auto& behavior = manager_.record_workload(Workload::kCpuBound, 150, 3);
  Fuzzer fuzzer(manager_);
  TestCaseSpec spec{Workload::kCpuBound, vtx::ExitReason::kRdtsc,
                    MutationArea::kVmcs, 500, 9};
  const auto result = fuzzer.run_test_case(spec, behavior);
  ASSERT_TRUE(result.ran);
  for (const auto& crash : result.crashes) {
    EXPECT_NE(crash.kind, hv::FailureKind::kNone);
    EXPECT_FALSE(crash.log_line.empty());
    EXPECT_FALSE(crash.mutant.items.empty());
    // The archived mutation is reproducible: one flipped bit.
    EXPECT_EQ(crash.mutant.items[crash.mutation.item_index].value,
              crash.mutation.new_value);
  }
}

TEST_F(FuzzerTest, GridCoversReasonsAndAreas) {
  const auto& behavior = manager_.record_workload(Workload::kIdle, 120, 3);
  Fuzzer fuzzer(manager_);
  const auto results = fuzzer.run_grid(Workload::kIdle, behavior, 50, 3);
  // 9 cluster reasons x 2 areas.
  EXPECT_EQ(results.size(), 18u);
  std::size_t ran = 0;
  for (const auto& r : results) ran += r.ran ? 1 : 0;
  EXPECT_GT(ran, 4u);       // IDLE exercises several reasons
  EXPECT_LT(ran, 18u);      // but not all (e.g. no I/O instructions)
}

// ASan and TSan keep freed memory in a quarantine and grow shadow memory
// with every allocation, so resident size there tracks allocation churn,
// not what stays alive.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kRssTracksLiveMemory = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kRssTracksLiveMemory = false;
#else
constexpr bool kRssTracksLiveMemory = true;
#endif
#else
constexpr bool kRssTracksLiveMemory = true;
#endif

std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST_F(FuzzerTest, RepeatedRunGridRecyclesTheDummyDomain) {
  // Every test case walks from a fresh dummy VM; on one stack the
  // previous dummy must be recycled, not kept alive per call.
  const auto& behavior = manager_.record_workload(Workload::kCpuBound, 150, 3);
  Fuzzer fuzzer(manager_);
  const std::size_t before = resident_bytes();
  for (int call = 0; call < 24; ++call) {
    (void)fuzzer.run_grid(Workload::kCpuBound, behavior, 1000, 3);
  }
  EXPECT_LE(hv_.domain_count(), 3u);  // Dom0, the test VM, one dummy
  const std::size_t after = resident_bytes();
  if (kRssTracksLiveMemory) {
    EXPECT_LT(after > before ? after - before : 0, std::size_t{16} << 20);
  }
}

TEST_F(FuzzerTest, DeterministicGivenSeeds) {
  const auto& behavior = manager_.record_workload(Workload::kCpuBound, 100, 3);
  TestCaseSpec spec{Workload::kCpuBound, vtx::ExitReason::kRdtsc,
                    MutationArea::kVmcs, 100, 77};
  Fuzzer fuzzer(manager_);
  const auto a = fuzzer.run_test_case(spec, behavior);
  const auto b = fuzzer.run_test_case(spec, behavior);
  EXPECT_EQ(a.target_index, b.target_index);
  EXPECT_EQ(a.vm_crashes, b.vm_crashes);
  EXPECT_EQ(a.hv_crashes, b.hv_crashes);
}

}  // namespace
}  // namespace iris::fuzz
