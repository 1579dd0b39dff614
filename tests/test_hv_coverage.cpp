// Unit tests for the coverage instrumentation (the gcov substitute) and
// the failure manager.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include "hv/coverage.h"
#include "hv/failure.h"
#include "iris/manager.h"

namespace iris::hv {
namespace {

TEST(CoverageMap, PerExitUniqueBlocks) {
  CoverageMap cov;
  cov.begin_exit();
  cov.hit(Component::kVmx, 1, 5);
  cov.hit(Component::kVmx, 1, 5);  // repeated hit counts once
  cov.hit(Component::kVmx, 2, 3);
  const auto exit_cov = cov.end_exit();
  EXPECT_EQ(exit_cov.blocks.size(), 2u);
  EXPECT_EQ(exit_cov.loc, 8u);
}

TEST(CoverageMap, IrisHitsAreFiltered) {
  CoverageMap cov;
  cov.begin_exit();
  cov.hit(Component::kVmx, 1, 5);
  cov.hit(Component::kIris, 1, 10);
  const auto filtered = cov.end_exit(/*filter_iris=*/true);
  EXPECT_EQ(filtered.blocks.size(), 1u);
  EXPECT_EQ(filtered.loc, 5u);

  cov.begin_exit();
  cov.hit(Component::kVmx, 1, 5);
  cov.hit(Component::kIris, 1, 10);
  const auto raw = cov.end_exit(/*filter_iris=*/false);
  EXPECT_EQ(raw.blocks.size(), 2u);
}

TEST(CoverageMap, SameIdDifferentComponentDistinct) {
  CoverageMap cov;
  cov.begin_exit();
  cov.hit(Component::kVmx, 7, 2);
  cov.hit(Component::kEmulate, 7, 4);
  EXPECT_EQ(cov.end_exit().blocks.size(), 2u);
}

TEST(CoverageMap, LocWeightFixedAtFirstHit) {
  CoverageMap cov;
  cov.begin_exit();
  cov.hit(Component::kIrq, 1, 6);
  cov.end_exit();
  cov.begin_exit();
  cov.hit(Component::kIrq, 1, 99);  // ignored: call sites are static
  cov.end_exit();
  EXPECT_EQ(cov.loc_of(pack_block(Component::kIrq, 1)), 6u);
}

TEST(CoverageMap, BlocksSortedInExit) {
  CoverageMap cov;
  cov.begin_exit();
  cov.hit(Component::kVpt, 9, 1);
  cov.hit(Component::kVmx, 3, 1);
  const auto exit_cov = cov.end_exit();
  EXPECT_TRUE(std::is_sorted(exit_cov.blocks.begin(), exit_cov.blocks.end()));
}

TEST(CoverageAccumulator, CumulativeGain) {
  CoverageMap cov;
  cov.begin_exit();
  cov.hit(Component::kVmx, 1, 5);
  cov.hit(Component::kVmx, 2, 3);
  const auto first = cov.end_exit();

  cov.begin_exit();
  cov.hit(Component::kVmx, 2, 3);
  cov.hit(Component::kVmx, 3, 7);
  const auto second = cov.end_exit();

  CoverageAccumulator acc(cov);
  EXPECT_EQ(acc.add(first), 8u);
  EXPECT_EQ(acc.add(second), 7u);  // only block 3 is new
  EXPECT_EQ(acc.total_loc(), 15u);
  EXPECT_EQ(acc.unique_blocks(), 3u);
}

TEST(CoverageAccumulator, LocNotIn) {
  CoverageMap cov;
  cov.begin_exit();
  cov.hit(Component::kVmx, 1, 5);
  cov.hit(Component::kVmx, 2, 3);
  const auto a_cov = cov.end_exit();
  cov.begin_exit();
  cov.hit(Component::kVmx, 1, 5);
  const auto b_cov = cov.end_exit();

  CoverageAccumulator a(cov), b(cov);
  a.add(a_cov);
  b.add(b_cov);
  EXPECT_EQ(a.loc_not_in(b), 3u);
  EXPECT_EQ(b.loc_not_in(a), 0u);
}

TEST(CoverageMap, RegisteredBlocksListsFirstHitOrder) {
  CoverageMap cov;
  cov.begin_exit();
  cov.hit(Component::kVpt, 9, 4);
  cov.hit(Component::kVmx, 1, 2);
  cov.hit(Component::kVpt, 9, 4);  // repeat: no new registration
  cov.end_exit();
  ASSERT_EQ(cov.registered_blocks().size(), 2u);
  EXPECT_EQ(cov.registered_blocks()[0], pack_block(Component::kVpt, 9));
  EXPECT_EQ(cov.registered_blocks()[1], pack_block(Component::kVmx, 1));
  EXPECT_EQ(cov.loc_of(cov.registered_blocks()[0]), 4);
}

TEST(CoverageMap, EndExitIntoReusesTheCallerBuffer) {
  CoverageMap cov;
  ExitCoverage out;
  cov.begin_exit();
  cov.hit(Component::kVmx, 1, 2);
  cov.hit(Component::kIntr, 2, 3);
  cov.end_exit_into(out);
  EXPECT_EQ(out.blocks.size(), 2u);
  EXPECT_EQ(out.loc, 5u);

  // Refill with a different exit: previous content must be replaced,
  // not appended to.
  cov.begin_exit();
  cov.hit(Component::kVpt, 7, 4);
  cov.end_exit_into(out);
  ASSERT_EQ(out.blocks.size(), 1u);
  EXPECT_EQ(out.blocks[0], pack_block(Component::kVpt, 7));
  EXPECT_EQ(out.loc, 4u);
}

TEST(CoverageMap, ResetForgetsEverything) {
  CoverageMap cov;
  cov.begin_exit();
  cov.hit(Component::kVmx, 1, 2);
  cov.end_exit();
  cov.reset();
  EXPECT_TRUE(cov.registered_blocks().empty());
  EXPECT_EQ(cov.loc_of(pack_block(Component::kVmx, 1)), 0);
  cov.begin_exit();
  EXPECT_TRUE(cov.end_exit().blocks.empty());
}

/// Resident set size of this process in bytes (/proc/self/statm's
/// second field counts pages).
long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * ::sysconf(_SC_PAGESIZE);
}

TEST(CoverageMap, IndexSpaceStaysUnresidentUntilTouched) {
  // Each map spans a 4.3 MB index space, but only the pages its blocks
  // land on become resident. Zero-filled arrays made 8 hypervisors add
  // over 36 MB; lazily zeroed ones add about 3.5 MB.
  const long before = resident_bytes();
  std::vector<std::unique_ptr<Hypervisor>> stacks;
  for (std::uint64_t i = 0; i < 8; ++i) {
    stacks.push_back(std::make_unique<Hypervisor>(i));
  }
  const long added = resident_bytes() - before;
  EXPECT_LT(added, 8L << 20) << "8 hypervisors added " << added << " resident bytes";

  // A touched block still reads back, and a far one is still zero.
  CoverageMap& cov = stacks.back()->coverage();
  cov.begin_exit();
  cov.hit(Component::kIris, 0xFFFF, 3);
  EXPECT_EQ(cov.loc_of(pack_block(Component::kIris, 0xFFFF)), 3);
  EXPECT_EQ(cov.loc_of(pack_block(Component::kHypercall, 0xFFFF)), 0);
}

// Reference implementation of the accumulator contract with hash-set
// internals (the pre-bitset design); the production bitset version must
// report identical numbers on every input.
struct ReferenceAccumulator {
  explicit ReferenceAccumulator(const CoverageMap& m) : map(&m) {}

  std::uint32_t add(const ExitCoverage& exit_cov) {
    std::uint32_t gained = 0;
    for (BlockKey key : exit_cov.blocks) {
      if (seen.insert(key).second) gained += map->loc_of(key);
    }
    total += gained;
    return gained;
  }

  [[nodiscard]] std::uint32_t loc_not_in(const ReferenceAccumulator& other) const {
    std::uint32_t sum = 0;
    for (BlockKey key : seen) {
      if (!other.seen.contains(key)) sum += map->loc_of(key);
    }
    return sum;
  }

  const CoverageMap* map;
  std::unordered_set<BlockKey> seen;
  std::uint32_t total = 0;
};

TEST(CoverageAccumulator, BitsetMatchesHashSetReferenceOnRecordedBehaviors) {
  for (const auto workload :
       {guest::Workload::kOsBoot, guest::Workload::kCpuBound, guest::Workload::kIdle}) {
    Hypervisor hv(7, 0.02);
    Manager manager(hv);
    const VmBehavior& behavior = manager.record_workload(workload, 300, 11);
    ASSERT_FALSE(behavior.empty());

    // Split the trace across two accumulators (even/odd exits) so the
    // loc_not_in comparison sees genuinely different sides.
    CoverageAccumulator even(hv.coverage()), odd(hv.coverage());
    ReferenceAccumulator ref_even(hv.coverage()), ref_odd(hv.coverage());
    for (std::size_t i = 0; i < behavior.size(); ++i) {
      const ExitCoverage& cov = behavior[i].metrics.coverage;
      auto& acc = (i % 2 == 0) ? even : odd;
      auto& ref = (i % 2 == 0) ? ref_even : ref_odd;
      // Gain must agree add-by-add, not only in the final total.
      ASSERT_EQ(acc.add(cov), ref.add(cov));
    }
    EXPECT_EQ(even.total_loc(), ref_even.total);
    EXPECT_EQ(odd.total_loc(), ref_odd.total);
    EXPECT_EQ(even.unique_blocks(), ref_even.seen.size());
    EXPECT_EQ(odd.unique_blocks(), ref_odd.seen.size());
    EXPECT_EQ(even.loc_not_in(odd), ref_even.loc_not_in(ref_odd));
    EXPECT_EQ(odd.loc_not_in(even), ref_odd.loc_not_in(ref_even));
    for (BlockKey key : ref_even.seen) {
      EXPECT_TRUE(even.contains(key));
    }
  }
}

TEST(ExitCoverage, LocInComponent) {
  CoverageMap cov;
  cov.begin_exit();
  cov.hit(Component::kVlapic, 1, 4);
  cov.hit(Component::kIrq, 1, 2);
  const auto exit_cov = cov.end_exit();
  EXPECT_EQ(exit_cov.loc_in(cov, Component::kVlapic), 4u);
  EXPECT_EQ(exit_cov.loc_in(cov, Component::kIrq), 2u);
  EXPECT_EQ(exit_cov.loc_in(cov, Component::kEmulate), 0u);
}

TEST(Component, NamesMatchXenSources) {
  EXPECT_EQ(to_string(Component::kVmx), "vmx.c");
  EXPECT_EQ(to_string(Component::kEmulate), "emulate.c");
  EXPECT_EQ(to_string(Component::kVlapic), "vlapic.c");
  EXPECT_EQ(to_string(Component::kIrq), "irq.c");
  EXPECT_EQ(to_string(Component::kVpt), "vpt.c");
  EXPECT_EQ(to_string(Component::kIntr), "intr.c");
}

TEST(FailureManager, VmCrashKillsOnlyTheDomain) {
  RingLog log;
  FailureManager failures(log);
  failures.vm_crash(3, 100, "triple fault");
  EXPECT_TRUE(failures.domain_is_dead(3));
  EXPECT_FALSE(failures.domain_is_dead(2));
  EXPECT_FALSE(failures.host_is_down());
  EXPECT_TRUE(log.contains("domain_crash"));
}

TEST(FailureManager, HypervisorCrashTakesHostDown) {
  RingLog log;
  FailureManager failures(log);
  failures.hypervisor_crash(200, "unexpected VM exit reason 70");
  EXPECT_TRUE(failures.host_is_down());
  EXPECT_TRUE(log.contains("FATAL TRAP", LogLevel::kPanic));
}

TEST(FailureManager, EventsAccumulateInOrder) {
  RingLog log;
  FailureManager failures(log);
  failures.vm_crash(1, 10, "a");
  failures.hypervisor_hang(20, "b");
  ASSERT_EQ(failures.events().size(), 2u);
  EXPECT_EQ(failures.events()[0].kind, FailureKind::kVmCrash);
  EXPECT_EQ(failures.events()[1].kind, FailureKind::kHypervisorHang);
  EXPECT_EQ(failures.first_event()->reason, "a");
}

TEST(FailureManager, ResetRevivesEverything) {
  RingLog log;
  FailureManager failures(log);
  failures.vm_crash(1, 10, "x");
  failures.hypervisor_crash(20, "y");
  failures.reset();
  EXPECT_FALSE(failures.host_is_down());
  EXPECT_FALSE(failures.domain_is_dead(1));
  EXPECT_TRUE(failures.events().empty());
}

}  // namespace
}  // namespace iris::hv
