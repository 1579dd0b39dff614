// Tests for the IRIS manager: operation modes, snapshots, the analysis
// pipeline, and the xc_vmcs_fuzzing hypercall interface (§IV-C, §V-C).
#include <gtest/gtest.h>

#include "guest/guest_ops.h"
#include "iris/analysis.h"
#include "iris/manager.h"
#include "sim/cost_model.h"

namespace iris {
namespace {

using guest::Workload;

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest() : hv_(13, 0.0), manager_(hv_) {}

  hv::Hypervisor hv_;
  Manager manager_;
};

TEST_F(ManagerTest, TestAndDummyVmsAreDistinctAndIdempotent) {
  hv::Domain& test_vm = manager_.test_vm();
  hv::Domain& dummy_vm = manager_.dummy_vm();
  EXPECT_NE(test_vm.id(), dummy_vm.id());
  EXPECT_EQ(test_vm.role(), hv::DomainRole::kTest);
  EXPECT_EQ(dummy_vm.role(), hv::DomainRole::kDummy);
  EXPECT_EQ(&manager_.test_vm(), &test_vm);
  EXPECT_EQ(&manager_.dummy_vm(), &dummy_vm);
}

TEST_F(ManagerTest, RecordStoresBehaviorInDb) {
  const auto& behavior = manager_.record_workload(Workload::kCpuBound, 100, 5);
  EXPECT_EQ(behavior.size(), 100u);
  EXPECT_NE(manager_.db().behavior("CPU-bound"), nullptr);
  EXPECT_EQ(manager_.mode(), Manager::Mode::kOff);
}

TEST_F(ManagerTest, SubmitSingleSeed) {
  const auto& behavior = manager_.record_workload(Workload::kIdle, 20, 5);
  ASSERT_TRUE(manager_.enable_replay());
  const auto outcome = manager_.submit_seed(behavior[0].seed);
  EXPECT_TRUE(outcome.entered);
  EXPECT_EQ(outcome.dispatched_reason, behavior[0].seed.reason);
}

TEST_F(ManagerTest, ReplayAndRecordProducesAlignedMetrics) {
  const auto& behavior = manager_.record_workload(Workload::kOsBoot, 200, 5);
  const auto replayed = manager_.replay_and_record(behavior);
  EXPECT_FALSE(replayed.aborted);
  ASSERT_EQ(replayed.behavior.size(), behavior.size());
  ASSERT_EQ(replayed.outcomes.size(), behavior.size());

  const auto report = analyze_accuracy(hv_.coverage(), behavior, replayed.behavior);
  EXPECT_GE(report.coverage_fit_pct, 85.0);
}

TEST_F(ManagerTest, SnapshotRevertRestoresTestVm) {
  (void)manager_.test_vm();
  manager_.save_test_snapshot();
  manager_.record_workload(Workload::kOsBoot, 150, 5);  // mutates the VM
  const auto cr0_after = manager_.test_vm().vcpu().regs.cr0;
  manager_.revert_test_vm();
  const auto cr0_reverted = manager_.test_vm().vcpu().regs.cr0;
  EXPECT_NE(cr0_after, cr0_reverted);
  EXPECT_EQ(manager_.test_vm().vcpu().mode_cache, vcpu::CpuMode::kMode1);
}

TEST_F(ManagerTest, DummyVmCanStartFromTestSnapshot) {
  manager_.record_workload(Workload::kOsBoot, 150, 5);
  manager_.save_test_snapshot();  // a booted state
  manager_.revert_dummy_to_test_snapshot();
  EXPECT_NE(manager_.dummy_vm().vcpu().mode_cache, vcpu::CpuMode::kMode1);
}

TEST_F(ManagerTest, ResetDummyVmGivesFreshState) {
  manager_.record_workload(Workload::kOsBoot, 150, 5);
  manager_.save_test_snapshot();
  manager_.revert_dummy_to_test_snapshot();
  manager_.reset_dummy_vm();
  EXPECT_EQ(manager_.dummy_vm().vcpu().mode_cache, vcpu::CpuMode::kMode1);
}

TEST_F(ManagerTest, ResetDummyVmRecyclesTheDummyInPlace) {
  const std::uint32_t id = manager_.dummy_vm().id();
  const std::size_t domains = hv_.domain_count();
  for (int i = 0; i < 5; ++i) {
    manager_.reset_dummy_vm();
    EXPECT_EQ(manager_.dummy_vm().id(), id);
    EXPECT_EQ(hv_.domain_count(), domains);
    EXPECT_EQ(manager_.dummy_vm().vcpu().mode_cache, vcpu::CpuMode::kMode1);
  }
}

TEST_F(ManagerTest, ResetDummyVmNeverHandsOutADeadId) {
  // A caller that resets the dummy without clearing failures first must
  // still get a live dummy: a dead domain is not recycled.
  const std::uint32_t dead = manager_.dummy_vm().id();
  hv_.failures().vm_crash(dead, 0, "killed by the test");
  manager_.reset_dummy_vm();
  EXPECT_NE(manager_.dummy_vm().id(), dead);
  EXPECT_FALSE(hv_.failures().domain_is_dead(manager_.dummy_vm().id()));
  hv::HvVcpu& vcpu = manager_.dummy_vm().vcpu();
  const auto outcome =
      hv_.process_exit(manager_.dummy_vm(), vcpu, guest::make_rdtsc(vcpu));
  EXPECT_NE(outcome.cause, hv::FailureCause::kTargetAlreadyDown);
}

TEST_F(ManagerTest, ResetDummyVmKeepsADomainCreatedAfterTheDummy) {
  // Only the newest domain can be recycled under its own id.
  const std::uint32_t old_dummy = manager_.dummy_vm().id();
  const hv::Domain& later = hv_.create_domain(hv::DomainRole::kTest);
  manager_.reset_dummy_vm();
  EXPECT_EQ(hv_.domain(later.id()), &later);
  EXPECT_NE(manager_.dummy_vm().id(), old_dummy);
  EXPECT_NE(manager_.dummy_vm().id(), later.id());
}

TEST_F(ManagerTest, ModeTrajectoryWalksFigureEight) {
  const auto& boot = manager_.record_workload(Workload::kOsBoot, 300, 5);
  const auto trajectory = mode_trajectory(boot);
  ASSERT_FALSE(trajectory.empty());
  // The boot walks Mode2 -> Mode3 -> Mode4 -> Mode6 (Fig 8's staircase).
  std::vector<vcpu::CpuMode> distinct;
  for (const auto& s : trajectory) {
    if (distinct.empty() || distinct.back() != s.mode) distinct.push_back(s.mode);
  }
  EXPECT_GE(distinct.size(), 4u);
  EXPECT_EQ(distinct.front(), vcpu::CpuMode::kMode2);
}

TEST_F(ManagerTest, EfficiencyReportShapes) {
  const auto report = analyze_efficiency(3'600'000'000ULL, 360'000'000ULL, 5000);
  EXPECT_DOUBLE_EQ(report.real_seconds, 1.0);
  EXPECT_DOUBLE_EQ(report.replay_seconds, 0.1);
  EXPECT_NEAR(report.pct_decrease, 90.0, 0.01);
  EXPECT_NEAR(report.speedup, 10.0, 0.01);
  EXPECT_NEAR(report.replay_exits_per_sec, 50'000.0, 1.0);
}

// --- The hypercall interface, invoked as the CLI would (via VMCALL
// from Dom0's vCPU context). ---

class HypercallTest : public ManagerTest {
 protected:
  std::uint64_t call(std::uint64_t a0, std::uint64_t a1 = 0, std::uint64_t a2 = 0) {
    hv::Domain& dom0 = *hv_.domain(0);
    const std::uint64_t args[3] = {a0, a1, a2};
    return hv_.dispatch_hypercall(hv::kHypercallVmcsFuzzing, dom0, dom0.vcpu(), args);
  }
};

TEST_F(HypercallTest, StatusReflectsMode) {
  EXPECT_EQ(call(static_cast<std::uint64_t>(IrisCmd::kStatus)),
            static_cast<std::uint64_t>(Manager::Mode::kOff));
  ASSERT_EQ(call(static_cast<std::uint64_t>(IrisCmd::kEnableRecord)), 0u);
  EXPECT_EQ(call(static_cast<std::uint64_t>(IrisCmd::kStatus)),
            static_cast<std::uint64_t>(Manager::Mode::kRecord));
  EXPECT_EQ(call(static_cast<std::uint64_t>(IrisCmd::kDisableRecord)), 0u);
}

TEST_F(HypercallTest, RecordSessionCapturesSeeds) {
  ASSERT_EQ(call(static_cast<std::uint64_t>(IrisCmd::kEnableRecord)), 0u);
  // Drive some test-VM exits while the hypercall-recorder is attached.
  hv::Domain& test_vm = manager_.test_vm();
  guest::GuestProgram program(Workload::kCpuBound, 5, 50);
  for (int i = 0; i < 50; ++i) {
    const auto exit = program.next(hv_, test_vm, test_vm.vcpu());
    hv_.process_exit(test_vm, test_vm.vcpu(), exit);
  }
  ASSERT_EQ(call(static_cast<std::uint64_t>(IrisCmd::kDisableRecord)), 0u);
  // NOTE: without finish_exit pairing the hypercall recorder stores the
  // trace under "hypercall-session"; seeds counted may be 0 since
  // finalize happens per process_exit outcome only in driver loops.
  EXPECT_NE(manager_.db().behavior("hypercall-session"), nullptr);
}

TEST_F(HypercallTest, FetchSeedCopiesSerializedSeedToGuest) {
  // Build a session trace directly through the DB for a deterministic
  // fetch test.
  VmBehavior behavior;
  RecordedExit rec;
  rec.seed.reason = vtx::ExitReason::kRdtsc;
  rec.seed.items.push_back(SeedItem{SeedItemKind::kGpr, 0, 0x77});
  behavior.push_back(rec);
  manager_.db().store("hypercall-session", behavior);

  const std::uint64_t dest_gpa = 0x9000;
  const auto len = call(static_cast<std::uint64_t>(IrisCmd::kFetchSeed), 0, dest_gpa);
  ASSERT_GT(len, 0u);
  std::vector<std::uint8_t> buf(len);
  ASSERT_TRUE(hv_.copy_from_guest(*hv_.domain(0), dest_gpa, buf));
  ByteReader r(buf);
  const auto seed = VmSeed::deserialize(r);
  ASSERT_TRUE(seed.ok());
  EXPECT_EQ(seed.value().reason, vtx::ExitReason::kRdtsc);
  EXPECT_EQ(seed.value().items[0].value, 0x77u);
}

TEST_F(HypercallTest, SubmitSeedFromGuestMemory) {
  const auto& behavior = manager_.record_workload(Workload::kIdle, 20, 5);
  ByteWriter w;
  behavior[0].seed.serialize(w);
  const std::uint64_t src_gpa = 0xA000;
  ASSERT_TRUE(hv_.copy_to_guest(*hv_.domain(0), src_gpa, w.data()));
  ASSERT_EQ(call(static_cast<std::uint64_t>(IrisCmd::kEnableReplay)), 0u);
  EXPECT_EQ(call(static_cast<std::uint64_t>(IrisCmd::kSubmitSeed), src_gpa, w.size()),
            0u);
}

TEST_F(HypercallTest, MalformedCommandsReturnErrno) {
  EXPECT_EQ(static_cast<std::int64_t>(call(999)), -22);  // -EINVAL
  EXPECT_EQ(static_cast<std::int64_t>(
                call(static_cast<std::uint64_t>(IrisCmd::kFetchSeed), 0, 0)),
            -34);  // -ERANGE: no session
  // Submitting garbage bytes fails parsing.
  const std::uint64_t gpa = 0xB000;
  const std::array<std::uint8_t, 4> junk = {9, 9, 9, 9};
  ASSERT_TRUE(hv_.copy_to_guest(*hv_.domain(0), gpa, junk));
  ASSERT_EQ(call(static_cast<std::uint64_t>(IrisCmd::kEnableReplay)), 0u);
  EXPECT_EQ(static_cast<std::int64_t>(
                call(static_cast<std::uint64_t>(IrisCmd::kSubmitSeed), gpa, 4)),
            -22);
}

// --- Batched seed hand-off (§IX batching; ROADMAP "Batched seed
// hand-off"): Manager::submit_batch_into must produce outcomes
// identical to one-by-one submission, while actually amortizing the
// per-seed fetch cost across each batch.

void expect_outcomes_identical(const hv::HandleOutcome& a,
                               const hv::HandleOutcome& b, std::size_t index) {
  EXPECT_EQ(a.entered, b.entered) << "seed " << index;
  EXPECT_EQ(a.failure, b.failure) << "seed " << index;
  EXPECT_EQ(a.cause, b.cause) << "seed " << index;
  EXPECT_EQ(a.failure_reason, b.failure_reason) << "seed " << index;
  EXPECT_EQ(a.dispatched_reason, b.dispatched_reason) << "seed " << index;
  EXPECT_EQ(a.coverage.blocks, b.coverage.blocks) << "seed " << index;
  EXPECT_EQ(a.coverage.loc, b.coverage.loc) << "seed " << index;
  EXPECT_EQ(a.cycles, b.cycles) << "seed " << index;
  EXPECT_EQ(a.vmreads, b.vmreads) << "seed " << index;
  EXPECT_EQ(a.vmwrites, b.vmwrites) << "seed " << index;
  EXPECT_EQ(a.injected_vector, b.injected_vector) << "seed " << index;
}

class BatchedSubmitTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchedSubmitTest, BatchedMatchesOneByOne) {
  const std::size_t batch_size = GetParam();
  Replayer::Config config;
  config.batch_size = batch_size;

  // Two identically-constructed stacks: recording is a pure function of
  // (workload, seed), so both replay the same behavior.
  hv::Hypervisor hv_loop(13, 0.0), hv_batch(13, 0.0);
  Manager loop_manager(hv_loop), batch_manager(hv_batch);
  const VmBehavior& loop_behavior =
      loop_manager.record_workload(Workload::kCpuBound, 60, 5);
  const VmBehavior& batch_behavior =
      batch_manager.record_workload(Workload::kCpuBound, 60, 5);

  std::vector<VmSeed> seeds;
  for (const auto& rec : loop_behavior) seeds.push_back(rec.seed);

  ASSERT_TRUE(loop_manager.enable_replay(config));
  std::vector<hv::HandleOutcome> one_by_one(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    loop_manager.submit_seed_into(seeds[i], one_by_one[i]);
  }

  std::vector<VmSeed> batch_seeds;
  for (const auto& rec : batch_behavior) batch_seeds.push_back(rec.seed);
  ASSERT_TRUE(batch_manager.enable_replay(config));
  std::vector<hv::HandleOutcome> batched;
  batch_manager.submit_batch_into(batch_seeds, batched);

  ASSERT_EQ(batched.size(), one_by_one.size());
  for (std::size_t i = 0; i < one_by_one.size(); ++i) {
    expect_outcomes_identical(one_by_one[i], batched[i], i);
  }
  // Identical simulated-clock trajectories, not just identical
  // per-exit outcomes.
  EXPECT_EQ(hv_loop.clock().rdtsc(), hv_batch.clock().rdtsc());
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchedSubmitTest,
                         ::testing::Values(1u, 4u, 16u));

TEST(BatchedSubmit, BatchingAmortizesTheFetchCost) {
  auto replay_cycles = [](std::size_t batch_size) {
    hv::Hypervisor hv(13, 0.0);
    Manager manager(hv);
    const VmBehavior& behavior =
        manager.record_workload(Workload::kCpuBound, 80, 5);
    std::vector<VmSeed> seeds;
    for (const auto& rec : behavior) seeds.push_back(rec.seed);
    Replayer::Config config;
    config.batch_size = batch_size;
    EXPECT_TRUE(manager.enable_replay(config));
    const std::uint64_t t0 = hv.clock().rdtsc();
    std::vector<hv::HandleOutcome> outcomes;
    manager.submit_batch_into(seeds, outcomes);
    return hv.clock().rdtsc() - t0;
  };

  const std::uint64_t unbatched = replay_cycles(1);
  const std::uint64_t batched = replay_cycles(8);
  // 80 seeds at batch 8 pay 10 fetches instead of 80: the saving is
  // 70 * replay_seed_fetch cycles of simulated time.
  EXPECT_LT(batched, unbatched);
  EXPECT_GE(unbatched - batched, 60 * sim::CostModel{}.replay_seed_fetch);
}

}  // namespace
}  // namespace iris
