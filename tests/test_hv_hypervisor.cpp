// Pipeline-level tests for the hypervisor: launch sequence, the exit ->
// handler -> entry flow, instrumentation seams, hang watchdog, guest
// memory accessors, and the async-noise model.
#include <gtest/gtest.h>

#include <array>

#include "guest/guest_ops.h"
#include "hv/hypervisor.h"
#include "vtx/entry_checks.h"

namespace iris::hv {
namespace {

using guest::make_cpuid;
using guest::make_rdtsc;
using vtx::ExitReason;
using vtx::VmcsField;

class HypervisorTest : public ::testing::Test {
 protected:
  HypervisorTest() : hv_(1, 0.0) {
    dom_ = &hv_.create_domain(DomainRole::kTest);
    EXPECT_TRUE(hv_.launch(*dom_));
    vcpu_ = &dom_->vcpu();
  }

  Hypervisor hv_;
  Domain* dom_ = nullptr;
  HvVcpu* vcpu_ = nullptr;
};

TEST_F(HypervisorTest, Dom0ExistsImplicitly) {
  ASSERT_NE(hv_.domain(0), nullptr);
  EXPECT_EQ(hv_.domain(0)->role(), DomainRole::kControl);
}

TEST_F(HypervisorTest, LaunchPutsVmcsInLaunchedState) {
  EXPECT_EQ(vcpu_->vmcs.launch_state(), vtx::VmcsLaunchState::kActiveCurrentLaunched);
  EXPECT_TRUE(vcpu_->in_guest);
  EXPECT_EQ(vcpu_->mode_cache, vcpu::CpuMode::kMode1);  // real mode at reset
}

TEST_F(HypervisorTest, ProcessExitRoundTrip) {
  const auto outcome = hv_.process_exit(*dom_, *vcpu_, make_cpuid(*vcpu_, 0));
  EXPECT_TRUE(outcome.entered);
  EXPECT_EQ(outcome.failure, FailureKind::kNone);
  EXPECT_EQ(outcome.dispatched_reason, ExitReason::kCpuid);
  EXPECT_GT(outcome.coverage.loc, 0u);
  EXPECT_GT(outcome.cycles, 0u);
  EXPECT_GT(outcome.vmreads, 0u);
  EXPECT_TRUE(vcpu_->in_guest);
}

TEST_F(HypervisorTest, GprsRoundTripThroughHypervisorStructs) {
  vcpu_->regs.write(vcpu::Gpr::kR9, 0x1234);
  hv_.process_exit(*dom_, *vcpu_, make_rdtsc(*vcpu_));
  // R9 was saved to the hypervisor block and restored at entry.
  EXPECT_EQ(vcpu_->regs.read(vcpu::Gpr::kR9), 0x1234u);
}

TEST_F(HypervisorTest, VmreadHookObservesDispatch) {
  std::vector<VmcsField> reads;
  hv_.hooks().on_vmread = [&reads](VmcsField f, std::uint64_t) {
    reads.push_back(f);
  };
  hv_.process_exit(*dom_, *vcpu_, make_cpuid(*vcpu_, 0));
  // The dispatcher's first read is the exit reason.
  ASSERT_FALSE(reads.empty());
  EXPECT_EQ(reads.front(), VmcsField::kVmExitReason);
}

TEST_F(HypervisorTest, VmreadOverrideRedirectsDispatch) {
  // Interposing the exit reason makes the dispatcher run a different
  // handler — the core of IRIS replay (§V-B).
  std::array<std::uint64_t, vtx::kNumVmcsFields> value{};
  std::array<std::uint32_t, vtx::kNumVmcsFields> gen{};
  const std::uint32_t live = 1;
  const int idx =
      vtx::compact_from_encoding(static_cast<std::uint16_t>(VmcsField::kVmExitReason));
  value[static_cast<std::size_t>(idx)] = static_cast<std::uint64_t>(ExitReason::kRdtsc);
  gen[static_cast<std::size_t>(idx)] = live;
  hv_.hooks().read_overlay = {value.data(), gen.data(), &live};
  PendingExit exit;
  exit.reason = ExitReason::kPreemptionTimer;
  const auto outcome = hv_.process_exit(*dom_, *vcpu_, exit);
  EXPECT_EQ(outcome.dispatched_reason, ExitReason::kRdtsc);
}

TEST_F(HypervisorTest, VmwriteHookSeesHandlerWrites) {
  std::vector<std::pair<VmcsField, std::uint64_t>> writes;
  hv_.hooks().on_vmwrite = [&writes](VmcsField f, std::uint64_t v) {
    writes.emplace_back(f, v);
  };
  hv_.process_exit(*dom_, *vcpu_, make_cpuid(*vcpu_, 0));
  // advance_rip writes GUEST_RIP.
  const bool wrote_rip =
      std::any_of(writes.begin(), writes.end(),
                  [](const auto& w) { return w.first == VmcsField::kGuestRip; });
  EXPECT_TRUE(wrote_rip);
}

TEST_F(HypervisorTest, ExitStartHookRunsBeforeDispatch) {
  bool start_before_read = false;
  bool started = false;
  hv_.hooks().on_exit_start = [&started](HvVcpu&) { started = true; };
  hv_.hooks().on_vmread = [&](VmcsField, std::uint64_t) {
    if (!start_before_read) start_before_read = started;
  };
  hv_.process_exit(*dom_, *vcpu_, make_cpuid(*vcpu_, 0));
  EXPECT_TRUE(start_before_read);
}

TEST_F(HypervisorTest, CyclesIncludeFixedRootOverhead) {
  const auto outcome = hv_.process_exit(*dom_, *vcpu_, make_rdtsc(*vcpu_));
  EXPECT_GE(outcome.cycles, hv_.costs().root_fixed_overhead);
  // And the bare round trip lands near the calibrated ideal target.
  EXPECT_LT(outcome.cycles, 2 * hv_.costs().preemption_round_trip);
}

TEST_F(HypervisorTest, DeadDomainRejectsFurtherExits) {
  hv_.failures().vm_crash(dom_->id(), 0, "test kill");
  const auto outcome = hv_.process_exit(*dom_, *vcpu_, make_rdtsc(*vcpu_));
  EXPECT_EQ(outcome.failure, FailureKind::kVmCrash);
  EXPECT_FALSE(outcome.entered);
}

TEST_F(HypervisorTest, DownedHostRejectsEverything) {
  hv_.failures().hypervisor_crash(0, "test panic");
  const auto outcome = hv_.process_exit(*dom_, *vcpu_, make_rdtsc(*vcpu_));
  EXPECT_EQ(outcome.failure, FailureKind::kHypervisorCrash);
}

TEST_F(HypervisorTest, CorruptedGuestStateFailsEntry) {
  // The handler path leaves RFLAGS bit 1 cleared -> SDM 26.3 rejects the
  // entry and the domain is crashed (the fuzzer's VM-crash source).
  vcpu_->regs.rflags = 0;
  const auto outcome = hv_.process_exit(*dom_, *vcpu_, make_rdtsc(*vcpu_));
  EXPECT_EQ(outcome.failure, FailureKind::kVmCrash);
  EXPECT_NE(outcome.failure_reason.find("RFLAGS"), std::string::npos);
}

TEST_F(HypervisorTest, NoEntryLoopTripsHangWatchdog) {
  hv_.set_hang_threshold(16);
  PendingExit exit;
  exit.reason = ExitReason::kRdtsc;
  HandleOutcome last;
  for (int i = 0; i < 16; ++i) {
    last = hv_.process_exit_no_entry(*dom_, *vcpu_, exit);
  }
  EXPECT_EQ(last.failure, FailureKind::kHypervisorHang);
  EXPECT_TRUE(hv_.failures().host_is_down());
  EXPECT_TRUE(hv_.log().contains("stuck in VMX root"));
}

TEST_F(HypervisorTest, SuccessfulEntryResetsHangStreak) {
  hv_.set_hang_threshold(8);
  PendingExit exit;
  exit.reason = ExitReason::kRdtsc;
  for (int i = 0; i < 6; ++i) hv_.process_exit_no_entry(*dom_, *vcpu_, exit);
  hv_.process_exit(*dom_, *vcpu_, make_rdtsc(*vcpu_));  // real entry
  EXPECT_EQ(vcpu_->root_mode_streak, 0u);
  for (int i = 0; i < 6; ++i) {
    const auto o = hv_.process_exit_no_entry(*dom_, *vcpu_, exit);
    EXPECT_EQ(o.failure, FailureKind::kNone) << i;
  }
}

TEST_F(HypervisorTest, AsyncNoisePerturbsCoverage) {
  Hypervisor noisy(/*noise_seed=*/7, /*async_noise_prob=*/1.0);
  Domain& dom = noisy.create_domain(DomainRole::kTest);
  ASSERT_TRUE(noisy.launch(dom));
  const auto outcome = noisy.process_exit(dom, dom.vcpu(), make_rdtsc(dom.vcpu()));
  // With noise forced on, intr.c blocks from the async event appear.
  EXPECT_GT(outcome.coverage.loc_in(noisy.coverage(), Component::kIntr), 0u);
}

TEST_F(HypervisorTest, CopyToFromGuestRoundTrip) {
  const std::array<std::uint8_t, 4> data = {9, 8, 7, 6};
  ASSERT_TRUE(hv_.copy_to_guest(*dom_, 0x5000, data));
  std::array<std::uint8_t, 4> back{};
  ASSERT_TRUE(hv_.copy_from_guest(*dom_, 0x5000, back));
  EXPECT_EQ(back, data);
}

TEST_F(HypervisorTest, DomainSnapshotRestoreRoundTrip) {
  vcpu_->regs.write(vcpu::Gpr::kRax, 0x42);
  hv_.copy_to_guest(*dom_, 0x1000, std::array<std::uint8_t, 1>{0xAA});
  hv_.process_exit(*dom_, *vcpu_, make_cpuid(*vcpu_, 1));  // mutates RAX etc.
  const auto snap = dom_->snapshot();

  hv_.process_exit(*dom_, *vcpu_, make_cpuid(*vcpu_, 0));
  hv_.copy_to_guest(*dom_, 0x1000, std::array<std::uint8_t, 1>{0xBB});
  dom_->restore(snap);

  std::array<std::uint8_t, 1> byte{};
  hv_.copy_from_guest(*dom_, 0x1000, byte);
  EXPECT_EQ(byte[0], 0xAA);
  EXPECT_EQ(vcpu_->vmcs.hw_read(VmcsField::kGuestRip),
            snap.vmcs_fields.at(*vtx::compact_index(VmcsField::kGuestRip)));
}

TEST_F(HypervisorTest, InterruptInjectionAtEntry) {
  vcpu_->regs.rflags |= vtx::kRflagsIf;
  dom_->irq().assert_vector(0x31, hv_.coverage());
  const auto outcome = hv_.process_exit(*dom_, *vcpu_, make_rdtsc(*vcpu_));
  ASSERT_TRUE(outcome.entered);
  EXPECT_EQ(outcome.injected_vector.value_or(0), 0x31);
  // The injection field is consumed by the entry.
  EXPECT_EQ(vcpu_->vmcs.hw_read(VmcsField::kVmEntryIntrInfoField), 0u);
}

TEST_F(HypervisorTest, BlockedInterruptArmsWindowExiting) {
  vcpu_->regs.rflags &= ~vtx::kRflagsIf;  // uninterruptible
  dom_->irq().assert_vector(0x31, hv_.coverage());
  const auto outcome = hv_.process_exit(*dom_, *vcpu_, make_rdtsc(*vcpu_));
  ASSERT_TRUE(outcome.entered);
  EXPECT_FALSE(outcome.injected_vector.has_value());
  EXPECT_TRUE(vcpu_->vmcs.hw_read(VmcsField::kCpuBasedVmExecControl) & (1ULL << 2));
}

TEST_F(HypervisorTest, EntryFailureReasonCarriesFlag) {
  PendingExit exit;
  exit.reason = ExitReason::kCpuid;
  // Corrupt guest state mid-flight via the exit-start seam, as a
  // VMCS-mutating fuzzer would.
  hv_.hooks().on_exit_start = [](HvVcpu& v) {
    v.vmcs.hw_write(VmcsField::kVmcsLinkPointer, 0x1234);
  };
  const auto outcome = hv_.process_exit(*dom_, *vcpu_, exit);
  EXPECT_EQ(outcome.failure, FailureKind::kVmCrash);
  EXPECT_NE(outcome.failure_reason.find("link pointer"), std::string::npos);
}

}  // namespace
}  // namespace iris::hv
