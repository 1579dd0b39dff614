// Unit tests for the VT-x substrate: field encodings, VMCS access rules,
// the VMX state machine, and the preemption timer.
#include <gtest/gtest.h>

#include "vtx/exit_reason.h"
#include "vtx/vmcs.h"
#include "vtx/vmcs_fields.h"
#include "vtx/vmx.h"

namespace iris::vtx {
namespace {

TEST(VmcsFields, EncodingBitsDeriveWidthAndType) {
  EXPECT_EQ(width_of(VmcsField::kGuestCsSelector), FieldWidth::k16);
  EXPECT_EQ(width_of(VmcsField::kEptPointer), FieldWidth::k64);
  EXPECT_EQ(width_of(VmcsField::kVmExitReason), FieldWidth::k32);
  EXPECT_EQ(width_of(VmcsField::kGuestCr0), FieldWidth::kNatural);

  EXPECT_EQ(type_of(VmcsField::kPinBasedVmExecControl), FieldType::kControl);
  EXPECT_EQ(type_of(VmcsField::kVmExitReason), FieldType::kReadOnlyData);
  EXPECT_EQ(type_of(VmcsField::kGuestCr0), FieldType::kGuestState);
  EXPECT_EQ(type_of(VmcsField::kHostCr0), FieldType::kHostState);
}

TEST(VmcsFields, ReadOnlyClassification) {
  EXPECT_TRUE(is_read_only(VmcsField::kVmExitReason));
  EXPECT_TRUE(is_read_only(VmcsField::kExitQualification));
  EXPECT_TRUE(is_read_only(VmcsField::kIoRcx));
  EXPECT_TRUE(is_read_only(VmcsField::kGuestPhysicalAddress));
  EXPECT_FALSE(is_read_only(VmcsField::kGuestCr0));
  EXPECT_FALSE(is_read_only(VmcsField::kGuestRip));
  EXPECT_FALSE(is_read_only(VmcsField::kTscOffset));
}

TEST(VmcsFields, WidthMasks) {
  EXPECT_EQ(width_mask(VmcsField::kGuestCsSelector), 0xFFFFULL);
  EXPECT_EQ(width_mask(VmcsField::kGuestCsLimit), 0xFFFFFFFFULL);
  EXPECT_EQ(width_mask(VmcsField::kGuestCr0), ~0ULL);
}

TEST(VmcsFields, CompactIndexRoundTrip) {
  for (const auto field : all_fields()) {
    const auto idx = compact_index(field);
    ASSERT_TRUE(idx.has_value());
    const auto back = field_from_compact(*idx);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, field);
  }
}

TEST(VmcsFields, CompactIndexDense) {
  EXPECT_GT(kNumVmcsFields, 100);
  EXPECT_LE(kNumVmcsFields, 256);
  EXPECT_FALSE(field_from_compact(static_cast<std::uint8_t>(kNumVmcsFields)));
}

TEST(VmcsFields, NameRoundTrip) {
  for (const auto field : all_fields()) {
    const auto name = to_string(field);
    const auto back = field_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, field);
  }
}

TEST(VmcsFields, InvalidEncodingRejected) {
  EXPECT_FALSE(is_valid_field_encoding(0x9999));
  EXPECT_TRUE(is_valid_field_encoding(0x6800));  // GUEST_CR0
}

TEST(Vmcs, VmreadVmwriteRoundTrip) {
  Vmcs vmcs;
  ASSERT_TRUE(vmcs.vmwrite(VmcsField::kGuestCr0, 0x31).succeeded());
  std::uint64_t value = 0;
  ASSERT_TRUE(vmcs.vmread(VmcsField::kGuestCr0, value).succeeded());
  EXPECT_EQ(value, 0x31u);
}

TEST(Vmcs, VmwriteToReadOnlyFieldFails) {
  Vmcs vmcs;
  const auto outcome = vmcs.vmwrite(VmcsField::kVmExitReason, 5);
  EXPECT_FALSE(outcome.succeeded());
  EXPECT_EQ(outcome.error, VmInstructionError::kVmwriteReadOnlyComponent);
  EXPECT_EQ(vmcs.last_error(), VmInstructionError::kVmwriteReadOnlyComponent);
}

TEST(Vmcs, WidthMaskingOnWrite) {
  Vmcs vmcs;
  ASSERT_TRUE(vmcs.vmwrite(VmcsField::kGuestCsSelector, 0xABCD1234).succeeded());
  EXPECT_EQ(vmcs.hw_read(VmcsField::kGuestCsSelector), 0x1234u);
}

TEST(Vmcs, HwWriteBypassesReadOnlyCheck) {
  Vmcs vmcs;
  vmcs.hw_write(VmcsField::kVmExitReason, 28);
  EXPECT_EQ(vmcs.hw_read(VmcsField::kVmExitReason), 28u);
}

TEST(Vmcs, UnwrittenFieldsReadZero) {
  const Vmcs vmcs;
  EXPECT_EQ(vmcs.hw_read(VmcsField::kGuestRip), 0u);
}

TEST(Vmcs, ClearResetsEverything) {
  Vmcs vmcs;
  ASSERT_TRUE(vmcs.vmwrite(VmcsField::kGuestCr0, 1).succeeded());
  vmcs.set_launch_state(VmcsLaunchState::kActiveCurrentLaunched);
  vmcs.clear();
  EXPECT_EQ(vmcs.hw_read(VmcsField::kGuestCr0), 0u);
  EXPECT_EQ(vmcs.launch_state(), VmcsLaunchState::kInactiveNotCurrentClear);
}

TEST(Vmcs, SnapshotRestoreRoundTrip) {
  Vmcs vmcs;
  vmcs.hw_write(VmcsField::kGuestCr0, 0x31);
  vmcs.hw_write(VmcsField::kGuestRip, 0x7C00);
  const auto snap = vmcs.snapshot_fields();
  vmcs.clear();
  vmcs.restore_fields(snap);
  EXPECT_EQ(vmcs.hw_read(VmcsField::kGuestCr0), 0x31u);
  EXPECT_EQ(vmcs.hw_read(VmcsField::kGuestRip), 0x7C00u);
}

TEST(ExitReason, DefinedReasonHoles) {
  EXPECT_TRUE(is_defined_reason(0));
  EXPECT_TRUE(is_defined_reason(28));
  EXPECT_TRUE(is_defined_reason(68));
  EXPECT_FALSE(is_defined_reason(35));
  EXPECT_FALSE(is_defined_reason(38));
  EXPECT_FALSE(is_defined_reason(42));
  EXPECT_FALSE(is_defined_reason(65));
  EXPECT_FALSE(is_defined_reason(69));
  EXPECT_FALSE(is_defined_reason(1000));
}

TEST(ExitReason, PaperLabelsRoundTrip) {
  for (const auto reason : kFigureReasons) {
    const auto label = to_string(reason);
    const auto back = exit_reason_from_string(label);
    ASSERT_TRUE(back.has_value()) << label;
    EXPECT_EQ(*back, reason);
  }
}

class VmxStateMachine : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cpu_.vmxon().succeeded());
    write_valid_guest_state();
  }

  /// A minimal valid guest state for entry checks.
  void write_valid_guest_state() {
    vmcs_.hw_write(VmcsField::kGuestCr0, kCr0Pe | kCr0Ne | kCr0Et);
    vmcs_.hw_write(VmcsField::kGuestRflags, 0x2);
    vmcs_.hw_write(VmcsField::kVmcsLinkPointer, ~0ULL);
    vmcs_.hw_write(VmcsField::kGuestCsArBytes, 0x9B);
    vmcs_.hw_write(VmcsField::kGuestTrArBytes, 0x8B);
    vmcs_.hw_write(VmcsField::kGuestSsArBytes, 0x93);
  }

  VmxCpu cpu_;
  Vmcs vmcs_;
};

TEST_F(VmxStateMachine, LifecycleFollowsFigureOne) {
  ASSERT_TRUE(cpu_.vmclear(vmcs_).succeeded());
  EXPECT_EQ(vmcs_.launch_state(), VmcsLaunchState::kInactiveNotCurrentClear);
  // VMCLEAR wiped the guest state; rebuild the minimal valid one.
  write_valid_guest_state();

  ASSERT_TRUE(cpu_.vmptrld(vmcs_).succeeded());
  EXPECT_EQ(vmcs_.launch_state(), VmcsLaunchState::kActiveCurrentClear);
  EXPECT_EQ(cpu_.current_vmcs(), &vmcs_);

  const auto entry = cpu_.vmlaunch();
  ASSERT_TRUE(entry.vmx.succeeded()) << static_cast<int>(entry.vmx.error);
  EXPECT_TRUE(entry.entered);
  EXPECT_EQ(vmcs_.launch_state(), VmcsLaunchState::kActiveCurrentLaunched);
}

TEST_F(VmxStateMachine, VmlaunchRequiresClearState) {
  ASSERT_TRUE(cpu_.vmptrld(vmcs_).succeeded());
  ASSERT_TRUE(cpu_.vmlaunch().entered);
  const auto second = cpu_.vmlaunch();
  EXPECT_FALSE(second.vmx.succeeded());
  EXPECT_EQ(second.vmx.error, VmInstructionError::kVmlaunchNonClearVmcs);
}

TEST_F(VmxStateMachine, VmresumeRequiresLaunchedState) {
  ASSERT_TRUE(cpu_.vmptrld(vmcs_).succeeded());
  const auto premature = cpu_.vmresume();
  EXPECT_FALSE(premature.vmx.succeeded());
  EXPECT_EQ(premature.vmx.error, VmInstructionError::kVmresumeNonLaunchedVmcs);

  ASSERT_TRUE(cpu_.vmlaunch().entered);
  EXPECT_TRUE(cpu_.vmresume().entered);
}

TEST_F(VmxStateMachine, InstructionsFailOutsideVmxOperation) {
  VmxCpu off;
  EXPECT_FALSE(off.vmclear(vmcs_).succeeded());
  EXPECT_FALSE(off.vmptrld(vmcs_).succeeded());
  EXPECT_FALSE(off.vmlaunch().vmx.succeeded());
}

TEST_F(VmxStateMachine, VmxoffForgetsCurrentVmcs) {
  ASSERT_TRUE(cpu_.vmptrld(vmcs_).succeeded());
  ASSERT_TRUE(cpu_.vmxoff().succeeded());
  EXPECT_EQ(cpu_.current_vmcs(), nullptr);
  EXPECT_FALSE(cpu_.in_vmx_operation());
}

TEST_F(VmxStateMachine, EntryFailsOnInvalidGuestState) {
  ASSERT_TRUE(cpu_.vmptrld(vmcs_).succeeded());
  vmcs_.hw_write(VmcsField::kGuestRflags, 0x0);  // bit 1 must be 1
  const auto entry = cpu_.vmlaunch();
  EXPECT_TRUE(entry.vmx.succeeded());
  EXPECT_FALSE(entry.entered);
  EXPECT_TRUE(entry.failed_guest_state_checks());
  // The latched exit reason carries the entry-failure flag (bit 31).
  EXPECT_EQ(vmcs_.hw_read(VmcsField::kVmExitReason),
            (1ULL << 31) | static_cast<std::uint64_t>(ExitReason::kInvalidGuestState));
}

TEST_F(VmxStateMachine, ZeroPreemptionTimerFiresAtEntry) {
  ASSERT_TRUE(cpu_.vmptrld(vmcs_).succeeded());
  vmcs_.hw_write(VmcsField::kPinBasedVmExecControl, kPinActivatePreemptionTimer);
  vmcs_.hw_write(VmcsField::kPreemptionTimerValue, 0);
  const auto entry = cpu_.vmlaunch();
  ASSERT_TRUE(entry.entered);
  EXPECT_TRUE(entry.preemption_timer_fired);
}

TEST_F(VmxStateMachine, NonzeroPreemptionTimerDoesNotFire) {
  ASSERT_TRUE(cpu_.vmptrld(vmcs_).succeeded());
  vmcs_.hw_write(VmcsField::kPinBasedVmExecControl, kPinActivatePreemptionTimer);
  vmcs_.hw_write(VmcsField::kPreemptionTimerValue, 1000);
  const auto entry = cpu_.vmlaunch();
  ASSERT_TRUE(entry.entered);
  EXPECT_FALSE(entry.preemption_timer_fired);
}

TEST_F(VmxStateMachine, TimerInactiveWithoutPinControl) {
  ASSERT_TRUE(cpu_.vmptrld(vmcs_).succeeded());
  vmcs_.hw_write(VmcsField::kPreemptionTimerValue, 0);
  const auto entry = cpu_.vmlaunch();
  ASSERT_TRUE(entry.entered);
  EXPECT_FALSE(entry.preemption_timer_fired);
}

TEST_F(VmxStateMachine, DeliverExitLatchesExitInformation) {
  ASSERT_TRUE(cpu_.vmptrld(vmcs_).succeeded());
  cpu_.deliver_exit(ExitReason::kIoInstruction, 0x1234, 2, 0, 0xFEE00000);
  EXPECT_EQ(vmcs_.hw_read(VmcsField::kVmExitReason),
            static_cast<std::uint64_t>(ExitReason::kIoInstruction));
  EXPECT_EQ(vmcs_.hw_read(VmcsField::kExitQualification), 0x1234u);
  EXPECT_EQ(vmcs_.hw_read(VmcsField::kVmExitInstructionLen), 2u);
  EXPECT_EQ(vmcs_.hw_read(VmcsField::kGuestPhysicalAddress), 0xFEE00000u);
}

}  // namespace
}  // namespace iris::vtx
