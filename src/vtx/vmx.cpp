#include "vtx/vmx.h"

#include "support/model_fault.h"

namespace iris::vtx {

VmxOutcome VmxCpu::vmxon() {
  if (vmxon_) {
    return VmxOutcome::fail(VmInstructionError::kVmclearWithVmxonPointer);
  }
  vmxon_ = true;
  current_ = nullptr;
  return VmxOutcome::success();
}

VmxOutcome VmxCpu::vmxoff() {
  if (!vmxon_) {
    return VmxOutcome::fail(VmInstructionError::kVmxInstructionWithInvalidCurrentVmcs);
  }
  vmxon_ = false;
  current_ = nullptr;
  return VmxOutcome::success();
}

VmxOutcome VmxCpu::vmclear(Vmcs& vmcs) {
  if (!vmxon_) {
    return VmxOutcome::fail(VmInstructionError::kVmxInstructionWithInvalidCurrentVmcs);
  }
  vmcs.clear();
  if (current_ == &vmcs) {
    current_ = nullptr;  // VMCLEAR of the current VMCS un-currents it
  }
  return VmxOutcome::success();
}

VmxOutcome VmxCpu::vmptrld(Vmcs& vmcs) {
  if (!vmxon_) {
    return VmxOutcome::fail(VmInstructionError::kVmxInstructionWithInvalidCurrentVmcs);
  }
  current_ = &vmcs;
  if (vmcs.launch_state() == VmcsLaunchState::kInactiveNotCurrentClear) {
    vmcs.set_launch_state(VmcsLaunchState::kActiveCurrentClear);
  }
  return VmxOutcome::success();
}

EntryResult VmxCpu::enter(bool launch) {
  EntryResult result;
  if (!vmxon_ || current_ == nullptr) {
    result.vmx =
        VmxOutcome::fail(VmInstructionError::kVmxInstructionWithInvalidCurrentVmcs);
    return result;
  }
  if (launch && current_->launch_state() != VmcsLaunchState::kActiveCurrentClear) {
    result.vmx = VmxOutcome::fail(VmInstructionError::kVmlaunchNonClearVmcs);
    return result;
  }
  if (!launch && current_->launch_state() != VmcsLaunchState::kActiveCurrentLaunched) {
    result.vmx = VmxOutcome::fail(VmInstructionError::kVmresumeNonLaunchedVmcs);
    return result;
  }

  // SDM 26.2 ordering: control-field validation against the capability
  // profile runs before the guest-state checks. Real hardware reports a
  // control violation as VMfailValid error 7; the model folds both
  // families into one entry-failure signal so triage sees the per-rule
  // violations either way (the baseline profile accepts every control
  // word, keeping this path unreachable pre-profile).
  //
  // The replay loop re-enters an unchanged VMCS most of the time, so a
  // passing verdict is memoized: equal inputs under the same profile
  // skip both check families. The guest-state walker's failpoint site
  // still fires once per entry whose control checks pass, hit or miss.
  const VmxCapabilityProfile& profile = capability_profile();
  const EntryCheckInputs inputs = gather_entry_check_inputs(*current_);
  const bool memo_hit = passed_profile_ == &profile && inputs == passed_inputs_;
  if (!memo_hit) result.violations = check_control_fields(inputs, profile);
  if (result.violations.empty()) {
    support::modelfault::check_site("model_vmentry",
                                    support::modelfault::Layer::kVmEntry);
    if (!memo_hit) result.violations = check_guest_state(inputs, profile);
  }
  if (!result.violations.empty()) {
    // Entry fails after the instruction succeeds: the CPU reports a
    // reason-33 exit with the "entry failure" bit (31) set (SDM 26.7).
    deliver_exit(ExitReason::kInvalidGuestState);
    current_->hw_write(VmcsField::kVmExitReason,
                       (1ULL << 31) | static_cast<std::uint64_t>(
                                          ExitReason::kInvalidGuestState));
    return result;
  }
  if (!memo_hit) {
    passed_inputs_ = inputs;
    passed_profile_ = &profile;
  }

  if (launch) {
    current_->set_launch_state(VmcsLaunchState::kActiveCurrentLaunched);
  }
  result.entered = true;

  const std::uint64_t pin = current_->hw_read(VmcsField::kPinBasedVmExecControl);
  if (pin & kPinActivatePreemptionTimer) {
    const std::uint64_t timer = current_->hw_read(VmcsField::kPreemptionTimerValue);
    if (timer == 0) {
      // SDM 25.5.1: a zero-valued timer expires before any guest
      // instruction retires — the IRIS replay loop's exit source.
      result.preemption_timer_fired = true;
    }
  }
  return result;
}

EntryResult VmxCpu::vmlaunch() { return enter(/*launch=*/true); }

EntryResult VmxCpu::vmresume() { return enter(/*launch=*/false); }

void VmxCpu::deliver_exit(ExitReason reason, std::uint64_t qualification,
                          std::uint64_t instruction_len, std::uint64_t intr_info,
                          std::uint64_t guest_physical) {
  if (current_ == nullptr) return;
  current_->hw_write(VmcsField::kVmExitReason, static_cast<std::uint64_t>(reason));
  current_->hw_write(VmcsField::kExitQualification, qualification);
  current_->hw_write(VmcsField::kVmExitInstructionLen, instruction_len);
  current_->hw_write(VmcsField::kVmExitIntrInfo, intr_info);
  current_->hw_write(VmcsField::kGuestPhysicalAddress, guest_physical);
}

}  // namespace iris::vtx
