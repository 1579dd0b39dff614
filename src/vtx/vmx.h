// VMX logical-processor state machine.
//
// Models the operating-mode side of Intel VT-x (SDM Vol. 3, Ch. 23-26):
// VMXON/VMXOFF, the current-VMCS pointer, and the VMCLEAR / VMPTRLD /
// VMLAUNCH / VMRESUME instructions with their architectural launch-state
// rules (Fig 1 in the paper). VM entry runs the §26.3 guest-state checks;
// a failure produces "VM-entry failure due to invalid guest state"
// (basic exit reason 33) rather than entering the guest. A passing
// verdict is memoized on the gathered check inputs (see VmxCpu).
//
// The VMX-preemption timer (SDM 25.5.1) is modeled here because it is the
// core of the IRIS replay loop: with the pin-based "activate
// VMX-preemption timer" control set and a timer value of zero, the CPU
// exits with reason 52 before the guest retires a single instruction.
#pragma once

#include <cstdint>
#include <vector>

#include "vtx/entry_checks.h"
#include "vtx/exit_reason.h"
#include "vtx/vmcs.h"

namespace iris::vtx {

/// Pin-based execution control bits (SDM 24.6.1).
inline constexpr std::uint64_t kPinExternalInterruptExiting = 1ULL << 0;
inline constexpr std::uint64_t kPinNmiExiting = 1ULL << 3;
inline constexpr std::uint64_t kPinActivatePreemptionTimer = 1ULL << 6;

/// Primary processor-based execution control bits (SDM 24.6.2), the
/// subset the modeled hypervisor programs.
inline constexpr std::uint64_t kCpuHltExiting = 1ULL << 7;
inline constexpr std::uint64_t kCpuInvlpgExiting = 1ULL << 9;
inline constexpr std::uint64_t kCpuRdtscExiting = 1ULL << 12;
inline constexpr std::uint64_t kCpuCr3LoadExiting = 1ULL << 15;
inline constexpr std::uint64_t kCpuCr3StoreExiting = 1ULL << 16;
inline constexpr std::uint64_t kCpuUseTprShadow = 1ULL << 21;
inline constexpr std::uint64_t kCpuUseIoBitmaps = 1ULL << 25;
inline constexpr std::uint64_t kCpuUseMsrBitmaps = 1ULL << 28;
inline constexpr std::uint64_t kCpuSecondaryControls = 1ULL << 31;

/// Secondary processor-based controls (SDM 24.6.2 table 24-7 subset).
inline constexpr std::uint64_t kCpu2VirtualizeApicAccesses = 1ULL << 0;
inline constexpr std::uint64_t kCpu2EnableEpt = 1ULL << 1;
inline constexpr std::uint64_t kCpu2UnrestrictedGuest = 1ULL << 7;

/// Result of a VM-entry attempt (VMLAUNCH/VMRESUME).
struct EntryResult {
  /// VMfail* outcome of the instruction itself (state-machine rules).
  VmxOutcome vmx = VmxOutcome::success();
  /// True if control transferred to the guest (possibly to be pulled
  /// straight back by the preemption timer).
  bool entered = false;
  /// Non-empty when entry failed the §26.3 checks (exit reason 33).
  std::vector<EntryCheckViolation> violations;
  /// True if the zero-valued preemption timer fired at entry, i.e. the
  /// next observable event is a reason-52 VM exit with no guest progress.
  bool preemption_timer_fired = false;

  [[nodiscard]] bool failed_guest_state_checks() const noexcept {
    return !violations.empty();
  }
};

class VmxCpu {
 public:
  /// VMXON: enables VMX root operation. Idempotence is a VMfail.
  [[nodiscard]] VmxOutcome vmxon();
  /// VMXOFF: leaves VMX operation, forgetting the current VMCS.
  [[nodiscard]] VmxOutcome vmxoff();

  /// VMCLEAR: resets the VMCS data and launch state, and un-currents it
  /// if it was the current VMCS (SDM 30.2 VMCLEAR).
  [[nodiscard]] VmxOutcome vmclear(Vmcs& vmcs);

  /// VMPTRLD: makes `vmcs` current and active.
  [[nodiscard]] VmxOutcome vmptrld(Vmcs& vmcs);

  /// VMLAUNCH: requires the current VMCS to be in the Clear state.
  [[nodiscard]] EntryResult vmlaunch();

  /// VMRESUME: requires the current VMCS to be in the Launched state.
  [[nodiscard]] EntryResult vmresume();

  /// VM-exit microcode: latches the exit reason and collateral into the
  /// read-only exit-information area of the current VMCS (SDM 27.2).
  /// `instruction_len` applies to fault-like instruction exits.
  void deliver_exit(ExitReason reason, std::uint64_t qualification = 0,
                    std::uint64_t instruction_len = 0, std::uint64_t intr_info = 0,
                    std::uint64_t guest_physical = 0);

  [[nodiscard]] bool in_vmx_operation() const noexcept { return vmxon_; }
  [[nodiscard]] Vmcs* current_vmcs() noexcept { return current_; }
  [[nodiscard]] const Vmcs* current_vmcs() const noexcept { return current_; }

  /// Select the modeled CPU's capability profile (the IA32_VMX_* MSR
  /// contents). VM entry validates control fields and CR0/CR4 fixed
  /// bits against it. `profile` must outlive the VmxCpu and must not
  /// change while selected — library profiles are immutable statics, so
  /// pass those. Clears the entry-check memo.
  void set_capability_profile(const VmxCapabilityProfile& profile) noexcept {
    profile_ = &profile;
    passed_profile_ = nullptr;
  }
  [[nodiscard]] const VmxCapabilityProfile& capability_profile() const noexcept {
    return profile_ != nullptr ? *profile_ : baseline_profile();
  }

 private:
  EntryResult enter(bool launch);

  bool vmxon_ = false;
  Vmcs* current_ = nullptr;
  const VmxCapabilityProfile* profile_ = nullptr;
  /// Entry-check memo: the last inputs that passed both check families
  /// and the profile they passed under (null = empty). The verdict is a
  /// pure function of the two, so an entry with equal inputs under the
  /// same profile passes without re-running the checks. Only passing
  /// verdicts are kept; a failure always runs the full checks.
  EntryCheckInputs passed_inputs_{};
  const VmxCapabilityProfile* passed_profile_ = nullptr;
};

}  // namespace iris::vtx
