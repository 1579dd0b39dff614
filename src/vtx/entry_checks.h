// VM-entry checks on the guest-state area (SDM Vol. 3, §26.3 subset).
//
// The paper's replay loop deliberately routes every injected seed through
// a real VM entry precisely because these checks run there (§IV-B): they
// are what keeps a submitted VM seed "semantically correct". A failed
// check makes VM entry fail with exit reason 33 (VM-entry failure due to
// invalid guest state) instead of entering the guest — the same signal
// the PoC fuzzer uses to classify VMCS-corruption outcomes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vtx/capability_profile.h"
#include "vtx/vmcs.h"

namespace iris::vtx {

/// One failed consistency check.
struct EntryCheckViolation {
  /// SDM-style identifier, e.g. "CR0.PG=1 requires CR0.PE=1".
  std::string rule;
  /// Field whose value triggered the violation.
  VmcsField field;
  /// Offending value.
  std::uint64_t value;
};

/// Guest activity states (SDM 24.4.2).
inline constexpr std::uint64_t kActivityActive = 0;
inline constexpr std::uint64_t kActivityHlt = 1;
inline constexpr std::uint64_t kActivityShutdown = 2;
inline constexpr std::uint64_t kActivityWaitSipi = 3;

// CR0 bits (SDM 2.5).
inline constexpr std::uint64_t kCr0Pe = 1ULL << 0;
inline constexpr std::uint64_t kCr0Mp = 1ULL << 1;
inline constexpr std::uint64_t kCr0Em = 1ULL << 2;
inline constexpr std::uint64_t kCr0Ts = 1ULL << 3;
inline constexpr std::uint64_t kCr0Et = 1ULL << 4;
inline constexpr std::uint64_t kCr0Ne = 1ULL << 5;
inline constexpr std::uint64_t kCr0Wp = 1ULL << 16;
inline constexpr std::uint64_t kCr0Am = 1ULL << 18;
inline constexpr std::uint64_t kCr0Nw = 1ULL << 29;
inline constexpr std::uint64_t kCr0Cd = 1ULL << 30;
inline constexpr std::uint64_t kCr0Pg = 1ULL << 31;

// CR4 bits.
inline constexpr std::uint64_t kCr4Pae = 1ULL << 5;
inline constexpr std::uint64_t kCr4Pge = 1ULL << 7;
inline constexpr std::uint64_t kCr4Vmxe = 1ULL << 13;

// RFLAGS bits.
inline constexpr std::uint64_t kRflagsReserved1 = 1ULL << 1;  // must be 1
inline constexpr std::uint64_t kRflagsIf = 1ULL << 9;
inline constexpr std::uint64_t kRflagsVm = 1ULL << 17;

// Interruptibility-state bits (SDM 24.4.2).
inline constexpr std::uint64_t kIntrBlockingBySti = 1ULL << 0;
inline constexpr std::uint64_t kIntrBlockingByMovSs = 1ULL << 1;

/// EFER bits mirrored in GUEST_IA32_EFER.
inline constexpr std::uint64_t kEferLme = 1ULL << 8;
inline constexpr std::uint64_t kEferLma = 1ULL << 10;

/// Every VMCS field the modeled entry checks read, gathered once. The
/// checks below read only this struct, so their verdict is a pure
/// function of it and the capability profile — which is what lets
/// VmxCpu memoize a passing verdict keyed on exactly these values.
struct EntryCheckInputs {
  // VM-execution, VM-exit and VM-entry control words (SDM 26.2.1).
  std::uint64_t pin_based = 0;
  std::uint64_t proc_based = 0;
  std::uint64_t proc_based2 = 0;
  std::uint64_t vm_exit = 0;
  std::uint64_t vm_entry = 0;
  // Guest-state area (SDM 26.3.1).
  std::uint64_t cr0 = 0;
  std::uint64_t cr3 = 0;
  std::uint64_t cr4 = 0;
  std::uint64_t efer = 0;
  std::uint64_t rflags = 0;
  std::uint64_t rip = 0;
  std::uint64_t entry_intr_info = 0;
  std::uint64_t cs_selector = 0;
  std::uint64_t cs_ar = 0;
  std::uint64_t ss_selector = 0;
  std::uint64_t ss_ar = 0;
  std::uint64_t tr_selector = 0;
  std::uint64_t tr_ar = 0;
  std::uint64_t gdtr_base = 0;
  std::uint64_t idtr_base = 0;
  std::uint64_t activity = 0;
  std::uint64_t interruptibility = 0;
  std::uint64_t link_pointer = 0;

  friend bool operator==(const EntryCheckInputs&, const EntryCheckInputs&) = default;
};

/// Read the entry-check inputs out of `vmcs` (hardware reads, no hooks).
[[nodiscard]] EntryCheckInputs gather_entry_check_inputs(const Vmcs& vmcs) noexcept;

/// Run the modeled subset of the SDM 26.3 guest-state checks, validating
/// CR0/CR4 fixed bits and the activity state against `profile`. Empty
/// result means the entry may proceed. Pure: no failpoint site.
[[nodiscard]] std::vector<EntryCheckViolation> check_guest_state(
    const EntryCheckInputs& in, const VmxCapabilityProfile& profile);

/// The same checks against the current VMCS contents. Evaluates the
/// `model_vmentry` failpoint site first, then gathers and forwards.
[[nodiscard]] std::vector<EntryCheckViolation> check_guest_state(
    const Vmcs& vmcs, const VmxCapabilityProfile& profile);

/// Baseline-profile convenience overload (the pre-profile behavior).
[[nodiscard]] std::vector<EntryCheckViolation> check_guest_state(const Vmcs& vmcs);

/// SDM 26.2.1 subset: validate the five VM-execution/entry/exit control
/// words against the profile's allowed-0/allowed-1 pairs. On real
/// hardware a violation is VMfailValid error 7 ("VM entry with invalid
/// control fields"); the model folds it into the entry-failure path so
/// triage sees per-rule violations like the guest-state checks.
/// Secondary controls are validated only when the primary control
/// activates them, as on hardware.
[[nodiscard]] std::vector<EntryCheckViolation> check_control_fields(
    const EntryCheckInputs& in, const VmxCapabilityProfile& profile);

/// The same checks against the current VMCS contents.
[[nodiscard]] std::vector<EntryCheckViolation> check_control_fields(
    const Vmcs& vmcs, const VmxCapabilityProfile& profile);

/// Human-readable one-line rendering (Xen-log style) of a violation set.
[[nodiscard]] std::string describe(const std::vector<EntryCheckViolation>& violations);

}  // namespace iris::vtx
