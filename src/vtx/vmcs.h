// Software model of the Virtual Machine Control Structure.
//
// The VMCS is the central data structure of Intel VT-x (SDM Vol. 3,
// Ch. 24): a per-vCPU region holding guest state, host state, execution
// controls, and VM-exit information. Except for its first eight bytes it
// must be accessed through VMREAD/VMWRITE (SDM 24.11.1) — the model
// enforces exactly that: typed field storage, access-type checking, and
// the architectural VMfail error codes.
//
// IRIS instruments Xen's vmread()/vmwrite() wrappers, not the VMCS
// itself (paper §V-A/§V-B): those seams live in hv::HandlerContext and
// hv::InstrumentationHooks, one level above this model.
#pragma once

#include <array>
#include <cstdint>

#include "support/model_fault.h"
#include "vtx/vmcs_fields.h"

namespace iris::vtx {

/// Architectural VM-instruction error numbers (SDM 30.4), the subset the
/// model can raise.
enum class VmInstructionError : std::uint32_t {
  kNone = 0,
  kVmclearWithVmxonPointer = 3,
  kVmlaunchNonClearVmcs = 4,
  kVmresumeNonLaunchedVmcs = 5,
  kEntryInvalidControlFields = 7,
  kEntryInvalidHostState = 8,
  kUnsupportedVmcsComponent = 12,
  kVmwriteReadOnlyComponent = 13,
  kVmxInstructionWithInvalidCurrentVmcs = 15,
};

/// Outcome of a VMX instruction: VMsucceed, or VMfailValid with an error
/// number latched in the VM_INSTRUCTION_ERROR field (SDM 30.2).
struct VmxOutcome {
  VmInstructionError error = VmInstructionError::kNone;

  [[nodiscard]] bool succeeded() const noexcept {
    return error == VmInstructionError::kNone;
  }
  static VmxOutcome success() noexcept { return {}; }
  static VmxOutcome fail(VmInstructionError e) noexcept { return {e}; }
};

/// Hardware-internal VMCS launch state (SDM 24.1; Fig 1 in the paper).
enum class VmcsLaunchState : std::uint8_t {
  kInactiveNotCurrentClear,  ///< after VMCLEAR, before VMPTRLD
  kActiveCurrentClear,       ///< after VMPTRLD, before VMLAUNCH
  kActiveCurrentLaunched,    ///< after a successful VMLAUNCH
};

[[nodiscard]] std::string_view to_string(VmcsLaunchState s) noexcept;

class Vmcs {
 public:
  Vmcs() = default;

  /// VMREAD: fails on unmodeled encodings (error 12).
  [[nodiscard]] VmxOutcome vmread(VmcsField field, std::uint64_t& out) const;

  /// VMWRITE: fails on unmodeled encodings (12) and on read-only fields
  /// (13). Values are masked to the architectural field width.
  [[nodiscard]] VmxOutcome vmwrite(VmcsField field, std::uint64_t value);

  /// Hardware-internal write that bypasses access-type checks — used by
  /// the VM-exit microcode to latch exit-information fields, which are
  /// read-only to software (SDM 27.2). Inline: the guest-state sync
  /// runs dozens of these per exit.
  void hw_write(VmcsField field, std::uint64_t value) noexcept {
    // Model-fault site. Unarmed this is one relaxed load — this latch
    // runs dozens of times per exit, millions of times per second.
    // (Deliberately NOT a flight-recorder crumb site: even an armed
    // no-op check here costs ~20% of campaign throughput. VMCS write
    // crumbs come from the software vmwrite path instead.)
    support::modelfault::check_site("model_vmcs_write",
                                    support::modelfault::Layer::kVmcsWrite);
    const int idx = compact_from_encoding(static_cast<std::uint16_t>(field));
    if (idx < 0) return;  // unmodeled encoding: hardware drops the write
    fields_[static_cast<std::size_t>(idx)] = value & width_mask(field);
  }

  /// Hardware-internal read (no hook interposition, no error path).
  /// Unwritten fields read as zero, matching a VMCLEARed region.
  [[nodiscard]] std::uint64_t hw_read(VmcsField field) const noexcept {
    const int idx = compact_from_encoding(static_cast<std::uint16_t>(field));
    return idx < 0 ? 0 : fields_[static_cast<std::size_t>(idx)];
  }

  /// VMCLEAR semantics: reset all field data and the launch state.
  void clear();

  [[nodiscard]] VmcsLaunchState launch_state() const noexcept { return launch_state_; }
  void set_launch_state(VmcsLaunchState s) noexcept { launch_state_ = s; }

  /// Last VMfailValid error number (the VM_INSTRUCTION_ERROR field).
  [[nodiscard]] VmInstructionError last_error() const noexcept { return last_error_; }

  /// Flat field storage, indexed by compact field index. Snapshot and
  /// restore are plain array copies — no node allocation, no rehash.
  using FieldArray = std::array<std::uint64_t, kNumVmcsFields>;

  /// Deep copy of the field data (snapshot support). The launch state
  /// is not copied: a restored VMCS must be re-VMPTRLDed.
  [[nodiscard]] const FieldArray& snapshot_fields() const noexcept {
    return fields_;
  }
  void restore_fields(const FieldArray& fields) noexcept { fields_ = fields; }

 private:
  FieldArray fields_{};
  VmcsLaunchState launch_state_ = VmcsLaunchState::kInactiveNotCurrentClear;
  mutable VmInstructionError last_error_ = VmInstructionError::kNone;
};

}  // namespace iris::vtx
