#include "vtx/entry_checks.h"

#include <charconv>
#include <string>

#include "support/model_fault.h"
#include "vtx/vmx.h"

namespace iris::vtx {
namespace {

void add(std::vector<EntryCheckViolation>& out, std::string rule, VmcsField field,
         std::uint64_t value) {
  out.push_back(EntryCheckViolation{std::move(rule), field, value});
}

/// One violation per cleared must-be-one CR bit, lowest bit first. The
/// baseline profile fixes only CR0.NE, which keeps its historical rule
/// string; every other fixed bit is profile-specific.
void check_fixed_ones(std::vector<EntryCheckViolation>& out, const char* reg,
                      const BitDefs& fixed, VmcsField field, std::uint64_t value) {
  std::uint64_t missing = fixed.missing_ones(value);
  for (int bit = 0; missing != 0; ++bit, missing >>= 1) {
    if (!(missing & 1)) continue;
    if (field == VmcsField::kGuestCr0 && (1ULL << bit) == kCr0Ne) {
      add(out, "CR0.NE fixed to 1 under VMX", field, value);
    } else {
      add(out, std::string(reg) + " bit " + std::to_string(bit) +
                   " fixed to 1 by capability profile",
          field, value);
    }
  }
}

/// Segment AR-byte helpers (SDM 24.4.1 layout: type[3:0], S[4], DPL[6:5],
/// P[7], AVL[12], L[13], D/B[14], G[15], unusable[16]).
constexpr std::uint64_t ar_type(std::uint64_t ar) { return ar & 0xF; }
constexpr bool ar_s(std::uint64_t ar) { return (ar >> 4) & 1; }
constexpr bool ar_present(std::uint64_t ar) { return (ar >> 7) & 1; }
constexpr bool ar_unusable(std::uint64_t ar) { return (ar >> 16) & 1; }

bool is_canonical(std::uint64_t addr) {
  const std::int64_t s = static_cast<std::int64_t>(addr);
  return (s << 16 >> 16) == s;
}

}  // namespace

EntryCheckInputs gather_entry_check_inputs(const Vmcs& vmcs) noexcept {
  EntryCheckInputs in;
  in.pin_based = vmcs.hw_read(VmcsField::kPinBasedVmExecControl);
  in.proc_based = vmcs.hw_read(VmcsField::kCpuBasedVmExecControl);
  in.proc_based2 = vmcs.hw_read(VmcsField::kSecondaryVmExecControl);
  in.vm_exit = vmcs.hw_read(VmcsField::kVmExitControls);
  in.vm_entry = vmcs.hw_read(VmcsField::kVmEntryControls);
  in.cr0 = vmcs.hw_read(VmcsField::kGuestCr0);
  in.cr3 = vmcs.hw_read(VmcsField::kGuestCr3);
  in.cr4 = vmcs.hw_read(VmcsField::kGuestCr4);
  in.efer = vmcs.hw_read(VmcsField::kGuestIa32Efer);
  in.rflags = vmcs.hw_read(VmcsField::kGuestRflags);
  in.rip = vmcs.hw_read(VmcsField::kGuestRip);
  in.entry_intr_info = vmcs.hw_read(VmcsField::kVmEntryIntrInfoField);
  in.cs_selector = vmcs.hw_read(VmcsField::kGuestCsSelector);
  in.cs_ar = vmcs.hw_read(VmcsField::kGuestCsArBytes);
  in.ss_selector = vmcs.hw_read(VmcsField::kGuestSsSelector);
  in.ss_ar = vmcs.hw_read(VmcsField::kGuestSsArBytes);
  in.tr_selector = vmcs.hw_read(VmcsField::kGuestTrSelector);
  in.tr_ar = vmcs.hw_read(VmcsField::kGuestTrArBytes);
  in.gdtr_base = vmcs.hw_read(VmcsField::kGuestGdtrBase);
  in.idtr_base = vmcs.hw_read(VmcsField::kGuestIdtrBase);
  in.activity = vmcs.hw_read(VmcsField::kGuestActivityState);
  in.interruptibility = vmcs.hw_read(VmcsField::kGuestInterruptibility);
  in.link_pointer = vmcs.hw_read(VmcsField::kVmcsLinkPointer);
  return in;
}

std::vector<EntryCheckViolation> check_guest_state(const EntryCheckInputs& in,
                                                   const VmxCapabilityProfile& profile) {
  std::vector<EntryCheckViolation> v;

  const std::uint64_t cr0 = in.cr0;
  const std::uint64_t cr3 = in.cr3;
  const std::uint64_t cr4 = in.cr4;
  const std::uint64_t efer = in.efer;
  const std::uint64_t rflags = in.rflags;
  const std::uint64_t rip = in.rip;

  // --- Control registers (26.3.1.1). ---
  if ((cr0 & kCr0Pg) && !(cr0 & kCr0Pe)) {
    add(v, "CR0.PG=1 requires CR0.PE=1", VmcsField::kGuestCr0, cr0);
  }
  if ((cr0 & kCr0Nw) && !(cr0 & kCr0Cd)) {
    add(v, "CR0.NW=1 requires CR0.CD=1", VmcsField::kGuestCr0, cr0);
  }
  // Fixed-1 bits per the profile's IA32_VMX_CR0_FIXED0 (the baseline
  // fixes only NE: the modeled hypervisor runs HVM guests that
  // legitimately start in real mode under the shadow of the guest/host
  // mask, so PE/PG are handled above only when inconsistent — unless a
  // profile without unrestricted guest pins them).
  check_fixed_ones(v, "CR0", profile.cr0_fixed, VmcsField::kGuestCr0, cr0);
  if (profile.cr0_fixed.forbidden_ones(cr0) != 0) {
    add(v, "CR0 has bits fixed to 0 by capability profile", VmcsField::kGuestCr0, cr0);
  }
  // CR4 validity per IA32_VMX_CR4_FIXED1: anything outside the
  // profile's may-be-one mask is reserved (the baseline mask reproduces
  // the legacy "bits above 22 and bit 11" constant exactly).
  if (profile.cr4_fixed.forbidden_ones(cr4) != 0) {
    add(v, "CR4 reserved bit set", VmcsField::kGuestCr4, cr4);
  }
  check_fixed_ones(v, "CR4", profile.cr4_fixed, VmcsField::kGuestCr4, cr4);
  if ((efer & kEferLma) != 0 && !(cr0 & kCr0Pg)) {
    add(v, "EFER.LMA=1 requires CR0.PG=1", VmcsField::kGuestIa32Efer, efer);
  }
  if ((efer & kEferLma) != 0 && !(cr4 & kCr4Pae)) {
    add(v, "IA-32e mode requires CR4.PAE=1", VmcsField::kGuestCr4, cr4);
  }
  if ((cr0 & kCr0Pg) && (cr4 & kCr4Pae) == 0 && (efer & kEferLme)) {
    add(v, "EFER.LME with paging requires CR4.PAE", VmcsField::kGuestIa32Efer, efer);
  }
  if ((cr0 & kCr0Pg) && (cr3 & 0xFFF0000000000000ULL)) {
    add(v, "CR3 beyond physical-address width", VmcsField::kGuestCr3, cr3);
  }

  // --- RFLAGS (26.3.1.4). ---
  if (!(rflags & kRflagsReserved1)) {
    add(v, "RFLAGS bit 1 must be 1", VmcsField::kGuestRflags, rflags);
  }
  constexpr std::uint64_t kRflagsMustBeZero =
      (1ULL << 3) | (1ULL << 5) | (1ULL << 15) | ~((1ULL << 22) - 1);
  if (rflags & kRflagsMustBeZero) {
    add(v, "RFLAGS reserved bit set", VmcsField::kGuestRflags, rflags);
  }
  if ((rflags & kRflagsVm) && (efer & kEferLma)) {
    add(v, "RFLAGS.VM=1 invalid in IA-32e mode", VmcsField::kGuestRflags, rflags);
  }
  const std::uint64_t entry_intr = in.entry_intr_info;
  const bool entry_intr_valid = (entry_intr >> 31) & 1;
  const bool entry_intr_external = ((entry_intr >> 8) & 0x7) == 0;
  if (entry_intr_valid && entry_intr_external && !(rflags & kRflagsIf)) {
    add(v, "external-interrupt injection requires RFLAGS.IF=1",
        VmcsField::kGuestRflags, rflags);
  }

  // --- RIP (26.3.1.2 item on RIP). ---
  const std::uint64_t cs_ar = in.cs_ar;
  const bool cs_long = (cs_ar >> 13) & 1;
  if ((!(efer & kEferLma) || !cs_long) && (rip >> 32) != 0) {
    add(v, "RIP has bits above 31 outside 64-bit mode", VmcsField::kGuestRip, rip);
  }
  if ((efer & kEferLma) && cs_long && !is_canonical(rip)) {
    add(v, "RIP must be canonical in 64-bit mode", VmcsField::kGuestRip, rip);
  }

  // --- Segment registers (26.3.1.2), protected-mode subset. ---
  if (cr0 & kCr0Pe) {
    if (!ar_unusable(cs_ar)) {
      const auto type = ar_type(cs_ar);
      if (!ar_s(cs_ar) || !(type == 9 || type == 11 || type == 13 || type == 15)) {
        add(v, "CS must be an accessed code segment", VmcsField::kGuestCsArBytes, cs_ar);
      }
      if (!ar_present(cs_ar)) {
        add(v, "CS must be present", VmcsField::kGuestCsArBytes, cs_ar);
      }
    }
    const std::uint64_t tr_ar = in.tr_ar;
    if (!ar_unusable(tr_ar)) {
      const auto type = ar_type(tr_ar);
      if (type != 11 && type != 3) {
        add(v, "TR must be a busy TSS", VmcsField::kGuestTrArBytes, tr_ar);
      }
      if (!ar_present(tr_ar)) {
        add(v, "TR must be present", VmcsField::kGuestTrArBytes, tr_ar);
      }
    }
    const std::uint64_t tr_sel = in.tr_selector;
    if (tr_sel & 0x4) {
      add(v, "TR.TI flag must be 0", VmcsField::kGuestTrSelector, tr_sel);
    }
    const std::uint64_t ss_ar = in.ss_ar;
    const std::uint64_t ss_sel = in.ss_selector;
    const std::uint64_t cs_sel = in.cs_selector;
    if (!ar_unusable(ss_ar) && (ss_sel & 0x3) != (cs_sel & 0x3) && !(rflags & kRflagsVm)) {
      add(v, "SS.RPL must equal CS.RPL", VmcsField::kGuestSsSelector, ss_sel);
    }
  }

  // --- Descriptor-table registers (26.3.1.3). ---
  if (!is_canonical(in.gdtr_base)) {
    add(v, "GDTR base must be canonical", VmcsField::kGuestGdtrBase, in.gdtr_base);
  }
  if (!is_canonical(in.idtr_base)) {
    add(v, "IDTR base must be canonical", VmcsField::kGuestIdtrBase, in.idtr_base);
  }

  // --- Non-register state (26.3.1.5). ---
  const std::uint64_t activity = in.activity;
  if (activity > kActivityWaitSipi) {
    add(v, "activity state must be 0..3", VmcsField::kGuestActivityState, activity);
  } else if (!((profile.activity_state_support >> activity) & 1)) {
    // IA32_VMX_MISC analogue: a CPU may lack HLT/shutdown/wait-for-SIPI
    // as VM-entry activity states.
    add(v, "activity state not supported by capability profile",
        VmcsField::kGuestActivityState, activity);
  }
  const std::uint64_t intr = in.interruptibility;
  if (intr & ~0xFULL) {
    add(v, "interruptibility reserved bits must be 0", VmcsField::kGuestInterruptibility,
        intr);
  }
  if ((intr & kIntrBlockingBySti) && (intr & kIntrBlockingByMovSs)) {
    add(v, "STI and MOV-SS blocking cannot both be set",
        VmcsField::kGuestInterruptibility, intr);
  }
  if ((intr & kIntrBlockingBySti) && !(rflags & kRflagsIf)) {
    add(v, "STI blocking requires RFLAGS.IF=1", VmcsField::kGuestInterruptibility, intr);
  }
  if (activity == kActivityHlt && (intr & (kIntrBlockingBySti | kIntrBlockingByMovSs))) {
    add(v, "HLT activity incompatible with STI/MOV-SS blocking",
        VmcsField::kGuestActivityState, activity);
  }

  // --- VMCS link pointer (26.3.1.5): must be all-ones when unused. ---
  const std::uint64_t link = in.link_pointer;
  if (link != ~0ULL) {
    add(v, "VMCS link pointer must be FFFFFFFF_FFFFFFFF", VmcsField::kVmcsLinkPointer,
        link);
  }

  return v;
}

std::vector<EntryCheckViolation> check_guest_state(const Vmcs& vmcs,
                                                   const VmxCapabilityProfile& profile) {
  // Model-fault site: an injected fault here models the entry-check
  // walker itself breaking (not a guest-state violation, which is a
  // normal, reported outcome).
  support::modelfault::check_site("model_vmentry",
                                  support::modelfault::Layer::kVmEntry);
  return check_guest_state(gather_entry_check_inputs(vmcs), profile);
}

std::vector<EntryCheckViolation> check_guest_state(const Vmcs& vmcs) {
  return check_guest_state(vmcs, baseline_profile());
}

std::vector<EntryCheckViolation> check_control_fields(const EntryCheckInputs& in,
                                                      const VmxCapabilityProfile& profile) {
  std::vector<EntryCheckViolation> v;

  const auto check = [&v](const char* label, const BitDefs& defs, VmcsField field,
                          std::uint64_t value) {
    if (defs.missing_ones(value) != 0) {
      add(v, std::string(label) + " allowed-0 violation: must-be-one bit cleared", field,
          value);
    }
    if (defs.forbidden_ones(value) != 0) {
      add(v, std::string(label) + " allowed-1 violation: must-be-zero bit set", field,
          value);
    }
  };

  check("pin-based controls", profile.pin_based, VmcsField::kPinBasedVmExecControl,
        in.pin_based);
  check("primary processor-based controls", profile.proc_based,
        VmcsField::kCpuBasedVmExecControl, in.proc_based);
  // Secondary controls are consulted only when the primary control
  // activates them (SDM 26.2.1.1).
  if (in.proc_based & kCpuSecondaryControls) {
    check("secondary processor-based controls", profile.proc_based2,
          VmcsField::kSecondaryVmExecControl, in.proc_based2);
  }
  check("VM-exit controls", profile.vm_exit, VmcsField::kVmExitControls, in.vm_exit);
  check("VM-entry controls", profile.vm_entry, VmcsField::kVmEntryControls, in.vm_entry);

  return v;
}

std::vector<EntryCheckViolation> check_control_fields(const Vmcs& vmcs,
                                                      const VmxCapabilityProfile& profile) {
  return check_control_fields(gather_entry_check_inputs(vmcs), profile);
}

std::string describe(const std::vector<EntryCheckViolation>& violations) {
  // Plain appends and to_chars: this text is built for every rejected
  // mutant, and an ostringstream cost several times the checks themselves.
  std::string out = std::to_string(violations.size());
  out += " guest-state check(s) failed:";
  char hex[16];
  for (const auto& viol : violations) {
    out += " [";
    out += to_string(viol.field);
    out += ": ";
    out += viol.rule;
    out += " (value 0x";
    const auto end = std::to_chars(hex, hex + sizeof hex, viol.value, 16).ptr;
    out.append(hex, end);
    out += ")]";
  }
  return out;
}

}  // namespace iris::vtx
