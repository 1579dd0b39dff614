#include "vcpu/vmcs_sync.h"

#include <array>
#include <utility>

namespace iris::vcpu {
namespace {

using vtx::Vmcs;
using vtx::VmcsField;

struct SegFieldMap {
  SegReg reg;
  VmcsField selector;
  VmcsField base;
  VmcsField limit;
  VmcsField ar;
};

constexpr std::array<SegFieldMap, kNumSegRegs> kSegMap = {{
    {SegReg::kEs, VmcsField::kGuestEsSelector, VmcsField::kGuestEsBase,
     VmcsField::kGuestEsLimit, VmcsField::kGuestEsArBytes},
    {SegReg::kCs, VmcsField::kGuestCsSelector, VmcsField::kGuestCsBase,
     VmcsField::kGuestCsLimit, VmcsField::kGuestCsArBytes},
    {SegReg::kSs, VmcsField::kGuestSsSelector, VmcsField::kGuestSsBase,
     VmcsField::kGuestSsLimit, VmcsField::kGuestSsArBytes},
    {SegReg::kDs, VmcsField::kGuestDsSelector, VmcsField::kGuestDsBase,
     VmcsField::kGuestDsLimit, VmcsField::kGuestDsArBytes},
    {SegReg::kFs, VmcsField::kGuestFsSelector, VmcsField::kGuestFsBase,
     VmcsField::kGuestFsLimit, VmcsField::kGuestFsArBytes},
    {SegReg::kGs, VmcsField::kGuestGsSelector, VmcsField::kGuestGsBase,
     VmcsField::kGuestGsLimit, VmcsField::kGuestGsArBytes},
    {SegReg::kLdtr, VmcsField::kGuestLdtrSelector, VmcsField::kGuestLdtrBase,
     VmcsField::kGuestLdtrLimit, VmcsField::kGuestLdtrArBytes},
    {SegReg::kTr, VmcsField::kGuestTrSelector, VmcsField::kGuestTrBase,
     VmcsField::kGuestTrLimit, VmcsField::kGuestTrArBytes},
}};

// The segment fields are latched by a pack expansion over kSegMap, not
// a runtime loop: every encoding reaching the inline hw_write/hw_read is
// then a constant, so the compact-index lookup and width mask fold away.
// The comma folds keep the per-field order of the table.

template <std::size_t I>
void save_segment(const RegisterFile& regs, Vmcs& vmcs) {
  constexpr SegFieldMap m = kSegMap[I];
  const Segment& s = regs.segment(m.reg);
  vmcs.hw_write(m.selector, s.selector);
  vmcs.hw_write(m.base, s.base);
  vmcs.hw_write(m.limit, s.limit);
  vmcs.hw_write(m.ar, s.ar_bytes);
}

template <std::size_t I>
void load_segment(const Vmcs& vmcs, RegisterFile& regs) {
  constexpr SegFieldMap m = kSegMap[I];
  Segment& s = regs.segment(m.reg);
  s.selector = static_cast<std::uint16_t>(vmcs.hw_read(m.selector));
  s.base = vmcs.hw_read(m.base);
  s.limit = static_cast<std::uint32_t>(vmcs.hw_read(m.limit));
  s.ar_bytes = static_cast<std::uint32_t>(vmcs.hw_read(m.ar));
}

template <std::size_t... I>
void save_segments(const RegisterFile& regs, Vmcs& vmcs, std::index_sequence<I...>) {
  (save_segment<I>(regs, vmcs), ...);
}

template <std::size_t... I>
void load_segments(const Vmcs& vmcs, RegisterFile& regs, std::index_sequence<I...>) {
  (load_segment<I>(vmcs, regs), ...);
}

}  // namespace

void save_guest_state(const RegisterFile& regs, Vmcs& vmcs) {
  vmcs.hw_write(VmcsField::kGuestRip, regs.rip);
  vmcs.hw_write(VmcsField::kGuestRsp, regs.rsp);
  vmcs.hw_write(VmcsField::kGuestRflags, regs.rflags);
  vmcs.hw_write(VmcsField::kGuestCr0, regs.cr0);
  vmcs.hw_write(VmcsField::kGuestCr3, regs.cr3);
  vmcs.hw_write(VmcsField::kGuestCr4, regs.cr4);
  vmcs.hw_write(VmcsField::kGuestDr7, regs.dr7);
  vmcs.hw_write(VmcsField::kGuestIa32Efer, regs.efer());
  vmcs.hw_write(VmcsField::kGuestIa32Pat, regs.read_msr(kMsrIa32Pat));
  vmcs.hw_write(VmcsField::kGuestSysenterCs, regs.read_msr(kMsrIa32SysenterCs));
  vmcs.hw_write(VmcsField::kGuestSysenterEsp, regs.read_msr(kMsrIa32SysenterEsp));
  vmcs.hw_write(VmcsField::kGuestSysenterEip, regs.read_msr(kMsrIa32SysenterEip));
  save_segments(regs, vmcs, std::make_index_sequence<kSegMap.size()>{});
  vmcs.hw_write(VmcsField::kGuestGdtrBase, regs.gdtr.base);
  vmcs.hw_write(VmcsField::kGuestGdtrLimit, regs.gdtr.limit);
  vmcs.hw_write(VmcsField::kGuestIdtrBase, regs.idtr.base);
  vmcs.hw_write(VmcsField::kGuestIdtrLimit, regs.idtr.limit);
}

void load_guest_state(const Vmcs& vmcs, RegisterFile& regs) {
  regs.rip = vmcs.hw_read(VmcsField::kGuestRip);
  regs.rsp = vmcs.hw_read(VmcsField::kGuestRsp);
  regs.rflags = vmcs.hw_read(VmcsField::kGuestRflags);
  regs.cr0 = vmcs.hw_read(VmcsField::kGuestCr0);
  regs.cr3 = vmcs.hw_read(VmcsField::kGuestCr3);
  regs.cr4 = vmcs.hw_read(VmcsField::kGuestCr4);
  regs.dr7 = vmcs.hw_read(VmcsField::kGuestDr7);
  regs.write_msr(kMsrIa32Efer, vmcs.hw_read(VmcsField::kGuestIa32Efer));
  regs.write_msr(kMsrIa32Pat, vmcs.hw_read(VmcsField::kGuestIa32Pat));
  regs.write_msr(kMsrIa32SysenterCs, vmcs.hw_read(VmcsField::kGuestSysenterCs));
  regs.write_msr(kMsrIa32SysenterEsp, vmcs.hw_read(VmcsField::kGuestSysenterEsp));
  regs.write_msr(kMsrIa32SysenterEip, vmcs.hw_read(VmcsField::kGuestSysenterEip));
  load_segments(vmcs, regs, std::make_index_sequence<kSegMap.size()>{});
  regs.gdtr.base = vmcs.hw_read(VmcsField::kGuestGdtrBase);
  regs.gdtr.limit = static_cast<std::uint32_t>(vmcs.hw_read(VmcsField::kGuestGdtrLimit));
  regs.idtr.base = vmcs.hw_read(VmcsField::kGuestIdtrBase);
  regs.idtr.limit = static_cast<std::uint32_t>(vmcs.hw_read(VmcsField::kGuestIdtrLimit));
}

}  // namespace iris::vcpu
