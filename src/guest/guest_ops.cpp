#include "guest/guest_ops.h"

namespace iris::guest {

using hv::CrAccessQual;
using hv::IoQual;
using hv::PendingExit;
using vcpu::Gpr;
using vtx::ExitReason;

PendingExit make_cpuid(hv::HvVcpu& vcpu, std::uint64_t leaf, std::uint64_t subleaf) {
  vcpu.regs.write(Gpr::kRax, leaf);
  vcpu.regs.write(Gpr::kRcx, subleaf);
  return {ExitReason::kCpuid, 0, 2, 0, 0};
}

PendingExit make_rdtsc(hv::HvVcpu& vcpu) {
  (void)vcpu;
  return {ExitReason::kRdtsc, 0, 2, 0, 0};
}

PendingExit make_io(hv::HvVcpu& vcpu, std::uint16_t port, bool in, std::uint8_t size,
                    std::uint64_t value) {
  if (!in) vcpu.regs.write(Gpr::kRax, value);
  IoQual q;
  q.port = port;
  q.in = in;
  q.size = size;
  q.string = false;
  return {ExitReason::kIoInstruction, q.encode(), 2, 0, 0};
}

PendingExit make_string_io(hv::HvVcpu& vcpu, std::uint16_t port, bool in,
                           std::uint64_t buffer_gpa, std::uint64_t count) {
  vcpu.regs.write(Gpr::kRcx, count);
  if (in) {
    vcpu.regs.write(Gpr::kRdi, buffer_gpa);
  } else {
    vcpu.regs.write(Gpr::kRsi, buffer_gpa);
  }
  IoQual q;
  q.port = port;
  q.in = in;
  q.size = 1;
  q.string = true;
  q.rep = count > 1;
  PendingExit exit{ExitReason::kIoInstruction, q.encode(), 2, 0, 0};
  return exit;
}

PendingExit make_cr_write(hv::HvVcpu& vcpu, std::uint8_t cr, std::uint64_t value,
                          Gpr gpr) {
  vcpu.regs.write(gpr, value);
  CrAccessQual q;
  q.cr = cr;
  q.access_type = CrAccessQual::kMovToCr;
  q.gpr = gpr;
  return {ExitReason::kCrAccess, q.encode(), 3, 0, 0};
}

PendingExit make_cr_read(hv::HvVcpu& vcpu, std::uint8_t cr, Gpr gpr) {
  (void)vcpu;
  CrAccessQual q;
  q.cr = cr;
  q.access_type = CrAccessQual::kMovFromCr;
  q.gpr = gpr;
  return {ExitReason::kCrAccess, q.encode(), 3, 0, 0};
}

PendingExit make_msr_read(hv::HvVcpu& vcpu, std::uint32_t msr) {
  vcpu.regs.write(Gpr::kRcx, msr);
  return {ExitReason::kMsrRead, 0, 2, 0, 0};
}

PendingExit make_msr_write(hv::HvVcpu& vcpu, std::uint32_t msr, std::uint64_t value) {
  vcpu.regs.write(Gpr::kRcx, msr);
  vcpu.regs.write(Gpr::kRax, value & 0xFFFFFFFF);
  vcpu.regs.write(Gpr::kRdx, value >> 32);
  return {ExitReason::kMsrWrite, 0, 2, 0, 0};
}

PendingExit make_hlt(hv::HvVcpu& vcpu) {
  (void)vcpu;
  return {ExitReason::kHlt, 0, 1, 0, 0};
}

PendingExit make_ept_touch(hv::HvVcpu& vcpu, std::uint64_t gpa, bool write) {
  (void)vcpu;
  hv::EptQual q;
  q.read = !write;
  q.write = write;
  return {ExitReason::kEptViolation, q.encode(), 0, 0, gpa};
}

PendingExit make_external_interrupt(hv::HvVcpu& vcpu, std::uint8_t vector) {
  (void)vcpu;
  const std::uint64_t info = (1ULL << 31) | vector;  // valid, type 0 (external)
  return {ExitReason::kExternalInterrupt, 0, 0, info, 0};
}

PendingExit make_interrupt_window(hv::HvVcpu& vcpu) {
  (void)vcpu;
  return {ExitReason::kInterruptWindow, 0, 0, 0, 0};
}

PendingExit make_vmcall(hv::HvVcpu& vcpu, std::uint64_t nr, std::uint64_t a0,
                        std::uint64_t a1, std::uint64_t a2) {
  vcpu.regs.write(Gpr::kRax, nr);
  vcpu.regs.write(Gpr::kRdi, a0);
  vcpu.regs.write(Gpr::kRsi, a1);
  vcpu.regs.write(Gpr::kRdx, a2);
  return {ExitReason::kVmcall, 0, 3, 0, 0};
}

PendingExit make_apic_access(hv::HvVcpu& vcpu, std::uint32_t offset, bool write,
                             std::uint64_t value) {
  if (write) vcpu.regs.write(Gpr::kRax, value);
  const std::uint64_t qual =
      (offset & 0xFFF) | (static_cast<std::uint64_t>(write ? 1 : 0) << 12);
  return {ExitReason::kApicAccess, qual, 3, 0, 0};
}

PendingExit make_gdtr_idtr_access(hv::Hypervisor& hv, hv::Domain& dom,
                                  hv::HvVcpu& vcpu) {
  plant_opcode(hv, dom, vcpu, std::array<std::uint8_t, 2>{0x0F, 0x01});
  return {ExitReason::kGdtrIdtrAccess, 0, 3, 0, 0};
}

PendingExit make_ldtr_tr_access(hv::Hypervisor& hv, hv::Domain& dom,
                                hv::HvVcpu& vcpu, std::uint8_t variant) {
  const std::uint8_t modrm = 0xC0 | static_cast<std::uint8_t>((variant & 0x7) << 3);
  plant_opcode(hv, dom, vcpu, std::array<std::uint8_t, 3>{0x0F, 0x00, modrm});
  return {ExitReason::kLdtrTrAccess, 0, 3, 0, 0};
}

PendingExit make_exception(hv::HvVcpu& vcpu, std::uint8_t vector,
                           std::uint64_t qualification, std::uint32_t error_code) {
  (void)vcpu;
  const bool has_err = vector == 14 || vector == 13 || vector == 8;
  std::uint64_t info = (1ULL << 31) | (3ULL << 8) | vector;  // HW exception
  if (has_err) info |= 1ULL << 11;
  PendingExit exit{ExitReason::kExceptionNmi, qualification, 0, info, 0};
  (void)error_code;
  return exit;
}

void install_flat_gdt(hv::Hypervisor& hv, hv::Domain& dom, hv::HvVcpu& vcpu,
                      std::uint64_t gdt_gpa) {
  // Null descriptor, 4 GiB flat code (0x08), 4 GiB flat data (0x10).
  const std::uint8_t gdt[24] = {
      0, 0, 0, 0, 0, 0, 0, 0,                              // null
      0xFF, 0xFF, 0x00, 0x00, 0x00, 0x9A, 0xCF, 0x00,      // code: P, S, X
      0xFF, 0xFF, 0x00, 0x00, 0x00, 0x92, 0xCF, 0x00,      // data: P, S, W
  };
  hv.copy_to_guest(dom, gdt_gpa, gdt);
  vcpu.regs.gdtr.base = gdt_gpa;
  vcpu.regs.gdtr.limit = sizeof(gdt) - 1;
}

void plant_opcode(hv::Hypervisor& hv, hv::Domain& dom, hv::HvVcpu& vcpu,
                  std::span<const std::uint8_t> bytes) {
  const std::uint64_t cs_base = vcpu.regs.segment(vcpu::SegReg::kCs).base;
  hv.copy_to_guest(dom, cs_base + vcpu.regs.rip, bytes);
}

}  // namespace iris::guest
