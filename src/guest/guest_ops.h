// Architectural recipes for guest-originated VM exits.
//
// Each helper sets up the vCPU the way the named guest instruction would
// (GPR operands, guest memory side effects) and returns the PendingExit
// the hardware would deliver — exit reason, qualification, instruction
// length. Workload generators compose these; tests use them to submit
// single well-formed exits.
#pragma once

#include <cstdint>
#include <span>

#include "hv/domain.h"
#include "hv/exit_qual.h"
#include "hv/hypervisor.h"

namespace iris::guest {

/// CPUID with RAX=leaf, RCX=subleaf (2-byte instruction).
hv::PendingExit make_cpuid(hv::HvVcpu& vcpu, std::uint64_t leaf,
                           std::uint64_t subleaf = 0);

/// RDTSC (2 bytes).
hv::PendingExit make_rdtsc(hv::HvVcpu& vcpu);

/// Port I/O: OUT places `value` in RAX first; IN leaves RAX to be
/// written by the handler. 1-byte immediate forms are 2 bytes, DX forms
/// 1 byte; we model 2.
hv::PendingExit make_io(hv::HvVcpu& vcpu, std::uint16_t port, bool in,
                        std::uint8_t size, std::uint64_t value = 0);

/// REP OUTS/INS dialog: `buffer_gpa` is the guest buffer; RCX holds the
/// repeat count (exposed via the IO_RCX exit-info field).
hv::PendingExit make_string_io(hv::HvVcpu& vcpu, std::uint16_t port, bool in,
                               std::uint64_t buffer_gpa, std::uint64_t count);

/// MOV to CRn from a GPR (3-byte instruction).
hv::PendingExit make_cr_write(hv::HvVcpu& vcpu, std::uint8_t cr, std::uint64_t value,
                              vcpu::Gpr gpr = vcpu::Gpr::kRax);

/// MOV from CRn to a GPR.
hv::PendingExit make_cr_read(hv::HvVcpu& vcpu, std::uint8_t cr,
                             vcpu::Gpr gpr = vcpu::Gpr::kRax);

/// RDMSR with RCX=index.
hv::PendingExit make_msr_read(hv::HvVcpu& vcpu, std::uint32_t msr);

/// WRMSR with RCX=index, EDX:EAX=value.
hv::PendingExit make_msr_write(hv::HvVcpu& vcpu, std::uint32_t msr,
                               std::uint64_t value);

/// HLT (1 byte).
hv::PendingExit make_hlt(hv::HvVcpu& vcpu);

/// Guest memory access faulting in EPT (fault-like: zero-length).
hv::PendingExit make_ept_touch(hv::HvVcpu& vcpu, std::uint64_t gpa, bool write);

/// Asynchronous external interrupt arriving in non-root mode.
hv::PendingExit make_external_interrupt(hv::HvVcpu& vcpu, std::uint8_t vector);

/// Interrupt-window exit (guest just became interruptible).
hv::PendingExit make_interrupt_window(hv::HvVcpu& vcpu);

/// VMCALL hypercall: RAX=nr, RDI/RSI/RDX=args.
hv::PendingExit make_vmcall(hv::HvVcpu& vcpu, std::uint64_t nr, std::uint64_t a0 = 0,
                            std::uint64_t a1 = 0, std::uint64_t a2 = 0);

/// APIC-access exit at `offset` within the APIC page.
hv::PendingExit make_apic_access(hv::HvVcpu& vcpu, std::uint32_t offset, bool write,
                                 std::uint64_t value = 0);

/// LGDT/SGDT/LIDT/SIDT intercept (plants the 0F 01 opcode group so the
/// emulator's live decode path runs during record).
hv::PendingExit make_gdtr_idtr_access(hv::Hypervisor& hv, hv::Domain& dom,
                                      hv::HvVcpu& vcpu);

/// LLDT/SLDT/LTR/STR/VERR/VERW intercept (0F 00 group) — the context-
/// switch descriptor traffic whose emulation dereferences guest memory.
/// `variant` (0-5) selects the ModRM reg field, i.e. which instruction
/// of the group the guest executed.
hv::PendingExit make_ldtr_tr_access(hv::Hypervisor& hv, hv::Domain& dom,
                                    hv::HvVcpu& vcpu, std::uint8_t variant = 3);

/// Hardware exception raised by the guest (e.g. #PF with cr2).
hv::PendingExit make_exception(hv::HvVcpu& vcpu, std::uint8_t vector,
                               std::uint64_t qualification = 0,
                               std::uint32_t error_code = 0);

/// Write a minimal flat GDT (null, code, data) into guest memory and
/// point the vCPU's GDTR at it — the preparation step of the protected-
/// mode switch protocol (paper §III).
void install_flat_gdt(hv::Hypervisor& hv, hv::Domain& dom, hv::HvVcpu& vcpu,
                      std::uint64_t gdt_gpa);

/// Write opcode bytes at the vCPU's current RIP so that the HVM
/// emulator's instruction fetch sees real bytes during record.
void plant_opcode(hv::Hypervisor& hv, hv::Domain& dom, hv::HvVcpu& vcpu,
                  std::span<const std::uint8_t> bytes);

}  // namespace iris::guest
