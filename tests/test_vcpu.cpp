// Unit tests for the vCPU register file, the Mode1-7 classifier (Fig 8)
// and the VMCS guest-state context switch.
#include <gtest/gtest.h>

#include <array>

#include "support/rng.h"
#include "vcpu/cpu_mode.h"
#include "vcpu/regs.h"
#include "vcpu/vmcs_sync.h"
#include "vtx/entry_checks.h"

namespace iris::vcpu {
namespace {

using vtx::kCr0Am;
using vtx::kCr0Cd;
using vtx::kCr0Pe;
using vtx::kCr0Pg;
using vtx::kCr0Ts;

TEST(Gpr, FifteenRegistersWithStableEncodings) {
  EXPECT_EQ(kNumGprs, 15);  // the paper's "GPR (15 values)" (§V-A)
  EXPECT_EQ(static_cast<int>(Gpr::kRax), 0);
  EXPECT_EQ(static_cast<int>(Gpr::kR15), 14);
}

TEST(Gpr, NameRoundTrip) {
  for (int i = 0; i < kNumGprs; ++i) {
    const auto r = static_cast<Gpr>(i);
    const auto back = gpr_from_string(to_string(r));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, r);
  }
  EXPECT_FALSE(gpr_from_string("RSP"));  // RSP lives in the VMCS
}

TEST(RegisterFile, PowerUpState) {
  const RegisterFile regs;
  EXPECT_EQ(regs.rip, 0xFFF0u);
  EXPECT_EQ(regs.rflags, 0x2u);
  EXPECT_EQ(regs.cr0, 0x60000010u);  // CD | NW | ET
  EXPECT_EQ(regs.segment(SegReg::kCs).selector, 0xF000u);
  EXPECT_EQ(regs.segment(SegReg::kCs).base, 0xFFFF0000u);
}

TEST(RegisterFile, GprReadWrite) {
  RegisterFile regs;
  regs.write(Gpr::kR11, 0xDEAD);
  EXPECT_EQ(regs.read(Gpr::kR11), 0xDEADu);
  EXPECT_EQ(regs.read(Gpr::kR12), 0u);
}

TEST(RegisterFile, MsrFallback) {
  RegisterFile regs;
  EXPECT_EQ(regs.read_msr(kMsrIa32Efer), 0u);
  EXPECT_EQ(regs.read_msr(kMsrIa32Efer, 0x500), 0x500u);
  regs.write_msr(kMsrIa32Efer, 0x901);
  EXPECT_EQ(regs.efer(), 0x901u);
}

// The Fig 8 classifier: every CR0 combination lands in exactly one mode.
TEST(CpuMode, ClassifierMatchesFigureEight) {
  EXPECT_EQ(classify_cr0(0), CpuMode::kMode1);
  EXPECT_EQ(classify_cr0(kCr0Pe), CpuMode::kMode2);
  EXPECT_EQ(classify_cr0(kCr0Pe | kCr0Pg), CpuMode::kMode3);
  EXPECT_EQ(classify_cr0(kCr0Pe | kCr0Pg | kCr0Am | kCr0Cd), CpuMode::kMode4);
  EXPECT_EQ(classify_cr0(kCr0Pe | kCr0Pg | kCr0Am | kCr0Ts), CpuMode::kMode5);
  EXPECT_EQ(classify_cr0(kCr0Pe | kCr0Pg | kCr0Am), CpuMode::kMode6);
  EXPECT_EQ(classify_cr0(kCr0Pe | kCr0Pg | kCr0Am | kCr0Ts | kCr0Cd),
            CpuMode::kMode7);
}

TEST(CpuMode, TotalFunctionOverTsCd) {
  // Under PE|PG|AM, the four {TS, CD} combinations partition into
  // Mode4..Mode7 with no overlap.
  std::set<CpuMode> seen;
  for (const bool ts : {false, true}) {
    for (const bool cd : {false, true}) {
      std::uint64_t cr0 = kCr0Pe | kCr0Pg | kCr0Am;
      if (ts) cr0 |= kCr0Ts;
      if (cd) cr0 |= kCr0Cd;
      seen.insert(classify_cr0(cr0));
    }
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(CpuMode, OtherBitsDoNotAffectClassification) {
  const std::uint64_t base = kCr0Pe | kCr0Pg | kCr0Am;
  EXPECT_EQ(classify_cr0(base | vtx::kCr0Wp | vtx::kCr0Ne | vtx::kCr0Mp),
            classify_cr0(base));
}

TEST(CpuMode, ModeNamesDistinct) {
  std::set<std::string_view> names;
  for (int i = 1; i <= kNumCpuModes; ++i) {
    names.insert(to_string(static_cast<CpuMode>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumCpuModes));
}

TEST(VmcsSync, SaveLoadRoundTrip) {
  RegisterFile regs;
  regs.rip = 0x1234;
  regs.rsp = 0x8000;
  regs.rflags = 0x202;
  regs.cr0 = 0x80050033;
  regs.cr3 = 0x5000;
  regs.cr4 = 0x20;
  regs.write_msr(kMsrIa32Efer, 0xD01);
  regs.segment(SegReg::kCs) = {0x08, 0, 0xFFFFFFFF, 0xC9B};
  regs.gdtr = {0x6000, 0x7F};

  vtx::Vmcs vmcs;
  save_guest_state(regs, vmcs);

  RegisterFile loaded;
  load_guest_state(vmcs, loaded);
  EXPECT_EQ(loaded.rip, regs.rip);
  EXPECT_EQ(loaded.rsp, regs.rsp);
  EXPECT_EQ(loaded.rflags, regs.rflags);
  EXPECT_EQ(loaded.cr0, regs.cr0);
  EXPECT_EQ(loaded.cr3, regs.cr3);
  EXPECT_EQ(loaded.cr4, regs.cr4);
  EXPECT_EQ(loaded.efer(), 0xD01u);
  EXPECT_EQ(loaded.segment(SegReg::kCs).selector, 0x08u);
  EXPECT_EQ(loaded.segment(SegReg::kCs).ar_bytes, 0xC9Bu);
  EXPECT_EQ(loaded.gdtr.base, 0x6000u);
  EXPECT_EQ(loaded.gdtr.limit, 0x7Fu);
}

TEST(VmcsSync, GprsAreNotPartOfTheVmcs) {
  // Paper §II: GPRs are saved in hypervisor structures, not the VMCS.
  RegisterFile regs;
  regs.write(Gpr::kRax, 0xAAAA);
  vtx::Vmcs vmcs;
  save_guest_state(regs, vmcs);

  RegisterFile loaded;
  loaded.write(Gpr::kRax, 0xBBBB);
  load_guest_state(vmcs, loaded);
  EXPECT_EQ(loaded.read(Gpr::kRax), 0xBBBBu);  // untouched by the VMCS load
}

TEST(VmcsSync, SaveWritesAllSegmentFields) {
  RegisterFile regs;
  regs.segment(SegReg::kGs) = {0x2B, 0xFFFF8000, 0xFFF, 0x93};
  vtx::Vmcs vmcs;
  save_guest_state(regs, vmcs);
  EXPECT_EQ(vmcs.hw_read(vtx::VmcsField::kGuestGsSelector), 0x2Bu);
  EXPECT_EQ(vmcs.hw_read(vtx::VmcsField::kGuestGsBase), 0xFFFF8000u);
  EXPECT_EQ(vmcs.hw_read(vtx::VmcsField::kGuestGsLimit), 0xFFFu);
  EXPECT_EQ(vmcs.hw_read(vtx::VmcsField::kGuestGsArBytes), 0x93u);
}

// --- Folded guest-state sync vs. the per-field loop it replaced. ---

using vtx::Vmcs;
using vtx::VmcsField;

struct RefSegFields {
  SegReg reg;
  VmcsField selector, base, limit, ar;
};

constexpr std::array<RefSegFields, kNumSegRegs> kRefSegMap = {{
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

/// The runtime-loop save the folded version must reproduce exactly.
void reference_save(const RegisterFile& regs, Vmcs& vmcs) {
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
  for (const auto& m : kRefSegMap) {
    const Segment& s = regs.segment(m.reg);
    vmcs.hw_write(m.selector, s.selector);
    vmcs.hw_write(m.base, s.base);
    vmcs.hw_write(m.limit, s.limit);
    vmcs.hw_write(m.ar, s.ar_bytes);
  }
  vmcs.hw_write(VmcsField::kGuestGdtrBase, regs.gdtr.base);
  vmcs.hw_write(VmcsField::kGuestGdtrLimit, regs.gdtr.limit);
  vmcs.hw_write(VmcsField::kGuestIdtrBase, regs.idtr.base);
  vmcs.hw_write(VmcsField::kGuestIdtrLimit, regs.idtr.limit);
}

/// The runtime-loop load the folded version must reproduce exactly.
void reference_load(const Vmcs& vmcs, RegisterFile& regs) {
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
  for (const auto& m : kRefSegMap) {
    Segment& s = regs.segment(m.reg);
    s.selector = static_cast<std::uint16_t>(vmcs.hw_read(m.selector));
    s.base = vmcs.hw_read(m.base);
    s.limit = static_cast<std::uint32_t>(vmcs.hw_read(m.limit));
    s.ar_bytes = static_cast<std::uint32_t>(vmcs.hw_read(m.ar));
  }
  regs.gdtr.base = vmcs.hw_read(VmcsField::kGuestGdtrBase);
  regs.gdtr.limit = static_cast<std::uint32_t>(vmcs.hw_read(VmcsField::kGuestGdtrLimit));
  regs.idtr.base = vmcs.hw_read(VmcsField::kGuestIdtrBase);
  regs.idtr.limit = static_cast<std::uint32_t>(vmcs.hw_read(VmcsField::kGuestIdtrLimit));
}

constexpr std::array<std::uint32_t, 15> kModeledMsrs = {
    kMsrIa32Tsc,         kMsrIa32ApicBase, kMsrIa32MiscEnable, kMsrIa32SysenterCs,
    kMsrIa32SysenterEsp, kMsrIa32SysenterEip, kMsrIa32Pat,     kMsrIa32Efer,
    kMsrIa32Star,        kMsrIa32Lstar,    kMsrIa32Cstar,      kMsrIa32Fmask,
    kMsrIa32FsBase,      kMsrIa32GsBase,   kMsrIa32KernelGsBase};

RegisterFile random_registers(Rng& rng) {
  RegisterFile regs;
  for (auto& g : regs.gpr) g = rng.next();
  regs.rip = rng.next();
  regs.rsp = rng.next();
  regs.rflags = rng.next();
  regs.cr0 = rng.next();
  regs.cr2 = rng.next();
  regs.cr3 = rng.next();
  regs.cr4 = rng.next();
  regs.dr7 = rng.next();
  for (auto& s : regs.seg) {
    s.selector = static_cast<std::uint16_t>(rng.next());
    s.base = rng.next();
    s.limit = static_cast<std::uint32_t>(rng.next());
    s.ar_bytes = static_cast<std::uint32_t>(rng.next());
  }
  regs.gdtr = {rng.next(), static_cast<std::uint32_t>(rng.next())};
  regs.idtr = {rng.next(), static_cast<std::uint32_t>(rng.next())};
  // A random subset of MSRs written, so read_msr's fallback path runs too.
  for (const std::uint32_t msr : kModeledMsrs) {
    if (rng.below(2) == 0) regs.write_msr(msr, rng.next());
  }
  return regs;
}

Vmcs random_vmcs(Rng& rng) {
  Vmcs::FieldArray fields{};
  for (auto& f : fields) f = rng.next();
  Vmcs vmcs;
  vmcs.restore_fields(fields);
  return vmcs;
}

void expect_same_registers(const RegisterFile& a, const RegisterFile& b) {
  EXPECT_EQ(a.gpr, b.gpr);
  EXPECT_EQ(a.rip, b.rip);
  EXPECT_EQ(a.rsp, b.rsp);
  EXPECT_EQ(a.rflags, b.rflags);
  EXPECT_EQ(a.cr0, b.cr0);
  EXPECT_EQ(a.cr2, b.cr2);
  EXPECT_EQ(a.cr3, b.cr3);
  EXPECT_EQ(a.cr4, b.cr4);
  EXPECT_EQ(a.dr7, b.dr7);
  for (std::size_t i = 0; i < a.seg.size(); ++i) {
    EXPECT_EQ(a.seg[i].selector, b.seg[i].selector) << i;
    EXPECT_EQ(a.seg[i].base, b.seg[i].base) << i;
    EXPECT_EQ(a.seg[i].limit, b.seg[i].limit) << i;
    EXPECT_EQ(a.seg[i].ar_bytes, b.seg[i].ar_bytes) << i;
  }
  EXPECT_EQ(a.gdtr.base, b.gdtr.base);
  EXPECT_EQ(a.gdtr.limit, b.gdtr.limit);
  EXPECT_EQ(a.idtr.base, b.idtr.base);
  EXPECT_EQ(a.idtr.limit, b.idtr.limit);
  EXPECT_EQ(a.msr, b.msr);
  EXPECT_EQ(a.msr_written, b.msr_written);
}

TEST(VmcsSync, FoldedSaveMatchesThePerFieldLoop) {
  Rng rng(0x5A7E);
  for (int trial = 0; trial < 200; ++trial) {
    const RegisterFile regs = random_registers(rng);
    Vmcs folded = random_vmcs(rng);
    Vmcs reference;
    reference.restore_fields(folded.snapshot_fields());
    save_guest_state(regs, folded);
    reference_save(regs, reference);
    ASSERT_EQ(folded.snapshot_fields(), reference.snapshot_fields()) << trial;
  }
}

TEST(VmcsSync, FoldedLoadMatchesThePerFieldLoop) {
  Rng rng(0x10AD);
  for (int trial = 0; trial < 200; ++trial) {
    const Vmcs vmcs = random_vmcs(rng);
    RegisterFile folded = random_registers(rng);
    RegisterFile reference = folded;
    load_guest_state(vmcs, folded);
    reference_load(vmcs, reference);
    expect_same_registers(folded, reference);
  }
}

}  // namespace
}  // namespace iris::vcpu
