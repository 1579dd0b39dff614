// Unit tests for the SDM 26.3 guest-state entry checks — the mechanism
// that keeps replayed/mutated VM seeds semantically valid (paper §IV-B).
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "hv/hypervisor.h"
#include "support/failpoints.h"
#include "support/model_fault.h"
#include "support/sandbox_frame.h"
#include "support/serialize.h"
#include "vtx/entry_checks.h"
#include "vtx/vmcs.h"
#include "vtx/vmx.h"

namespace iris::vtx {
namespace {

/// A guest state that passes every modeled check.
Vmcs valid_vmcs() {
  Vmcs vmcs;
  vmcs.hw_write(VmcsField::kGuestCr0, kCr0Pe | kCr0Ne | kCr0Et);
  vmcs.hw_write(VmcsField::kGuestRflags, 0x2);
  vmcs.hw_write(VmcsField::kVmcsLinkPointer, ~0ULL);
  vmcs.hw_write(VmcsField::kGuestCsArBytes, 0x9B);
  vmcs.hw_write(VmcsField::kGuestTrArBytes, 0x8B);
  vmcs.hw_write(VmcsField::kGuestSsArBytes, 0x93);
  vmcs.hw_write(VmcsField::kGuestActivityState, kActivityActive);
  return vmcs;
}

bool has_rule(const std::vector<EntryCheckViolation>& v, std::string_view needle) {
  for (const auto& viol : v) {
    if (viol.rule.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(EntryChecks, ValidStatePasses) {
  const auto vmcs = valid_vmcs();
  EXPECT_TRUE(check_guest_state(vmcs).empty());
}

TEST(EntryChecks, PagingRequiresProtectedMode) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCr0, kCr0Pg | kCr0Ne | kCr0Et);  // PG without PE
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "CR0.PG=1 requires CR0.PE=1"));
}

TEST(EntryChecks, NotWriteThroughRequiresCacheDisable) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCr0, kCr0Pe | kCr0Ne | kCr0Et | kCr0Nw);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "CR0.NW=1 requires CR0.CD=1"));
}

TEST(EntryChecks, NeIsFixedToOne) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCr0, kCr0Pe | kCr0Et);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "CR0.NE fixed"));
}

TEST(EntryChecks, Cr4ReservedBits) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCr4, 1ULL << 11);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "CR4 reserved"));
}

TEST(EntryChecks, LmaRequiresPaging) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestIa32Efer, kEferLma);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "EFER.LMA=1 requires CR0.PG=1"));
}

TEST(EntryChecks, LongModeRequiresPae) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCr0, kCr0Pe | kCr0Pg | kCr0Ne | kCr0Et);
  vmcs.hw_write(VmcsField::kGuestIa32Efer, kEferLma | kEferLme);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "requires CR4.PAE"));
}

TEST(EntryChecks, RflagsReservedBitOne) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestRflags, 0x0);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "RFLAGS bit 1"));
}

TEST(EntryChecks, RflagsMustBeZeroBits) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestRflags, 0x2 | (1ULL << 3));
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "RFLAGS reserved"));
}

TEST(EntryChecks, Vm86FlagInvalidInLongMode) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCr0, kCr0Pe | kCr0Pg | kCr0Ne | kCr0Et);
  vmcs.hw_write(VmcsField::kGuestCr4, kCr4Pae);
  vmcs.hw_write(VmcsField::kGuestIa32Efer, kEferLma | kEferLme);
  vmcs.hw_write(VmcsField::kGuestRflags, 0x2 | kRflagsVm);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "RFLAGS.VM=1 invalid"));
}

TEST(EntryChecks, EventInjectionRequiresInterruptsEnabled) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kVmEntryIntrInfoField, (1ULL << 31) | 0x30);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "requires RFLAGS.IF=1"));
  vmcs.hw_write(VmcsField::kGuestRflags, 0x2 | kRflagsIf);
  EXPECT_TRUE(check_guest_state(vmcs).empty());
}

TEST(EntryChecks, RipAbove32BitsOutsideLongMode) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestRip, 0x1'00000000ULL);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "RIP has bits above 31"));
}

TEST(EntryChecks, NonCanonicalRipInLongMode) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCr0, kCr0Pe | kCr0Pg | kCr0Ne | kCr0Et);
  vmcs.hw_write(VmcsField::kGuestCr4, kCr4Pae);
  vmcs.hw_write(VmcsField::kGuestIa32Efer, kEferLma | kEferLme);
  vmcs.hw_write(VmcsField::kGuestCsArBytes, 0x9B | (1ULL << 13));  // L bit
  vmcs.hw_write(VmcsField::kGuestRip, 0x8000'00000000ULL);  // non-canonical
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "RIP must be canonical"));
}

TEST(EntryChecks, CsMustBeCodeSegment) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCsArBytes, 0x93);  // data type
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "CS must be an accessed code"));
}

TEST(EntryChecks, CsMustBePresent) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCsArBytes, 0x1B);  // P=0
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "CS must be present"));
}

TEST(EntryChecks, UnusableCsSkipsChecks) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCsArBytes, 1ULL << 16);  // unusable
  EXPECT_FALSE(has_rule(check_guest_state(vmcs), "CS must"));
}

TEST(EntryChecks, TrMustBeBusyTss) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestTrArBytes, 0x89);  // available TSS, not busy
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "TR must be a busy TSS"));
}

TEST(EntryChecks, TrTiFlagMustBeZero) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestTrSelector, 0x4C);  // TI set
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "TR.TI"));
}

TEST(EntryChecks, SsRplMustMatchCsRpl) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCsSelector, 0x08);  // RPL 0
  vmcs.hw_write(VmcsField::kGuestSsSelector, 0x13);  // RPL 3
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "SS.RPL"));
}

TEST(EntryChecks, RealModeSkipsSegmentChecks) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestCr0, kCr0Ne | kCr0Et);  // PE=0
  vmcs.hw_write(VmcsField::kGuestCsArBytes, 0x93);
  vmcs.hw_write(VmcsField::kGuestTrArBytes, 0x82);
  EXPECT_TRUE(check_guest_state(vmcs).empty());
}

TEST(EntryChecks, DescriptorTableBasesMustBeCanonical) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestGdtrBase, 0x8000'00000000ULL);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "GDTR base"));
  vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestIdtrBase, 0x8000'00000000ULL);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "IDTR base"));
}

TEST(EntryChecks, ActivityStateRange) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestActivityState, 7);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "activity state"));
  vmcs.hw_write(VmcsField::kGuestActivityState, kActivityHlt);
  EXPECT_TRUE(check_guest_state(vmcs).empty());
}

TEST(EntryChecks, InterruptibilityReservedBits) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestInterruptibility, 0x100);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "interruptibility reserved"));
}

TEST(EntryChecks, StiAndMovSsExclusive) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestRflags, 0x2 | kRflagsIf);
  vmcs.hw_write(VmcsField::kGuestInterruptibility,
                kIntrBlockingBySti | kIntrBlockingByMovSs);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "cannot both be set"));
}

TEST(EntryChecks, StiBlockingRequiresIf) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestInterruptibility, kIntrBlockingBySti);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "STI blocking requires"));
}

TEST(EntryChecks, HltActivityIncompatibleWithBlocking) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestRflags, 0x2 | kRflagsIf);
  vmcs.hw_write(VmcsField::kGuestActivityState, kActivityHlt);
  vmcs.hw_write(VmcsField::kGuestInterruptibility, kIntrBlockingBySti);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "HLT activity incompatible"));
}

TEST(EntryChecks, VmcsLinkPointerMustBeAllOnes) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kVmcsLinkPointer, 0x1000);
  EXPECT_TRUE(has_rule(check_guest_state(vmcs), "link pointer"));
}

TEST(EntryChecks, DescribeRendersViolations) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestRflags, 0x0);
  const auto text = describe(check_guest_state(vmcs));
  EXPECT_NE(text.find("GUEST_RFLAGS"), std::string::npos);
  EXPECT_NE(text.find("check(s) failed"), std::string::npos);
}

TEST(EntryChecks, MultipleViolationsAccumulate) {
  auto vmcs = valid_vmcs();
  vmcs.hw_write(VmcsField::kGuestRflags, 0x0);
  vmcs.hw_write(VmcsField::kVmcsLinkPointer, 0);
  EXPECT_GE(check_guest_state(vmcs).size(), 2u);
}

// --- describe(): byte-identical to the ostringstream formatter it replaced.

/// The previous iostream implementation, kept as the reference.
std::string describe_with_ostream(const std::vector<EntryCheckViolation>& violations) {
  std::ostringstream os;
  os << violations.size() << " guest-state check(s) failed:";
  for (const auto& viol : violations) {
    os << " [" << to_string(viol.field) << ": " << viol.rule << " (value 0x" << std::hex
       << viol.value << std::dec << ")]";
  }
  return os.str();
}

TEST(EntryChecksDescribe, ZeroValueGolden) {
  const std::vector<EntryCheckViolation> v = {
      {"RFLAGS bit 1 must be 1", VmcsField::kGuestRflags, 0}};
  const std::string golden =
      "1 guest-state check(s) failed: [GUEST_RFLAGS: RFLAGS bit 1 must be 1 (value 0x0)]";
  EXPECT_EQ(describe(v), golden);
  EXPECT_EQ(describe_with_ostream(v), golden);
}

TEST(EntryChecksDescribe, FullWidthValueGolden) {
  const std::vector<EntryCheckViolation> v = {
      {"VMCS link pointer must be FFFFFFFF_FFFFFFFF", VmcsField::kVmcsLinkPointer,
       0xFEDCBA9876543210ULL}};
  const std::string golden =
      "1 guest-state check(s) failed: [VMCS_LINK_POINTER: VMCS link pointer must be "
      "FFFFFFFF_FFFFFFFF (value 0xfedcba9876543210)]";
  EXPECT_EQ(describe(v), golden);
  EXPECT_EQ(describe_with_ostream(v), golden);
  const std::vector<EntryCheckViolation> all_ones = {
      {"RIP must be canonical in 64-bit mode", VmcsField::kGuestRip, ~0ULL}};
  EXPECT_EQ(describe(all_ones), describe_with_ostream(all_ones));
}

TEST(EntryChecksDescribe, ThreeViolationsGolden) {
  const std::vector<EntryCheckViolation> v = {
      {"CR0.PG=1 requires CR0.PE=1", VmcsField::kGuestCr0, 0x80000020},
      {"RFLAGS reserved bit set", VmcsField::kGuestRflags, 0x400002},
      {"TR must be a busy TSS", VmcsField::kGuestTrArBytes, 0x89}};
  const std::string golden =
      "3 guest-state check(s) failed: [GUEST_CR0: CR0.PG=1 requires CR0.PE=1 (value "
      "0x80000020)] [GUEST_RFLAGS: RFLAGS reserved bit set (value 0x400002)] "
      "[GUEST_TR_AR_BYTES: TR must be a busy TSS (value 0x89)]";
  EXPECT_EQ(describe(v), golden);
  EXPECT_EQ(describe_with_ostream(v), golden);
  EXPECT_EQ(describe({}), describe_with_ostream({}));
}

// --- The VMRESUME entry-check memo. ---

/// Every VMCS field the modeled checks read (EntryCheckInputs).
constexpr std::array<VmcsField, 23> kCheckedFields = {
    VmcsField::kPinBasedVmExecControl, VmcsField::kCpuBasedVmExecControl,
    VmcsField::kSecondaryVmExecControl, VmcsField::kVmExitControls,
    VmcsField::kVmEntryControls,       VmcsField::kGuestCr0,
    VmcsField::kGuestCr3,              VmcsField::kGuestCr4,
    VmcsField::kGuestIa32Efer,         VmcsField::kGuestRflags,
    VmcsField::kGuestRip,              VmcsField::kVmEntryIntrInfoField,
    VmcsField::kGuestCsSelector,       VmcsField::kGuestCsArBytes,
    VmcsField::kGuestSsSelector,       VmcsField::kGuestSsArBytes,
    VmcsField::kGuestTrSelector,       VmcsField::kGuestTrArBytes,
    VmcsField::kGuestGdtrBase,         VmcsField::kGuestIdtrBase,
    VmcsField::kGuestActivityState,    VmcsField::kGuestInterruptibility,
    VmcsField::kVmcsLinkPointer,
};

std::vector<EntryCheckViolation> fresh_verdict(const Vmcs& vmcs,
                                               const VmxCapabilityProfile& profile) {
  auto violations = check_control_fields(vmcs, profile);
  if (violations.empty()) violations = check_guest_state(vmcs, profile);
  return violations;
}

void expect_same_violations(const std::vector<EntryCheckViolation>& got,
                            const std::vector<EntryCheckViolation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].rule, want[i].rule);
    EXPECT_EQ(got[i].field, want[i].field);
    EXPECT_EQ(got[i].value, want[i].value);
  }
}

/// Flip every bit of every checked field of a launched vCPU in turn and
/// compare each VMRESUME verdict with the un-memoized checks. Each
/// flipped state is entered twice, so a passing one is also judged by a
/// memo hit; restoring the field must pass again.
/// Returns false when `profile` rejects the base state itself.
bool check_memo_against_fresh_checks(const VmxCapabilityProfile& profile,
                                     bool protected_mode) {
  hv::Hypervisor hv(1, 0.0, profile);
  hv::Domain& dom = hv.create_domain(hv::DomainRole::kTest);
  EXPECT_TRUE(hv.launch(dom)) << profile.name;
  VmxCpu& vmx = dom.vcpu().vmx;
  Vmcs& vmcs = dom.vcpu().vmcs;
  if (protected_mode) {
    vmcs.hw_write(VmcsField::kGuestCr0, vmcs.hw_read(VmcsField::kGuestCr0) | kCr0Pe);
    vmcs.hw_write(VmcsField::kGuestCsArBytes, 0x9B);
    vmcs.hw_write(VmcsField::kGuestTrArBytes, 0x8B);
    vmcs.hw_write(VmcsField::kGuestSsArBytes, 0x93);
  }
  if (!fresh_verdict(vmcs, profile).empty()) return false;
  EXPECT_TRUE(vmx.vmresume().entered) << profile.name;

  for (const VmcsField field : kCheckedFields) {
    const std::uint64_t base = vmcs.hw_read(field);
    for (int bit = 0; bit < 64; ++bit) {
      vmcs.hw_write(field, base ^ (1ULL << bit));
      for (int round = 0; round < 2; ++round) {
        const EntryResult entry = vmx.vmresume();
        const auto expected = fresh_verdict(vmcs, profile);
        EXPECT_EQ(entry.entered, expected.empty())
            << profile.name << ' ' << to_string(field) << " bit " << bit;
        expect_same_violations(entry.violations, expected);
      }
      vmcs.hw_write(field, base);
      EXPECT_TRUE(vmx.vmresume().entered)
          << profile.name << ' ' << to_string(field) << " bit " << bit;
    }
  }
  return true;
}

TEST(EntryCheckMemo, VerdictMatchesFreshChecksForEveryBitFlip) {
  for (const VmxCapabilityProfile& profile : profile_library()) {
    // The launched reset state passes every profile (launch() enters).
    EXPECT_TRUE(check_memo_against_fresh_checks(profile, /*protected_mode=*/false))
        << profile.name;
  }
}

TEST(EntryCheckMemo, VerdictMatchesFreshChecksInProtectedMode) {
  std::size_t checked = 0;
  for (const VmxCapabilityProfile& profile : profile_library()) {
    checked += check_memo_against_fresh_checks(profile, /*protected_mode=*/true) ? 1 : 0;
  }
  EXPECT_GT(checked, 0u);
}

TEST(EntryCheckMemo, ProfileSwitchClearsTheMemo) {
  // A state that passes the baseline profile but not a profile with
  // stricter fixed bits must fail after the switch, although the same
  // inputs passed (and were memoized) just before.
  hv::Hypervisor hv(1, 0.0);
  hv::Domain& dom = hv.create_domain(hv::DomainRole::kTest);
  ASSERT_TRUE(hv.launch(dom));
  VmxCpu& vmx = dom.vcpu().vmx;
  ASSERT_TRUE(vmx.vmresume().entered);
  std::size_t rejected = 0;
  for (const VmxCapabilityProfile& profile : profile_library()) {
    vmx.set_capability_profile(profile);
    const auto expected = fresh_verdict(dom.vcpu().vmcs, profile);
    const EntryResult entry = vmx.vmresume();
    EXPECT_EQ(entry.entered, expected.empty()) << profile.name;
    expect_same_violations(entry.violations, expected);
    rejected += expected.empty() ? 0 : 1;
  }
  EXPECT_GT(rejected, 0u);
}

/// Fork a child that launches a vCPU, arms
/// `model_vmentry:modelfault:after=<skip>` and then runs VMRESUMEs
/// (memo hits on an unchanged VMCS, or misses when `move_rip` bumps
/// GUEST_RIP before each). Returns the 0-based index of the VMRESUME
/// that raised the model fault, or -1 with a gtest failure.
int faulting_vmresume(int skip, bool move_rip) {
  int fds[2];
  if (::pipe(fds) != 0) {
    ADD_FAILURE() << "pipe";
    return -1;
  }
  void* shared = ::mmap(nullptr, sizeof(std::atomic<int>), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shared == MAP_FAILED) {
    ADD_FAILURE() << "mmap";
    return -1;
  }
  auto* attempt = new (shared) std::atomic<int>(-1);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    hv::Hypervisor hv(1, 0.0);
    hv::Domain& dom = hv.create_domain(hv::DomainRole::kTest);
    if (!hv.launch(dom)) ::_exit(10);
    // Armed after VMLAUNCH, so the rule counts VMRESUMEs only.
    const std::string spec = "model_vmentry:modelfault:after=" + std::to_string(skip);
    if (!support::failpoints::configure(spec).ok()) ::_exit(11);
    support::modelfault::set_sink_fd(fds[1]);
    Vmcs& vmcs = dom.vcpu().vmcs;
    for (int i = 0; i < 2 * skip + 8; ++i) {
      if (move_rip) {
        vmcs.hw_write(VmcsField::kGuestRip, vmcs.hw_read(VmcsField::kGuestRip) + 1);
      }
      attempt->store(i);
      if (!dom.vcpu().vmx.vmresume().entered) ::_exit(12);
    }
    ::_exit(13);  // the failpoint never fired
  }
  ::close(fds[1]);
  std::vector<std::uint8_t> frame;
  std::uint8_t buf[256];
  for (;;) {
    const ::ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    frame.insert(frame.end(), buf, buf + n);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  const int faulted_at = attempt->load();
  ::munmap(shared, sizeof(std::atomic<int>));

  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child status " << status;
  const auto payload =
      support::decode_frame(frame, support::modelfault::kModelFaultFrameMagic);
  if (!payload.ok()) {
    ADD_FAILURE() << "no intact model-fault frame on the pipe";
    return -1;
  }
  ByteReader r(payload.value());
  const auto fault = support::modelfault::deserialize_model_fault(r);
  if (!fault.ok()) {
    ADD_FAILURE() << "malformed model-fault payload";
    return -1;
  }
  EXPECT_EQ(fault.value().layer, support::modelfault::Layer::kVmEntry);
  EXPECT_NE(fault.value().message.find("model_vmentry"), std::string::npos);
  return faulted_at;
}

TEST(EntryCheckMemo, ModelVmentryFiresOnEveryPassingEntryWhileTheMemoHits) {
  for (const int skip : {0, 3, 7}) {
    EXPECT_EQ(faulting_vmresume(skip, /*move_rip=*/false), skip) << "after=" << skip;
  }
}

TEST(EntryCheckMemo, ModelVmentryFiresOnEveryPassingEntryWhenTheMemoMisses) {
  for (const int skip : {0, 3, 7}) {
    EXPECT_EQ(faulting_vmresume(skip, /*move_rip=*/true), skip) << "after=" << skip;
  }
}

}  // namespace
}  // namespace iris::vtx
