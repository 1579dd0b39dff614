#include "hv/hypervisor.h"

#include <string>

#include "hv/devices.h"
#include "hv/handlers.h"
#include "support/flight_recorder.h"
#include "vcpu/vmcs_sync.h"
#include "vtx/entry_checks.h"

namespace iris::hv {

using vtx::VmcsField;

// ---------------------------------------------------------------------------
// HandlerContext
// ---------------------------------------------------------------------------

HandlerContext::HandlerContext(Hypervisor& hv, Domain& dom, HvVcpu& vcpu)
    : hv_(&hv), dom_(&dom), vcpu_(&vcpu) {}

std::uint64_t HandlerContext::vmread(vtx::VmcsField field) {
  // Xen's vmread() wrapper: one VMREAD plus the IRIS callback seam.
  hv_->coverage_.hit(Component::kVmcsWrap, 1, 2);
  std::uint64_t value = vcpu_->vmcs.hw_read(field);
  const ReadOverlay& overlay = hv_->hooks_.read_overlay;
  if (overlay.installed() && *overlay.live_gen != 0) {
    const int idx = vtx::compact_from_encoding(static_cast<std::uint16_t>(field));
    if (idx >= 0 && overlay.gen[idx] == *overlay.live_gen) value = overlay.value[idx];
  }
  if (hv_->hooks_.on_vmread) {
    hv_->hooks_.on_vmread(field, value);
  }
  ++vmreads_;
  hv_->clock_.advance(hv_->costs_.vmread);
  return value;
}

void HandlerContext::vmwrite(vtx::VmcsField field, std::uint64_t value) {
  hv_->coverage_.hit(Component::kVmcsWrap, 2, 2);
  const auto outcome = vcpu_->vmcs.vmwrite(field, value);
  if (outcome.succeeded() && hv_->hooks_.on_vmwrite) {
    hv_->hooks_.on_vmwrite(field, vcpu_->vmcs.hw_read(field));
  }
  if (!outcome.succeeded()) {
    hv_->coverage_.hit(Component::kVmcsWrap, 3, 2);
    hv_->log_.append(LogLevel::kWarn, hv_->clock_.rdtsc(),
                     std::string("vmwrite failed for ") +
                         std::string(vtx::to_string(field)));
  }
  ++vmwrites_;
  hv_->clock_.advance(hv_->costs_.vmwrite);
}

std::uint64_t HandlerContext::gpr(vcpu::Gpr r) const noexcept { return vcpu_->gpr(r); }

void HandlerContext::set_gpr(vcpu::Gpr r, std::uint64_t v) noexcept {
  vcpu_->set_gpr(r, v);
}

void HandlerContext::cov(Component component, std::uint16_t id, std::uint8_t loc) {
  hv_->coverage_.hit(component, id, loc);
  hv_->clock_.advance(hv_->costs_.handler_block);
}

void HandlerContext::advance_rip() {
  const std::uint64_t len = vmread(VmcsField::kVmExitInstructionLen);
  // Xen's update_guest_eip: ASSERT(inst_len <= MAX_INST_LEN). An
  // instruction length beyond 15 bytes is architecturally impossible —
  // seeing one means the VMCS is corrupt, and the host BUG()s (a major
  // hypervisor-crash source under VMCS-mutating fuzzing, §VII-4).
  if (len > 15) {
    hv_->coverage_.hit(Component::kVmx, 7, 2);
    hv_->failures().hypervisor_crash(
        hv_->clock_.rdtsc(),
        "update_guest_eip: instruction length " + std::to_string(len));
    return;
  }
  const std::uint64_t rip = vmread(VmcsField::kGuestRip);
  vmwrite(VmcsField::kGuestRip, rip + (len ? len : 1));
}

// ---------------------------------------------------------------------------
// Hypervisor
// ---------------------------------------------------------------------------

Hypervisor::Hypervisor(std::uint64_t noise_seed, double async_noise_prob,
                       const vtx::VmxCapabilityProfile& profile)
    : profile_(&profile), failures_(log_), noise_rng_(noise_seed),
      async_noise_prob_(async_noise_prob) {
  // Dom0 always exists (runs the IRIS CLI; paper §VI testbed).
  create_domain(DomainRole::kControl);
}

void Hypervisor::register_platform(Domain& dom) {
  if (dom.role() == DomainRole::kControl) return;
  register_pc_platform(dom.pio(), coverage_);
  // The vLAPIC window is MMIO-visible; route it to vcpu 0's APIC.
  HvVcpu* vcpu0 = &dom.vcpu(0);
  CoverageMap* cov = &coverage_;
  dom.mmio().register_range(
      mem::kApicMmioBase, mem::kApicMmioSize, "vlapic",
      [vcpu0, cov](std::uint64_t gpa, bool is_write, std::uint8_t,
                   std::uint64_t value) -> mem::IoResult {
        const auto offset = static_cast<std::uint32_t>(gpa - mem::kApicMmioBase);
        if (is_write) {
          vcpu0->lapic.write(offset, static_cast<std::uint32_t>(value), *cov);
          return {true, 0};
        }
        return {true, vcpu0->lapic.read(offset, *cov)};
      });
}

Domain& Hypervisor::create_domain(DomainRole role, std::uint64_t ram_bytes) {
  const auto id = static_cast<std::uint32_t>(domains_.size());
  if (!parked_.empty()) {
    // Recycle a parked domain: same fresh state, none of the eager
    // EPT-identity-map cost.
    domains_.push_back(std::move(parked_.back()));
    parked_.pop_back();
    domains_.back()->recycle(id, role, ram_bytes);
  } else {
    domains_.push_back(std::make_unique<Domain>(id, role, ram_bytes));
  }
  Domain& dom = *domains_.back();
  register_platform(dom);
  return dom;
}

void Hypervisor::park_newest_domain(const Domain& dom) {
  if (domains_.size() <= 1 || domains_.back().get() != &dom ||
      failures_.domain_is_dead(dom.id())) {
    return;
  }
  parked_.push_back(std::move(domains_.back()));
  domains_.pop_back();
}

void Hypervisor::reset(std::uint64_t noise_seed, double async_noise_prob,
                       const vtx::VmxCapabilityProfile& profile) {
  profile_ = &profile;
  reset(noise_seed, async_noise_prob);
}

void Hypervisor::reset(std::uint64_t noise_seed, double async_noise_prob) {
  // Park every DomU for recycling; Dom0 is reset in place so domain 0
  // exists throughout, exactly as after construction.
  for (std::size_t i = 1; i < domains_.size(); ++i) {
    parked_.push_back(std::move(domains_[i]));
  }
  domains_.resize(1);
  domains_[0]->recycle(0, DomainRole::kControl, domains_[0]->ram().size());

  clock_.reset();
  log_.clear();
  coverage_.reset();
  failures_.reset();
  noise_rng_.reseed(noise_seed);
  async_noise_prob_ = async_noise_prob;
  hang_threshold_ = kDefaultHangThreshold;
  hooks_ = InstrumentationHooks{};
  hypercalls_.clear();
}

Domain* Hypervisor::domain(std::uint32_t id) noexcept {
  return id < domains_.size() ? domains_[id].get() : nullptr;
}

bool Hypervisor::launch(Domain& dom, std::size_t vcpu_index) {
  HvVcpu& vcpu = dom.vcpu(vcpu_index);

  // Fig 1 steps 1-3: VMXON -> VMCLEAR -> VMPTRLD -> setup -> VMLAUNCH.
  if (!vcpu.vmx.in_vmx_operation() && !vcpu.vmx.vmxon().succeeded()) return false;
  if (!vcpu.vmx.vmclear(vcpu.vmcs).succeeded()) return false;
  if (!vcpu.vmx.vmptrld(vcpu.vmcs).succeeded()) return false;

  // Control fields the modeled Xen build programs, clamped through the
  // capability profile exactly as a VMM folds its desired controls
  // through the IA32_VMX_* MSRs (the baseline profile clamps nothing).
  const vtx::VmxCapabilityProfile& prof = *profile_;
  vcpu.vmx.set_capability_profile(prof);
  vcpu.vmcs.hw_write(VmcsField::kPinBasedVmExecControl,
                     prof.pin_based.apply(vtx::kPinExternalInterruptExiting |
                                          vtx::kPinNmiExiting));
  vcpu.vmcs.hw_write(VmcsField::kCpuBasedVmExecControl,
                     prof.proc_based.apply(vtx::kCpuHltExiting | vtx::kCpuRdtscExiting |
                                           vtx::kCpuUseIoBitmaps |
                                           vtx::kCpuUseMsrBitmaps |
                                           vtx::kCpuSecondaryControls));
  vcpu.vmcs.hw_write(VmcsField::kSecondaryVmExecControl,
                     prof.proc_based2.apply(vtx::kCpu2VirtualizeApicAccesses |
                                            vtx::kCpu2EnableEpt));
  vcpu.vmcs.hw_write(VmcsField::kVmEntryControls, prof.vm_entry.apply(0));
  vcpu.vmcs.hw_write(VmcsField::kVmExitControls, prof.vm_exit.apply(0));
  vcpu.vmcs.hw_write(VmcsField::kVmcsLinkPointer, ~0ULL);
  vcpu.vmcs.hw_write(VmcsField::kCr0GuestHostMask,
                     vtx::kCr0Pe | vtx::kCr0Pg | vtx::kCr0Ne);
  vcpu.vmcs.hw_write(VmcsField::kCr4GuestHostMask, vtx::kCr4Vmxe | vtx::kCr4Pae);

  // Initial guest state: the architectural reset state, with the CR0/CR4
  // bits the profile's fixed-bit MSRs demand (baseline: CR0.NE only).
  vcpu.regs.cr0 = prof.apply_cr0(vcpu.regs.cr0);
  vcpu.regs.cr4 = prof.apply_cr4(vcpu.regs.cr4);
  vcpu.regs.rflags |= 0x2;
  vcpu::save_guest_state(vcpu.regs, vcpu.vmcs);
  vcpu.vmcs.hw_write(VmcsField::kGuestActivityState, vtx::kActivityActive);
  vcpu.mode_cache = vcpu::classify_cr0(vcpu.regs.cr0);

  const auto entry = vcpu.vmx.vmlaunch();
  if (!entry.vmx.succeeded() || !entry.entered) {
    log_.append(LogLevel::kError, clock_.rdtsc(),
                "VMLAUNCH failed for d" + std::to_string(dom.id()));
    return false;
  }
  vcpu.in_guest = true;
  clock_.advance(costs_.vm_entry_switch);
  return true;
}

HandleOutcome Hypervisor::process_exit(Domain& dom, HvVcpu& vcpu,
                                       const PendingExit& exit) {
  HandleOutcome outcome;
  process_exit_into(dom, vcpu, exit, outcome);
  return outcome;
}

void Hypervisor::process_exit_into(Domain& dom, HvVcpu& vcpu,
                                   const PendingExit& exit,
                                   HandleOutcome& outcome) {
  outcome.clear();
  if (failures_.host_is_down() || failures_.domain_is_dead(dom.id())) {
    outcome.failure = failures_.host_is_down() ? FailureKind::kHypervisorCrash
                                               : FailureKind::kVmCrash;
    outcome.cause = FailureCause::kTargetAlreadyDown;
    outcome.failure_reason = "target already down";
    return;
  }

  const std::uint64_t t0 = clock_.rdtsc();
  const std::size_t failures_before = failures_.events().size();

  // --- VM exit: hardware context switch (paper §II) plus Xen's fixed
  // root-mode exit-path overhead. ---
  clock_.advance(costs_.vm_exit_switch + costs_.root_fixed_overhead);
  vcpu.vmx.deliver_exit(exit.reason, exit.qualification, exit.instruction_len,
                        exit.intr_info, exit.guest_physical);
  vcpu::save_guest_state(vcpu.regs, vcpu.vmcs);
  vcpu.saved_gprs = vcpu.regs.gpr;  // GPRs go to hypervisor memory
  vcpu.in_guest = false;

  coverage_.begin_exit();
  HandlerContext ctx(*this, dom, vcpu);

  // --- IRIS seam: start of exit handling (record GPRs / inject seed). ---
  if (hooks_.on_exit_start) hooks_.on_exit_start(vcpu);

  // --- Dispatch (vmx_vmexit_handler). ---
  clock_.advance(costs_.handler_dispatch);
  const std::uint64_t raw_reason = ctx.vmread(VmcsField::kVmExitReason);
  const bool entry_failure = (raw_reason >> 31) & 1;
  const std::uint16_t basic = raw_reason & 0xFFFF;

  if (support::flight_recorder_armed()) [[unlikely]] {
    support::crumb_vm_exit(basic, vcpu.vmcs.hw_read(VmcsField::kGuestRip));
  }

  if (!validate_guest_context(ctx)) {
    // Guest context inconsistent with the cached mode: domain is killed
    // before any handler runs ("bad RIP for mode 0", paper §VI-B).
    outcome.failure = FailureKind::kVmCrash;
    outcome.cause = failures_.events().back().cause;
    outcome.failure_reason = failures_.events().back().reason;
    coverage_.end_exit_into(outcome.coverage);
    outcome.cycles = clock_.rdtsc() - t0;
    outcome.vmreads = ctx.vmread_count();
    outcome.vmwrites = ctx.vmwrite_count();
    return;
  }

  if (entry_failure) {
    coverage_.hit(Component::kVmx, 2, 4);
    handlers::invalid_guest_state(ctx);
    outcome.dispatched_reason = vtx::ExitReason::kInvalidGuestState;
  } else if (!vtx::is_defined_reason(basic)) {
    // Xen BUG(): "unexpected VM exit reason". Host goes down.
    coverage_.hit(Component::kVmx, 3, 2);
    failures_.hypervisor_crash(clock_.rdtsc(), "unexpected VM exit reason " +
                                                   std::to_string(basic));
  } else {
    const auto reason = static_cast<vtx::ExitReason>(basic);
    outcome.dispatched_reason = reason;
    dispatch(ctx, reason);
  }

  // --- Modeled asynchronous events (Fig 7's coverage-noise source). ---
  if (!failures_.host_is_down()) {
    async_noise(ctx);
    dom.vpt().tick_to(clock_.rdtsc(), coverage_);
    interrupt_assist(ctx, outcome);
  }

  coverage_.end_exit_into(outcome.coverage);
  clock_.advance(costs_.reason_cost(outcome.dispatched_reason));

  const bool new_failure = failures_.events().size() > failures_before;
  if (failures_.host_is_down()) {
    outcome.failure = FailureKind::kHypervisorCrash;
    outcome.cause = failures_.events().back().cause;
    outcome.failure_reason = failures_.events().back().reason;
  } else if (new_failure || failures_.domain_is_dead(dom.id())) {
    outcome.failure = failures_.events().back().kind;
    outcome.cause = failures_.events().back().cause;
    outcome.failure_reason = failures_.events().back().reason;
  } else {
    // --- VM entry (VMRESUME, Fig 1 step 5). ---
    const auto entry = vcpu.vmx.vmresume();
    if (!entry.vmx.succeeded()) {
      failures_.hypervisor_crash(clock_.rdtsc(), "VMRESUME VMfail",
                                 FailureCause::kVmInstructionFail);
      outcome.failure = FailureKind::kHypervisorCrash;
      outcome.cause = FailureCause::kVmInstructionFail;
      outcome.failure_reason = "VMRESUME VMfail";
    } else if (entry.failed_guest_state_checks()) {
      std::string description = vtx::describe(entry.violations);
      failures_.vm_crash(dom.id(), clock_.rdtsc(),
                         "VM entry failed: " + description,
                         FailureCause::kEntryCheckViolation);
      outcome.failure = FailureKind::kVmCrash;
      outcome.cause = FailureCause::kEntryCheckViolation;
      outcome.failure_reason = std::move(description);
    } else {
      clock_.advance(costs_.vm_entry_switch);
      // Hardware clears the event-injection valid bit once the event is
      // delivered through the entry (SDM 26.8.3).
      vcpu.vmcs.hw_write(VmcsField::kVmEntryIntrInfoField, 0);
      vcpu::load_guest_state(vcpu.vmcs, vcpu.regs);
      vcpu.regs.gpr = vcpu.saved_gprs;
      vcpu.in_guest = true;
      vcpu.root_mode_streak = 0;
      outcome.entered = true;
      outcome.preemption_timer_fired = entry.preemption_timer_fired;
    }
  }

  outcome.cycles = clock_.rdtsc() - t0;
  outcome.vmreads = ctx.vmread_count();
  outcome.vmwrites = ctx.vmwrite_count();
}

HandleOutcome Hypervisor::process_exit_no_entry(Domain& dom, HvVcpu& vcpu,
                                                const PendingExit& exit) {
  HandleOutcome outcome;
  process_exit_no_entry_into(dom, vcpu, exit, outcome);
  return outcome;
}

void Hypervisor::process_exit_no_entry_into(Domain& dom, HvVcpu& vcpu,
                                            const PendingExit& exit,
                                            HandleOutcome& outcome) {
  // Ablation mode: loop in root without VM entry. The watchdog treats a
  // long streak as a hung CPU (paper §IV-B's rejected design).
  outcome.clear();
  if (failures_.host_is_down()) {
    outcome.failure = FailureKind::kHypervisorCrash;
    outcome.cause = FailureCause::kTargetAlreadyDown;
    return;
  }
  const std::uint64_t t0 = clock_.rdtsc();
  vcpu.vmx.deliver_exit(exit.reason, exit.qualification, exit.instruction_len,
                        exit.intr_info, exit.guest_physical);
  coverage_.begin_exit();
  HandlerContext ctx(*this, dom, vcpu);
  if (hooks_.on_exit_start) hooks_.on_exit_start(vcpu);
  clock_.advance(costs_.handler_dispatch);
  const std::uint16_t basic = ctx.vmread(VmcsField::kVmExitReason) & 0xFFFF;
  if (vtx::is_defined_reason(basic)) {
    outcome.dispatched_reason = static_cast<vtx::ExitReason>(basic);
    dispatch(ctx, outcome.dispatched_reason);
  }
  coverage_.end_exit_into(outcome.coverage);

  if (++vcpu.root_mode_streak >= hang_threshold_) {
    failures_.hypervisor_hang(clock_.rdtsc(),
                              "no VM entry after " +
                                  std::to_string(vcpu.root_mode_streak) +
                                  " root-mode iterations");
    outcome.failure = FailureKind::kHypervisorHang;
    outcome.cause = FailureCause::kWatchdog;
    outcome.failure_reason = "hang watchdog";
  }
  outcome.cycles = clock_.rdtsc() - t0;
  outcome.vmreads = ctx.vmread_count();
  outcome.vmwrites = ctx.vmwrite_count();
}

void Hypervisor::dispatch(HandlerContext& ctx, vtx::ExitReason reason) {
  coverage_.hit(Component::kVmx, 1, 6);  // vmx_vmexit_handler prologue
  const ExitHandler handler = handlers::lookup(reason);
  if (handler == nullptr) {
    // Defined reason the build never enables exiting for: Xen BUG().
    coverage_.hit(Component::kVmx, 4, 2);
    failures_.hypervisor_crash(
        clock_.rdtsc(),
        "unhandled VM exit reason " + std::string(vtx::to_string(reason)));
    return;
  }
  handler(ctx);
}

void Hypervisor::async_noise(HandlerContext& ctx) {
  if (async_noise_prob_ <= 0.0) return;
  if (!noise_rng_.chance(async_noise_prob_)) return;
  // An asynchronous host event lands during root-mode execution: the
  // timer tick or a device interrupt touches vlapic/irq/vpt code.
  coverage_.hit(Component::kIntr, 10, 4);
  switch (noise_rng_.below(3)) {
    case 0:
      ctx.dom().irq().assert_vector(0x30 + (noise_rng_.below(4) & 0xFF) * 8,
                                    coverage_);
      break;
    case 1:
      coverage_.hit(Component::kVpt, 10, 3);
      ctx.dom().vpt().tick_to(clock_.rdtsc() + 36'000'000, coverage_);
      break;
    default:
      coverage_.hit(Component::kVlapic, 50, 3);
      ctx.vcpu().lapic.inject(0xEF, coverage_);
      break;
  }
}

void Hypervisor::interrupt_assist(HandlerContext& ctx, HandleOutcome& outcome) {
  coverage_.hit(Component::kIntr, 1, 5);  // hvm_intr_assist on the exit path
  Domain& dom = ctx.dom();
  HvVcpu& vcpu = ctx.vcpu();

  if (dom.vpt().pending()) {
    coverage_.hit(Component::kIntr, 2, 3);
    dom.irq().assert_vector(dom.vpt().consume(coverage_), coverage_);
  }

  const std::uint64_t rflags = vcpu.vmcs.hw_read(VmcsField::kGuestRflags);
  const std::uint64_t blocking = vcpu.vmcs.hw_read(VmcsField::kGuestInterruptibility);
  const bool interruptible = (rflags & vtx::kRflagsIf) && (blocking & 0x3) == 0;

  const auto vector = dom.irq().intr_assist(vcpu.lapic, interruptible, coverage_);
  if (vector) {
    coverage_.hit(Component::kIntr, 3, 4);
    ctx.vmwrite(VmcsField::kVmEntryIntrInfoField,
                (1ULL << 31) | *vector);  // external interrupt, valid
    outcome.injected_vector = vector;
    // Waking a halted vCPU returns it to the active state.
    if (vcpu.vmcs.hw_read(VmcsField::kGuestActivityState) == vtx::kActivityHlt) {
      coverage_.hit(Component::kIntr, 4, 3);
      ctx.vmwrite(VmcsField::kGuestActivityState, vtx::kActivityActive);
    }
  } else if (dom.irq().want_window()) {
    coverage_.hit(Component::kIntr, 5, 3);
    const std::uint64_t cpu_ctl = vcpu.vmcs.hw_read(VmcsField::kCpuBasedVmExecControl);
    ctx.vmwrite(VmcsField::kCpuBasedVmExecControl, cpu_ctl | (1ULL << 2));
  }
}

bool Hypervisor::validate_guest_context(HandlerContext& ctx) {
  // Xen sanity-checks the guest context against its cached abstractions
  // when it picks up an exit; a 64-bit RIP while the vCPU is believed to
  // be in real mode is the paper's "bad RIP for mode 0" crash (§VI-B).
  HvVcpu& vcpu = ctx.vcpu();
  const std::uint64_t rip = ctx.vmread(VmcsField::kGuestRip);
  if (vcpu.mode_cache == vcpu::CpuMode::kMode1 && rip > 0x10FFEF) {
    coverage_.hit(Component::kVmx, 6, 3);
    failures_.vm_crash(ctx.dom().id(), clock_.rdtsc(),
                       "bad RIP for mode 0 (rip=0x" + std::to_string(rip) + ")",
                       FailureCause::kBadGuestContext);
    return false;
  }
  return true;
}

void Hypervisor::register_hypercall(std::uint64_t nr, HypercallFn fn) {
  hypercalls_[nr] = std::move(fn);
}

std::uint64_t Hypervisor::dispatch_hypercall(std::uint64_t nr, Domain& dom,
                                             HvVcpu& vcpu,
                                             std::span<const std::uint64_t> args) {
  coverage_.hit(Component::kHypercall, 1, 4);
  clock_.advance(costs_.hypercall_base);
  const auto it = hypercalls_.find(nr);
  if (it == hypercalls_.end()) {
    coverage_.hit(Component::kHypercall, 2, 2);
    return static_cast<std::uint64_t>(-38);  // -ENOSYS
  }
  coverage_.hit(Component::kHypercall, 3, 2);
  return it->second(dom, vcpu, args);
}

bool Hypervisor::copy_to_guest(Domain& dom, std::uint64_t gpa,
                               std::span<const std::uint8_t> src) {
  coverage_.hit(Component::kHvm, 1, 3);  // copy_to_user_hvm
  return dom.ram().write(gpa, src);
}

bool Hypervisor::copy_from_guest(Domain& dom, std::uint64_t gpa,
                                 std::span<std::uint8_t> dst) {
  coverage_.hit(Component::kHvm, 2, 3);  // copy_from_user_hvm
  const bool ok = dom.ram().read(gpa, dst);
  if (ok && hooks_.on_guest_mem_read) {
    hooks_.on_guest_mem_read(gpa, dst);
  }
  return ok;
}

}  // namespace iris::hv
