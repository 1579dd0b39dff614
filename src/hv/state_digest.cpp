// state_digest(): the pooled-VM-stack determinism proof.
//
// Hashes every piece of hypervisor state that can influence how a
// future exit is handled: the simulated clock, the coverage registry
// (in first-hit order — the registry view feeds the campaign's merged
// bitmaps), failure events, the console ring, the noise stream, hook
// and hypercall registration, and the complete per-domain state down to
// VMCS field arrays and vLAPIC bitmaps. PooledVm::reset() asserts the
// digest of a reset stack equals the digest captured right after
// construction, turning the "reuse leaks hypervisor-global state into
// later cells" hazard into a checked invariant instead of a hope.
//
// Deliberately excluded: monotonic bookkeeping that cannot change
// observable behavior (AddressSpace write/membership generations,
// CoverageMap epoch values — stamps are only ever compared for equality
// with the current epoch) and the opaque insides of std::function hooks
// (presence is hashed; contents cannot be).
#include "hv/hypervisor.h"

#include <bit>
#include <string_view>

namespace iris::hv {
namespace {

struct Mixer {
  std::uint64_t h = 0x1495ULL;

  void mix(std::uint64_t v) noexcept {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  void mix_str(std::string_view s) noexcept {
    mix(s.size());
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
    for (const char c : s) {
      fnv = (fnv ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
    }
    mix(fnv);
  }
};

void mix_segment(Mixer& m, const vcpu::Segment& seg) {
  m.mix(seg.selector);
  m.mix(seg.base);
  m.mix(seg.limit);
  m.mix(seg.ar_bytes);
}

void mix_regs(Mixer& m, const vcpu::RegisterFile& regs) {
  for (const std::uint64_t g : regs.gpr) m.mix(g);
  m.mix(regs.rip);
  m.mix(regs.rsp);
  m.mix(regs.rflags);
  m.mix(regs.cr0);
  m.mix(regs.cr2);
  m.mix(regs.cr3);
  m.mix(regs.cr4);
  m.mix(regs.dr7);
  for (const auto& seg : regs.seg) mix_segment(m, seg);
  m.mix(regs.gdtr.base);
  m.mix(regs.gdtr.limit);
  m.mix(regs.idtr.base);
  m.mix(regs.idtr.limit);
  for (const std::uint64_t v : regs.msr) m.mix(v);
  m.mix(regs.msr_written);
}

void mix_vcpu(Mixer& m, const HvVcpu& vcpu) {
  m.mix(vcpu.domain_id);
  mix_regs(m, vcpu.regs);
  for (const std::uint64_t g : vcpu.saved_gprs) m.mix(g);
  for (const std::uint64_t f : vcpu.vmcs.snapshot_fields()) m.mix(f);
  m.mix(static_cast<std::uint64_t>(vcpu.vmcs.launch_state()));
  m.mix(static_cast<std::uint64_t>(vcpu.vmcs.last_error()));
  m.mix(vcpu.vmx.in_vmx_operation() ? 1u : 0u);
  m.mix(vcpu.vmx.current_vmcs() != nullptr ? 1u : 0u);
  m.mix(static_cast<std::uint64_t>(vcpu.mode_cache));
  m.mix(vcpu.lapic.digest());
  m.mix(vcpu.in_guest ? 1u : 0u);
  m.mix(vcpu.root_mode_streak);
}

}  // namespace

std::uint64_t state_digest(const Domain& dom) {
  Mixer m;
  m.mix(dom.id());
  m.mix(static_cast<std::uint64_t>(dom.role()));
  // RAM: observable contents + bound, not materialization history.
  m.mix(dom.ram().size());
  m.mix(dom.ram().content_digest());
  m.mix(dom.ept().digest());
  m.mix(dom.pio().digest());
  m.mix(dom.mmio().digest());
  m.mix(dom.vpt().pending_ticks());
  m.mix(dom.vpt().last_tick_tsc());
  m.mix(dom.vpt().missed_ticks());
  m.mix(dom.vpt().vector());
  m.mix(dom.irq().digest());
  m.mix(dom.vcpu_count());
  for (std::size_t i = 0; i < dom.vcpu_count(); ++i) {
    mix_vcpu(m, dom.vcpu(i));
  }
  return m.h;
}

std::uint64_t state_digest(const Hypervisor& hv) {
  Mixer m;
  m.mix(hv.clock().rdtsc());
  m.mix(std::bit_cast<std::uint64_t>(hv.async_noise_prob()));
  m.mix(hv.hang_threshold());
  m.mix(hv.noise_rng().digest());

  // Capability profile: id plus the full mask set, so a pooled reset
  // that retargets a stack at a different modeled CPU can never pass
  // the reset≡fresh assertion against the wrong reference digest.
  const vtx::VmxCapabilityProfile& prof = hv.capability_profile();
  m.mix(static_cast<std::uint64_t>(prof.id));
  for (const vtx::BitDefs* defs :
       {&prof.pin_based, &prof.proc_based, &prof.proc_based2, &prof.vm_exit,
        &prof.vm_entry, &prof.cr0_fixed, &prof.cr4_fixed}) {
    m.mix(defs->must_one);
    m.mix(defs->may_one);
  }
  m.mix(prof.activity_state_support);

  // Hook presence (the replayer/recorder leave these installed when a
  // cell aborts mid-flight; a clean reset must clear them).
  const InstrumentationHooks& hooks = hv.hooks();
  m.mix((hooks.on_vmread ? 1u : 0u) | (hooks.on_vmwrite ? 2u : 0u) |
        (hooks.read_overlay.installed() ? 4u : 0u) | (hooks.on_exit_start ? 8u : 0u) |
        (hooks.on_guest_mem_read ? 32u : 0u));
  m.mix(hv.hypercall_count());

  // Coverage registry in first-hit order: the order feeds the campaign's
  // per-cell coverage lists, so it is behavior, not bookkeeping.
  const CoverageMap& cov = hv.coverage();
  m.mix(cov.registered_blocks().size());
  for (const BlockKey key : cov.registered_blocks()) {
    m.mix(key);
    m.mix(cov.loc_of(key));
  }

  const FailureManager& failures = hv.failures();
  m.mix(failures.host_is_down() ? 1u : 0u);
  m.mix(failures.events().size());
  for (const FailureEvent& ev : failures.events()) {
    m.mix(static_cast<std::uint64_t>(ev.kind));
    m.mix(static_cast<std::uint64_t>(ev.cause));
    m.mix(ev.domain_id);
    m.mix(ev.tsc);
    m.mix_str(ev.reason);
  }

  m.mix(hv.log().size());
  for (const LogEntry& entry : hv.log()) {
    m.mix(static_cast<std::uint64_t>(entry.level));
    m.mix(entry.tsc);
    m.mix_str(entry.text);
  }

  m.mix(hv.domain_count());
  for (std::uint32_t id = 0; id < hv.domain_count(); ++id) {
    const Domain* dom = hv.domain(id);
    if (dom == nullptr) continue;
    m.mix(state_digest(*dom));
    m.mix(failures.domain_is_dead(id) ? 1u : 0u);
  }
  return m.h;
}

}  // namespace iris::hv
