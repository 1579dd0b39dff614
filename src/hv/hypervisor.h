// The Xen-like hardware-assisted hypervisor under test.
//
// Reproduces the control-flow structure the paper instruments (§II,
// Fig 2): a VM exit saves guest state into the VMCS and guest GPRs into
// hypervisor data structures, the exit dispatcher (vmx.c) VMREADs the
// exit information and guest state, per-reason handlers run hypervisor
// logic and VMWRITE guest-state updates, the interrupt assist (intr.c)
// may inject a vector, and VM entry re-checks the guest state (SDM 26.3)
// before resuming.
//
// IRIS instruments exactly three seams, mirroring the paper's Xen
// patches (§V): the vmread()/vmwrite() wrappers, a callback at the start
// of exit handling (GPR capture / seed injection), and the coverage
// bitmap. All three are exposed via InstrumentationHooks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hv/coverage.h"
#include "hv/domain.h"
#include "hv/failure.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "support/ring_log.h"
#include "support/rng.h"
#include "vtx/capability_profile.h"
#include "vtx/exit_reason.h"

namespace iris::hv {

/// A guest-originated VM exit about to be delivered to the hypervisor.
struct PendingExit {
  vtx::ExitReason reason = vtx::ExitReason::kPreemptionTimer;
  std::uint64_t qualification = 0;
  std::uint64_t instruction_len = 0;
  std::uint64_t intr_info = 0;
  std::uint64_t guest_physical = 0;
};

/// Replay-path interposition of vmread() results — the paper's
/// mechanism for read-only fields (§V-B) — as a plain table the vmread()
/// wrapper consults inline. `value` and `gen` are indexed by compact
/// VMCS field index. While `*live_gen` is non-zero, a vmread of a field
/// whose `gen` entry equals it returns that field's `value` entry
/// instead of the hardware value. The Replayer owns all three and keeps
/// the live generation non-zero only while it handles a seed.
struct ReadOverlay {
  const std::uint64_t* value = nullptr;
  const std::uint32_t* gen = nullptr;
  const std::uint32_t* live_gen = nullptr;  ///< null: no overlay installed

  [[nodiscard]] bool installed() const noexcept { return live_gen != nullptr; }
};

/// Seams IRIS compiles into the hypervisor (paper §V-A/§V-B).
struct InstrumentationHooks {
  /// Invoked by the vmread() wrapper with {field, value} after the read
  /// overlay was applied (the record path's VMREAD capture).
  std::function<void(vtx::VmcsField, std::uint64_t)> on_vmread;
  /// Invoked by the vmwrite() wrapper with the masked stored value (the
  /// accuracy metric's VMWRITE capture).
  std::function<void(vtx::VmcsField, std::uint64_t)> on_vmwrite;
  /// Replay-path read-only field interposition, applied before
  /// on_vmread sees the value.
  ReadOverlay read_overlay;
  /// Invoked at the very start of exit handling, before the dispatcher
  /// reads anything (the paper's GPR-buffering / seed-injection seam).
  std::function<void(HvVcpu&)> on_exit_start;
  /// Invoked after the handler and interrupt assist, before VM entry.
  std::function<void(HvVcpu&)> on_exit_end;
  /// Invoked whenever the hypervisor reads guest memory during exit
  /// handling (copy_from_guest). Implements the §IX future-work
  /// extension: recording the guest pages the handler dereferenced so
  /// replay can reproduce memory-dependent emulator paths.
  std::function<void(std::uint64_t gpa, std::span<const std::uint8_t> data)>
      on_guest_mem_read;
};

/// Everything the hypervisor did while handling one exit. Reusable: the
/// *_into entry points clear() an existing instance, keeping the
/// coverage block buffer and reason string capacity across exits.
struct HandleOutcome {
  bool entered = false;  ///< VM entry succeeded, guest resumed
  bool preemption_timer_fired = false;
  FailureKind failure = FailureKind::kNone;
  FailureCause cause = FailureCause::kNone;  ///< structured triage cause
  std::string failure_reason;
  ExitCoverage coverage;          ///< IRIS-filtered block set for this exit
  std::uint64_t cycles = 0;       ///< root-mode cycles spent
  std::uint32_t vmreads = 0;      ///< wrapper-level VMREAD count
  std::uint32_t vmwrites = 0;     ///< wrapper-level VMWRITE count
  std::optional<std::uint8_t> injected_vector;
  vtx::ExitReason dispatched_reason = vtx::ExitReason::kPreemptionTimer;

  /// Reset to the default-constructed state without releasing buffers.
  void clear() noexcept {
    entered = false;
    preemption_timer_fired = false;
    failure = FailureKind::kNone;
    cause = FailureCause::kNone;
    failure_reason.clear();
    coverage.clear();
    cycles = 0;
    vmreads = 0;
    vmwrites = 0;
    injected_vector.reset();
    dispatched_reason = vtx::ExitReason::kPreemptionTimer;
  }
};

class Hypervisor;

/// Per-exit view handlers operate through; owns the instrumented
/// vmread/vmwrite wrappers and the coverage shorthand.
class HandlerContext {
 public:
  HandlerContext(Hypervisor& hv, Domain& dom, HvVcpu& vcpu);

  /// Instrumented vmread() wrapper (Xen's vmread + IRIS callback).
  [[nodiscard]] std::uint64_t vmread(vtx::VmcsField field);

  /// Instrumented vmwrite() wrapper. Writes to read-only fields are
  /// architectural no-ops that latch an error (never reached by correct
  /// handler code; exercised by fuzzing).
  void vmwrite(vtx::VmcsField field, std::uint64_t value);

  [[nodiscard]] std::uint64_t gpr(vcpu::Gpr r) const noexcept;
  void set_gpr(vcpu::Gpr r, std::uint64_t v) noexcept;

  /// Coverage shorthand: mark block `id` of `component` with LOC weight.
  void cov(Component component, std::uint16_t id, std::uint8_t loc);

  /// Advance GUEST_RIP past the exiting instruction (Xen's
  /// update_guest_eip): vmread length + vmread RIP + vmwrite RIP.
  void advance_rip();

  [[nodiscard]] Domain& dom() noexcept { return *dom_; }
  [[nodiscard]] HvVcpu& vcpu() noexcept { return *vcpu_; }
  [[nodiscard]] Hypervisor& hv() noexcept { return *hv_; }

  [[nodiscard]] std::uint32_t vmread_count() const noexcept { return vmreads_; }
  [[nodiscard]] std::uint32_t vmwrite_count() const noexcept { return vmwrites_; }

 private:
  Hypervisor* hv_;
  Domain* dom_;
  HvVcpu* vcpu_;
  std::uint32_t vmreads_ = 0;
  std::uint32_t vmwrites_ = 0;
};

/// Handler signature: one per basic exit reason (Xen's vmx_vmexit_handler
/// switch arms).
using ExitHandler = void (*)(HandlerContext&);

class Hypervisor {
 public:
  /// `noise_seed` seeds the modeled asynchronous-event noise;
  /// `async_noise_prob` is the per-exit probability that an async event
  /// (timer tick / device interrupt) perturbs the exit path — the source
  /// of the paper's ≤30-LOC coverage noise (Fig 7). Zero disables it.
  /// `profile` selects the modeled CPU's VMX capability MSRs: launch()
  /// clamps its control fields through it and VM entry validates against
  /// it. Must outlive the hypervisor (library profiles are static).
  explicit Hypervisor(std::uint64_t noise_seed = 0x1715,
                      double async_noise_prob = 0.02,
                      const vtx::VmxCapabilityProfile& profile = vtx::baseline_profile());

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  /// Full-fidelity reset: return the hypervisor to the exact state
  /// `Hypervisor(noise_seed, async_noise_prob)` constructs — clock,
  /// coverage, failures, log, noise stream, hooks, hypercall table, and
  /// a single freshly reset Dom0 — WITHOUT paying for the expensive
  /// parts again. Domains beyond Dom0 are parked for reuse:
  /// create_domain() recycles them in place, skipping the ~4K eager EPT
  /// identity-map inserts a from-scratch domain costs. This is the
  /// pooled-VM-stack protocol (ROADMAP "Per-cell VM reuse"); equivalence
  /// with a fresh stack is checked by state_digest() in debug builds.
  void reset(std::uint64_t noise_seed, double async_noise_prob);

  /// Reset variant that also swaps the capability profile — the pooled
  /// VM stacks use it to retarget one stack at a different modeled CPU
  /// between campaign cells.
  void reset(std::uint64_t noise_seed, double async_noise_prob,
             const vtx::VmxCapabilityProfile& profile);

  /// The modeled CPU's capability profile.
  [[nodiscard]] const vtx::VmxCapabilityProfile& capability_profile() const noexcept {
    return *profile_;
  }

  /// Create a domain. Dom0 is created implicitly as domain 0. After a
  /// reset(), parked domains are recycled instead of built from scratch.
  Domain& create_domain(DomainRole role, std::uint64_t ram_bytes = 1ULL << 30);

  /// Park `dom` for recycling if it is the newest domain, is not Dom0 and
  /// is not marked dead; the next create_domain() then recycles it in
  /// place under the same id. A dead domain stays, so a recycled id can
  /// never inherit a stale dead-domain entry.
  void park_newest_domain(const Domain& dom);

  [[nodiscard]] Domain* domain(std::uint32_t id) noexcept;
  [[nodiscard]] std::size_t domain_count() const noexcept { return domains_.size(); }

  /// Bring a domain's vCPU under VMX control: VMXON, VMCLEAR, VMPTRLD,
  /// control-field programming, initial guest state, VMLAUNCH
  /// (paper Fig 1, steps 1-3).
  [[nodiscard]] bool launch(Domain& dom, std::size_t vcpu_index = 0);

  /// Deliver and completely handle one VM exit: context switch, IRIS
  /// seams, dispatch, interrupt assist, VM entry (paper Fig 1 steps 4-5).
  HandleOutcome process_exit(Domain& dom, HvVcpu& vcpu, const PendingExit& exit);

  /// Buffer-reusing variant for hot loops: `outcome` is cleared and
  /// refilled, keeping its coverage/string allocations across exits.
  void process_exit_into(Domain& dom, HvVcpu& vcpu, const PendingExit& exit,
                         HandleOutcome& outcome);

  /// Ablation support (DESIGN.md §4.2): handle an exit but loop in root
  /// mode WITHOUT performing the VM entry. Repeated use trips the hang
  /// watchdog exactly as the paper warns (§IV-B).
  HandleOutcome process_exit_no_entry(Domain& dom, HvVcpu& vcpu,
                                      const PendingExit& exit);
  void process_exit_no_entry_into(Domain& dom, HvVcpu& vcpu,
                                  const PendingExit& exit, HandleOutcome& outcome);

  // --- Hypercalls (Xen's hypercall table; §V-C). ---
  using HypercallFn = std::function<std::uint64_t(Domain&, HvVcpu&,
                                                  std::span<const std::uint64_t>)>;
  void register_hypercall(std::uint64_t nr, HypercallFn fn);
  [[nodiscard]] std::uint64_t dispatch_hypercall(std::uint64_t nr, Domain& dom,
                                                 HvVcpu& vcpu,
                                                 std::span<const std::uint64_t> args);

  // --- Guest memory accessors (Xen's copy_{to,from}_guest). ---
  bool copy_to_guest(Domain& dom, std::uint64_t gpa, std::span<const std::uint8_t> src);
  bool copy_from_guest(Domain& dom, std::uint64_t gpa, std::span<std::uint8_t> dst);

  // --- Services. ---
  [[nodiscard]] CoverageMap& coverage() noexcept { return coverage_; }
  [[nodiscard]] const CoverageMap& coverage() const noexcept { return coverage_; }
  [[nodiscard]] FailureManager& failures() noexcept { return failures_; }
  [[nodiscard]] const FailureManager& failures() const noexcept { return failures_; }
  [[nodiscard]] RingLog& log() noexcept { return log_; }
  [[nodiscard]] const RingLog& log() const noexcept { return log_; }
  [[nodiscard]] sim::Clock& clock() noexcept { return clock_; }
  [[nodiscard]] const sim::Clock& clock() const noexcept { return clock_; }
  [[nodiscard]] const sim::CostModel& costs() const noexcept { return costs_; }
  [[nodiscard]] InstrumentationHooks& hooks() noexcept { return hooks_; }
  [[nodiscard]] const InstrumentationHooks& hooks() const noexcept { return hooks_; }
  [[nodiscard]] Rng& noise_rng() noexcept { return noise_rng_; }
  [[nodiscard]] const Rng& noise_rng() const noexcept { return noise_rng_; }
  [[nodiscard]] const Domain* domain(std::uint32_t id) const noexcept {
    return id < domains_.size() ? domains_[id].get() : nullptr;
  }
  /// Registered hypercall numbers (reset-equivalence accounting).
  [[nodiscard]] std::size_t hypercall_count() const noexcept {
    return hypercalls_.size();
  }
  /// Domains parked by reset() and awaiting recycling.
  [[nodiscard]] std::size_t parked_domain_count() const noexcept {
    return parked_.size();
  }

  void set_async_noise_prob(double p) noexcept { async_noise_prob_ = p; }
  [[nodiscard]] double async_noise_prob() const noexcept { return async_noise_prob_; }

  /// Root-mode hang watchdog threshold (iterations without VM entry).
  [[nodiscard]] std::uint32_t hang_threshold() const noexcept { return hang_threshold_; }
  void set_hang_threshold(std::uint32_t t) noexcept { hang_threshold_ = t; }

 private:
  friend class HandlerContext;

  static constexpr std::uint32_t kDefaultHangThreshold = 1000;

  /// Never null; points into the static profile library.
  const vtx::VmxCapabilityProfile* profile_;

  void dispatch(HandlerContext& ctx, vtx::ExitReason reason);
  void async_noise(HandlerContext& ctx);
  void interrupt_assist(HandlerContext& ctx, HandleOutcome& outcome);
  bool validate_guest_context(HandlerContext& ctx);
  void register_platform(Domain& dom);

  sim::Clock clock_;
  sim::CostModel costs_;
  RingLog log_;
  CoverageMap coverage_;
  FailureManager failures_;
  Rng noise_rng_;
  double async_noise_prob_;
  std::uint32_t hang_threshold_ = kDefaultHangThreshold;
  InstrumentationHooks hooks_;
  std::vector<std::unique_ptr<Domain>> domains_;
  /// Domains parked by reset(), recycled by create_domain().
  std::vector<std::unique_ptr<Domain>> parked_;
  std::unordered_map<std::uint64_t, HypercallFn> hypercalls_;
};

/// Deterministic digest of every behavior-relevant piece of hypervisor
/// state: clock, coverage registry, failures, log, noise stream, hook
/// presence, hypercall table size, and the full per-domain state (RAM
/// contents, EPT, I/O registries, vLAPIC/IRQ/timer, vCPU register files,
/// VMCS). Two hypervisors with equal digests handle identical exit
/// sequences identically — the reset-stack ≡ fresh-stack proof obligation
/// of the pooled VM stacks (asserted in debug builds on every
/// PooledVm::reset, and directly testable in any build).
[[nodiscard]] std::uint64_t state_digest(const Hypervisor& hv);

/// Per-domain component of state_digest (exposed for focused tests).
[[nodiscard]] std::uint64_t state_digest(const Domain& dom);

/// Hypercall numbers (Xen-flavored; §V-C).
inline constexpr std::uint64_t kHypercallConsoleIo = 18;
inline constexpr std::uint64_t kHypercallVcpuOp = 24;
inline constexpr std::uint64_t kHypercallEventChannelOp = 32;
inline constexpr std::uint64_t kHypercallVmcsFuzzing = 63;  ///< xc_vmcs_fuzzing()

}  // namespace iris::hv
