// IRIS replaying component (paper §IV-B, §V-B).
//
// Submits recorded (or crafted) VM seeds to the hypervisor without
// executing any guest workload. A dummy VM is armed with the VMX
// preemption timer at zero so every VM entry is immediately pulled back
// into root mode before the guest retires an instruction; at the start
// of exit handling the seed is injected:
//   * the 15 GPRs are copied into the hypervisor's saved-register block;
//   * recorded VMCS fields that are writable are VMWRITten back;
//   * read-only fields (exit reason, qualification, I/O RCX/RSI/RDI...)
//     are interposed at the vmread() wrapper so the handler sees the
//     recorded values.
// The handler then runs against the recorded context, and the VM entry
// at the end re-validates the guest state (SDM 26.3) — the mechanism
// that keeps replayed/mutated seeds semantically checked.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "hv/hypervisor.h"
#include "iris/seed.h"

namespace iris {

class Replayer {
 public:
  struct Config {
    /// Replay through real VM entries driven by the preemption timer
    /// (the paper's design). False selects the rejected alternative — a
    /// root-mode handler loop with no VM entry — kept for the ablation
    /// bench: it skips entry checks and eventually trips the hang
    /// watchdog (§IV-B).
    bool use_preemption_timer = true;
    /// Interpose vmread() returns for read-only fields (§V-B). Disabled
    /// only by the ablation bench.
    bool interpose_read_only = true;
    /// VMWRITE recorded writable fields back into the VMCS.
    bool write_writable_fields = true;
    /// Seeds fetched per hand-off. 1 is the paper's one-by-one scheme;
    /// larger values enable the §IX batching optimization: the full
    /// fetch cost is paid once at the start of each batch and the next
    /// batch_size - 1 submissions ride the prefetched batch for free.
    std::size_t batch_size = 1;
    /// §IX extension: restore recorded guest-memory chunks into the
    /// dummy VM's RAM before handling, closing the memory-dependent
    /// emulator divergences of Fig 7. No-op for baseline seeds (which
    /// carry no memory).
    bool replay_guest_memory = true;

    friend bool operator==(const Config&, const Config&) = default;
  };

  Replayer(hv::Hypervisor& hv, hv::Domain& dummy);
  Replayer(hv::Hypervisor& hv, hv::Domain& dummy, Config config);
  ~Replayer();

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Launch the dummy VM and arm the preemption-timer exit loop
  /// (Fig 1 steps 1-3 + §V-B timer programming).
  [[nodiscard]] bool arm();

  /// Submit one seed (Fig 3 replay path). The returned outcome carries
  /// the coverage, VMWRITE counts and failure classification.
  hv::HandleOutcome submit(const VmSeed& seed);

  /// Buffer-reusing variant for the mutant hot loop: `outcome` is
  /// cleared and refilled, keeping its allocations across submissions.
  void submit_into(const VmSeed& seed, hv::HandleOutcome& outcome);

  /// Submit a whole batch through the same fetch-credit machinery as
  /// the one-by-one path (§IX batching): `outcomes` is resized to match
  /// and each element refilled in place. Because both paths share the
  /// credit accounting, a batch submission is cycle-identical to the
  /// equivalent sequence of submit_into calls.
  void submit_batch_into(std::span<const VmSeed> seeds,
                         std::vector<hv::HandleOutcome>& outcomes);

  /// Replay an entire recorded behavior in order. Stops at the first
  /// host-fatal failure; guest-fatal failures abort too (the dummy VM is
  /// gone). Returns one outcome per submitted seed.
  std::vector<hv::HandleOutcome> submit_behavior(const VmBehavior& behavior);

  [[nodiscard]] hv::Domain& dummy() noexcept { return *dummy_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_; }

 private:
  void install_hooks();
  void remove_hooks();
  void inject(hv::HvVcpu& vcpu);

  hv::Hypervisor* hv_;
  hv::Domain* dummy_;
  Config config_;
  bool armed_ = false;
  bool hooks_installed_ = false;
  hv::InstrumentationHooks saved_;

  const VmSeed* current_ = nullptr;
  /// Read-only field overrides for the seed being injected, indexed by
  /// compact VMCS field index and generation-stamped so arming the next
  /// seed is O(1) — no per-submission map churn in the mutant hot loop.
  /// The hypervisor's read overlay points at these tables.
  std::array<std::uint64_t, vtx::kNumVmcsFields> override_value_{};
  std::array<std::uint32_t, vtx::kNumVmcsFields> override_gen_{};
  std::uint32_t current_gen_ = 0;
  /// The overlay's live generation: current_gen_ while a seed is being
  /// handled with interpose_read_only on, 0 otherwise.
  std::uint32_t live_gen_ = 0;
  std::uint64_t submitted_ = 0;
  /// Seeds remaining in the currently prefetched batch; 0 forces a new
  /// fetch (full replay_seed_fetch cost) on the next submission.
  std::size_t fetch_credit_ = 0;
};

}  // namespace iris
