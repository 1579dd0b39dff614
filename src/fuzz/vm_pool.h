// Pooled per-worker VM stacks: the only stacks a campaign runs on.
//
// A campaign cell needs a Hypervisor/Manager stack in exactly the state
// construction leaves it in — that is what makes cell results a pure
// function of (spec, config) and therefore sharding- and
// resume-independent. Building that state from scratch costs ~4K eager
// EPT identity-map inserts per domain plus domain launches. A PooledVm
// pays it once per worker: reset() returns the long-lived stack to the
// exact post-construction state (Hypervisor::reset + Manager::reset +
// hypercall rebind), and every build checks hv::state_digest(reset
// stack) == the digest of a fresh stack — the "pooled reuse leaks
// hypervisor-global state into later cells" hazard is checked, not
// hoped for. The campaign records every behavior on worker 0's stack
// before its workers start, and a sandbox child runs cell after cell on
// its copy of a worker's stack, so the check runs in Release too.
// tests/test_vm_pool.cpp holds campaigns against a fresh stack per cell.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "iris/manager.h"
#include "vtx/capability_profile.h"

namespace iris::fuzz {

/// One worker's long-lived Hypervisor/Manager stack.
class PooledVm {
 public:
  PooledVm(std::uint64_t hv_seed, double async_noise_prob);

  PooledVm(const PooledVm&) = delete;
  PooledVm& operator=(const PooledVm&) = delete;

  [[nodiscard]] hv::Hypervisor& hv() noexcept { return hv_; }
  [[nodiscard]] Manager& manager() noexcept { return manager_; }

  /// Restore the stack to the exact state `PooledVm(hv_seed, noise)`
  /// constructs (baseline capability profile). Checks digest equality
  /// with the fresh stack in every build: a mismatch raises a
  /// kPooledReset model fault (contained inside a sandbox child).
  void reset();

  /// Profile-matrix variant: restore the stack to the state a fresh
  /// `Hypervisor(hv_seed, noise, profile)` stack would be in. The
  /// reference digest for each profile is computed once per slot from a
  /// genuinely fresh throwaway stack, then memoized — so the reset≡fresh
  /// assertion stays as strong as the baseline one, and a baseline-only
  /// campaign never pays for a throwaway build.
  void reset(const vtx::VmxCapabilityProfile& profile);

  /// hv::state_digest of a fresh baseline stack — the value every
  /// reset() must reproduce.
  [[nodiscard]] std::uint64_t fresh_digest() const noexcept {
    return fresh_digest_;
  }
  /// Memoized fresh-stack digest for `profile` (computed on first use).
  [[nodiscard]] std::uint64_t fresh_digest(const vtx::VmxCapabilityProfile& profile);
  [[nodiscard]] std::uint64_t resets() const noexcept { return resets_; }

 private:
  std::uint64_t hv_seed_;
  double async_noise_prob_;
  hv::Hypervisor hv_;
  Manager manager_;
  std::uint64_t fresh_digest_;
  std::uint64_t resets_ = 0;
  /// Fresh-stack reference digests per non-baseline profile.
  std::map<vtx::ProfileId, std::uint64_t> profile_digests_;
};

/// Fixed-size pool of per-worker stacks, created lazily: a fully
/// checkpoint-resumed campaign that never runs a cell never builds one.
/// Thread contract: slot w is touched only by worker w (plus the main
/// thread strictly before workers start / after they join), so no
/// locking is needed; the slot table never reallocates.
class VmPool {
 public:
  VmPool(std::size_t workers, std::uint64_t hv_seed, double async_noise_prob)
      : hv_seed_(hv_seed),
        async_noise_prob_(async_noise_prob),
        slots_(workers) {}

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// The given worker's stack, constructed on first use.
  [[nodiscard]] PooledVm& worker(std::size_t index) {
    auto& slot = slots_.at(index);
    if (!slot) slot = std::make_unique<PooledVm>(hv_seed_, async_noise_prob_);
    return *slot;
  }

  /// Discard the given worker's stack; the next worker() call builds a
  /// fresh one. Sandbox mode calls this, with the worker's child retired,
  /// after a faulted attempt and before each re-probe execution: the
  /// parent's slot was never touched by the child (separate address
  /// space), but a harness that just died is exactly when "reset provably
  /// equals fresh" should be re-established from an actually fresh stack
  /// rather than assumed.
  void rebuild(std::size_t index) { slots_.at(index).reset(); }

  /// Stacks actually constructed (observability for tests/benches).
  [[nodiscard]] std::size_t constructed() const noexcept {
    std::size_t n = 0;
    for (const auto& slot : slots_) n += slot != nullptr ? 1 : 0;
    return n;
  }

 private:
  std::uint64_t hv_seed_;
  double async_noise_prob_;
  std::vector<std::unique_ptr<PooledVm>> slots_;
};

}  // namespace iris::fuzz
