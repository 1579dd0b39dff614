#include "fuzz/vm_pool.h"

#include <chrono>

#include "support/flight_recorder.h"
#include "support/model_fault.h"
#include "support/telemetry.h"

namespace iris::fuzz {

PooledVm::PooledVm(std::uint64_t hv_seed, double async_noise_prob)
    : hv_seed_(hv_seed),
      async_noise_prob_(async_noise_prob),
      hv_(hv_seed, async_noise_prob),
      manager_(hv_),
      fresh_digest_(hv::state_digest(hv_)) {}

void PooledVm::reset() { reset(vtx::baseline_profile()); }

void PooledVm::reset(const vtx::VmxCapabilityProfile& profile) {
  const support::FlightSpan reset_span(support::Phase::kReset);
  const auto reset_started = std::chrono::steady_clock::now();
  // Manager first: tearing down the replayer restores the hook chain it
  // saved, keeping teardown leak-free even though the hypervisor reset
  // clears the hooks wholesale right after.
  manager_.reset();
  hv_.reset(hv_seed_, async_noise_prob_, profile);
  manager_.rebind();
  ++resets_;
  {
    auto& reg = support::metrics();
    static const support::MetricId resets = reg.counter_id("pool.resets");
    static const support::MetricId reset_us = reg.histogram_id("pool.reset_us");
    reg.add(resets);
    reg.observe(reset_us,
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - reset_started)
                    .count());
  }
  // Model-fault site (fires before the digest so an injected fault is
  // classified as a pooled-reset break, not a fidelity mismatch).
  support::modelfault::check_site("model_pooled_reset",
                                  support::modelfault::Layer::kPooledReset);
  // The determinism proof: a reset stack is indistinguishable from a
  // fresh one built for the same profile, so a cell cannot observe
  // which it ran on. state_digest hashes the profile itself, so a
  // stale-profile reset cannot slip through on a mask coincidence.
  // Routed through modelfault::raise rather than assert: inside a
  // sandboxed cell a genuine fidelity break becomes a contained,
  // classified kModelFault instead of an opaque SIGABRT. Checked in
  // every build, because a sandbox child reuses its stack for cell after
  // cell in Release too; the digest costs tens of microseconds a reset.
  if (hv::state_digest(hv_) != fresh_digest(profile)) {
    support::modelfault::raise(support::modelfault::ModelFault{
        support::modelfault::Layer::kPooledReset, 1,
        "PooledVm::reset left residual hypervisor state"});
  }
}

std::uint64_t PooledVm::fresh_digest(const vtx::VmxCapabilityProfile& profile) {
  if (profile.is_baseline()) return fresh_digest_;
  const auto [it, inserted] = profile_digests_.try_emplace(profile.id, 0);
  if (inserted) {
    // Throwaway fresh stack: one Hypervisor + Manager construction per
    // (slot, profile), the same shape the ctor digested for baseline.
    hv::Hypervisor reference(hv_seed_, async_noise_prob_, profile);
    Manager reference_manager(reference);
    it->second = hv::state_digest(reference);
  }
  return it->second;
}

}  // namespace iris::fuzz
