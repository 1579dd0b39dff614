#include "iris/replayer.h"

#include "vtx/vmx.h"

namespace iris {

Replayer::Replayer(hv::Hypervisor& hv, hv::Domain& dummy)
    : Replayer(hv, dummy, Config{}) {}

Replayer::Replayer(hv::Hypervisor& hv, hv::Domain& dummy, Config config)
    : hv_(&hv), dummy_(&dummy), config_(config) {}

Replayer::~Replayer() { remove_hooks(); }

bool Replayer::arm() {
  if (armed_) return true;
  hv::HvVcpu& vcpu = dummy_->vcpu();
  if (!vcpu.vmx.in_vmx_operation() || vcpu.vmcs.launch_state() !=
                                          vtx::VmcsLaunchState::kActiveCurrentLaunched) {
    if (!hv_->launch(*dummy_)) return false;
  }
  // Arm the continuous exit loop: activate the VMX-preemption timer with
  // a zero value so the CPU preempts the dummy VM before it executes a
  // single guest instruction (§V-B).
  // desired | timer is folded through the profile's pin-based masks,
  // like any VMM programming a control word (a no-op for every library
  // profile: all of them support the preemption timer, since replay is
  // impossible without it).
  const std::uint64_t pin = vcpu.vmcs.hw_read(vtx::VmcsField::kPinBasedVmExecControl);
  vcpu.vmcs.hw_write(vtx::VmcsField::kPinBasedVmExecControl,
                     hv_->capability_profile().pin_based.apply(
                         pin | vtx::kPinActivatePreemptionTimer));
  vcpu.vmcs.hw_write(vtx::VmcsField::kPreemptionTimerValue, 0);
  install_hooks();
  armed_ = true;
  return true;
}

void Replayer::install_hooks() {
  if (hooks_installed_) return;
  saved_ = hv_->hooks();
  auto& hooks = hv_->hooks();

  const auto prev_start = saved_.on_exit_start;
  hooks.on_exit_start = [this, prev_start](hv::HvVcpu& vcpu) {
    this->inject(vcpu);  // inject first, then any chained observer
    if (prev_start) prev_start(vcpu);
  };

  hooks.read_overlay = {override_value_.data(), override_gen_.data(), &live_gen_};
  hooks_installed_ = true;
}

void Replayer::remove_hooks() {
  if (!hooks_installed_) return;
  hv_->hooks() = saved_;
  hooks_installed_ = false;
}

void Replayer::inject(hv::HvVcpu& vcpu) {
  if (current_ == nullptr) return;
  hv_->coverage().hit(hv::Component::kIris, 10, 5);

  std::uint64_t injected_items = 0;
  // Invalidate the previous seed's overrides in O(1).
  if (++current_gen_ == 0) {
    override_gen_.fill(0);
    current_gen_ = 1;
  }
  // The read overlay applies this seed's stamps until submit_into ends.
  live_gen_ = config_.interpose_read_only ? current_gen_ : 0;

  if (config_.replay_guest_memory) {
    for (const auto& chunk : current_->memory) {
      dummy_->ram().write(chunk.gpa, chunk.bytes);
      ++injected_items;
    }
  }

  for (const auto& item : current_->items) {
    ++injected_items;
    if (item.is_gpr()) {
      // GPRs are simply copied into the hypervisor data structures
      // where the exit path saved them (§V-B).
      vcpu.saved_gprs[item.encoding] = item.value;
      continue;
    }
    const auto field = item.field();
    if (!field) continue;
    if (vtx::is_read_only(*field)) {
      // Read-only: interpose the vmread() return value. The item's
      // encoding is already the compact field index.
      override_value_[item.encoding] = item.value;
      override_gen_[item.encoding] = current_gen_;
    } else if (config_.write_writable_fields) {
      // Writable: VMWRITE the recorded value. This is hardware-level
      // (the IRIS callback must not record its own injection writes).
      vcpu.vmcs.hw_write(*field, item.value);
    }
  }
  hv_->clock().advance(hv_->costs().replay_inject_per_item * injected_items);
}

hv::HandleOutcome Replayer::submit(const VmSeed& seed) {
  hv::HandleOutcome outcome;
  submit_into(seed, outcome);
  return outcome;
}

void Replayer::submit_into(const VmSeed& seed, hv::HandleOutcome& outcome) {
  // Batched hand-off (§IX): a fetch pulls batch_size seeds across the
  // hypervisor boundary at full cost, then the rest of the batch is
  // served from the prefetched buffer. batch_size == 1 degenerates to
  // the paper's one-by-one scheme (a full fetch per seed).
  if (fetch_credit_ == 0) {
    hv_->clock().advance(hv_->costs().replay_seed_fetch);
    fetch_credit_ = std::max<std::size_t>(config_.batch_size, 1);
  }
  --fetch_credit_;
  current_ = &seed;
  ++submitted_;

  hv::PendingExit exit;
  exit.reason = vtx::ExitReason::kPreemptionTimer;  // the loop's real exit

  hv::HvVcpu& vcpu = dummy_->vcpu();
  if (config_.use_preemption_timer) {
    hv_->process_exit_into(*dummy_, vcpu, exit, outcome);
  } else {
    hv_->process_exit_no_entry_into(*dummy_, vcpu, exit, outcome);
  }
  current_ = nullptr;
  live_gen_ = 0;
}

void Replayer::submit_batch_into(std::span<const VmSeed> seeds,
                                 std::vector<hv::HandleOutcome>& outcomes) {
  outcomes.resize(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    submit_into(seeds[i], outcomes[i]);
  }
}

std::vector<hv::HandleOutcome> Replayer::submit_behavior(const VmBehavior& behavior) {
  std::vector<hv::HandleOutcome> outcomes;
  outcomes.reserve(behavior.size());
  for (const auto& rec : behavior) {
    outcomes.push_back(submit(rec.seed));
    const auto failure = outcomes.back().failure;
    if (failure == hv::FailureKind::kHypervisorCrash ||
        failure == hv::FailureKind::kVmCrash ||
        failure == hv::FailureKind::kHypervisorHang) {
      break;
    }
  }
  return outcomes;
}

}  // namespace iris
