#include "iris/manager.h"

#include <string>

#include "support/flight_recorder.h"

namespace iris {

Manager::Manager(hv::Hypervisor& hv) : hv_(&hv) { register_hypercall(); }

void Manager::reset() {
  // Destruction order matters: tearing the replayer/recorder down while
  // the hypervisor still holds their chained hooks restores the saved
  // hook sets cleanly (Hypervisor::reset() clears hooks wholesale right
  // after, but a leak-free teardown keeps this usable on its own).
  replayer_.reset();
  if (hypercall_recorder_) {
    hypercall_recorder_->detach();
    hypercall_recorder_.reset();
  }
  db_ = SeedDb{};
  mode_ = Mode::kOff;
  test_vm_ = nullptr;
  dummy_vm_ = nullptr;
  test_snapshot_.reset();
  last_recorded_name_.clear();
}

hv::Domain& Manager::test_vm() {
  if (test_vm_ == nullptr) {
    test_vm_ = &hv_->create_domain(hv::DomainRole::kTest);
    const bool ok = hv_->launch(*test_vm_);
    if (!ok) {
      hv_->log().append(LogLevel::kError, hv_->clock().rdtsc(),
                        "test VM launch failed");
    }
  }
  return *test_vm_;
}

hv::Domain& Manager::dummy_vm() {
  if (dummy_vm_ == nullptr) {
    dummy_vm_ = &hv_->create_domain(hv::DomainRole::kDummy);
    const bool ok = hv_->launch(*dummy_vm_);
    if (!ok) {
      hv_->log().append(LogLevel::kError, hv_->clock().rdtsc(),
                        "dummy VM launch failed");
    }
  }
  return *dummy_vm_;
}

const VmBehavior& Manager::record_workload(guest::Workload workload, std::uint64_t n,
                                           std::uint64_t seed,
                                           Recorder::Config config) {
  mode_ = Mode::kRecord;
  const support::FlightSpan record_span(support::Phase::kRecord);
  hv::Domain& dom = test_vm();
  guest::GuestProgram program(workload, seed, n);
  VmBehavior behavior =
      iris::record_workload(*hv_, dom, dom.vcpu(), program, n, config);
  last_recorded_name_ = std::string(guest::to_string(workload));
  db_.store(last_recorded_name_, std::move(behavior));
  mode_ = Mode::kOff;
  return *db_.behavior(last_recorded_name_);
}

bool Manager::enable_replay(Replayer::Config config) {
  mode_ = Mode::kReplay;
  hv::Domain& dom = dummy_vm();
  replayer_ = std::make_unique<Replayer>(*hv_, dom, config);
  return replayer_->arm();
}

bool Manager::rearm_replay(Replayer::Config config) {
  // The fast path only applies when the requested config matches the
  // live replayer's; a config change needs the full rebuild.
  if (!replayer_ || !(replayer_->config() == config)) return enable_replay(config);
  // A snapshot revert restores the VMCS with the preemption timer still
  // programmed and leaves the instrumentation hooks installed, so the
  // existing replayer stays armed as-is.
  mode_ = Mode::kReplay;
  return replayer_->arm();
}

hv::HandleOutcome Manager::submit_seed(const VmSeed& seed) {
  if (!replayer_ && !enable_replay()) return {};
  return replayer_->submit(seed);
}

void Manager::submit_seed_into(const VmSeed& seed, hv::HandleOutcome& outcome) {
  if (!replayer_ && !enable_replay()) {
    outcome.clear();
    return;
  }
  replayer_->submit_into(seed, outcome);
}

void Manager::submit_batch_into(std::span<const VmSeed> seeds,
                                std::vector<hv::HandleOutcome>& outcomes) {
  if (!replayer_ && !enable_replay()) {
    outcomes.clear();
    return;
  }
  replayer_->submit_batch_into(seeds, outcomes);
}

ReplayedBehavior Manager::replay_and_record(const VmBehavior& behavior,
                                            Replayer::Config config) {
  ReplayedBehavior result;
  if (!enable_replay(config)) {
    result.aborted = true;
    return result;
  }
  mode_ = Mode::kRecordAndReplay;
  // The recorder chains after the replayer's injection hooks, so the
  // metrics describe the replayed execution (§IV-C).
  Recorder recorder(*hv_);
  recorder.attach();
  result.outcomes.reserve(behavior.size());
  for (const auto& rec : behavior) {
    auto outcome = replayer_->submit(rec.seed);
    recorder.finish_exit(outcome);
    const auto failure = outcome.failure;
    result.outcomes.push_back(std::move(outcome));
    if (failure == hv::FailureKind::kHypervisorCrash ||
        failure == hv::FailureKind::kVmCrash ||
        failure == hv::FailureKind::kHypervisorHang) {
      result.aborted = true;
      break;
    }
  }
  recorder.detach();
  result.behavior = recorder.take_trace();
  mode_ = Mode::kOff;
  return result;
}

std::vector<hv::HandleOutcome> Manager::replay(const VmBehavior& behavior,
                                               Replayer::Config config) {
  if (!enable_replay(config)) return {};
  auto outcomes = replayer_->submit_behavior(behavior);
  mode_ = Mode::kOff;
  return outcomes;
}

void Manager::save_test_snapshot() { test_snapshot_ = test_vm().snapshot(); }

void Manager::revert_test_vm() {
  if (test_snapshot_) test_vm().restore(*test_snapshot_);
}

void Manager::reset_dummy_vm() {
  replayer_.reset();
  // A fresh dummy VM: new domain, un-booted state (paper §VI-B replays
  // CPU-bound/IDLE from exactly this state to show the crash).
  dummy_vm_ = &hv_->create_domain(hv::DomainRole::kDummy);
  if (!hv_->launch(*dummy_vm_)) {
    hv_->log().append(LogLevel::kError, hv_->clock().rdtsc(),
                      "dummy VM relaunch failed");
  }
}

void Manager::revert_dummy_to_test_snapshot() {
  if (test_snapshot_) {
    replayer_.reset();  // re-arm against the restored state
    dummy_vm().restore(*test_snapshot_);
  }
}

void Manager::register_hypercall() {
  hv_->register_hypercall(
      hv::kHypercallVmcsFuzzing,
      [this](hv::Domain& dom, hv::HvVcpu& vcpu, std::span<const std::uint64_t> args) {
        return hypercall_backend(dom, vcpu, args);
      });
}

std::uint64_t Manager::hypercall_backend(hv::Domain& caller, hv::HvVcpu& /*vcpu*/,
                                         std::span<const std::uint64_t> args) {
  if (args.empty()) return static_cast<std::uint64_t>(-22);  // -EINVAL
  const auto cmd = static_cast<IrisCmd>(args[0]);
  switch (cmd) {
    case IrisCmd::kEnableRecord: {
      if (hypercall_recorder_) return 0;
      hypercall_recorder_ = std::make_unique<Recorder>(*hv_);
      hypercall_recorder_->attach();
      mode_ = Mode::kRecord;
      return 0;
    }
    case IrisCmd::kDisableRecord: {
      if (!hypercall_recorder_) return static_cast<std::uint64_t>(-22);
      hypercall_recorder_->detach();
      db_.store("hypercall-session", hypercall_recorder_->take_trace());
      hypercall_recorder_.reset();
      mode_ = Mode::kOff;
      return 0;
    }
    case IrisCmd::kSeedCount: {
      const VmBehavior* b = db_.behavior("hypercall-session");
      return b ? b->size() : 0;
    }
    case IrisCmd::kFetchSeed: {
      if (args.size() < 3) return static_cast<std::uint64_t>(-22);
      const VmBehavior* b = db_.behavior("hypercall-session");
      if (b == nullptr || args[1] >= b->size()) {
        return static_cast<std::uint64_t>(-34);  // -ERANGE
      }
      ByteWriter w;
      (*b)[args[1]].seed.serialize(w);
      if (!hv_->copy_to_guest(caller, args[2], w.data())) {
        return static_cast<std::uint64_t>(-14);  // -EFAULT
      }
      return w.size();
    }
    case IrisCmd::kEnableReplay:
      return enable_replay() ? 0 : static_cast<std::uint64_t>(-5);  // -EIO
    case IrisCmd::kSubmitSeed: {
      if (args.size() < 3) return static_cast<std::uint64_t>(-22);
      std::vector<std::uint8_t> buf(args[2]);
      if (!hv_->copy_from_guest(caller, args[1], buf)) {
        return static_cast<std::uint64_t>(-14);
      }
      ByteReader r(buf);
      auto seed = VmSeed::deserialize(r);
      if (!seed.ok()) return static_cast<std::uint64_t>(-22);
      const auto outcome = submit_seed(seed.value());
      return outcome.failure == hv::FailureKind::kNone ? 0 : 1;
    }
    case IrisCmd::kStatus:
      return static_cast<std::uint64_t>(mode_);
  }
  return static_cast<std::uint64_t>(-22);
}

}  // namespace iris
