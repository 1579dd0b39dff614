#include "replica.h"

#include <map>
#include <optional>
#include <string>

#include "fuzz/vm_pool.h"
#include "iris/recorder.h"

namespace ledger {
namespace {

using namespace iris;

/// Wrap whatever IRIS currently has on the start-of-exit seam so the time
/// spent in it accumulates into `*sink`. The wrapper lives in the hook
/// slot it replaced: the next Replayer/Recorder teardown restores the
/// hooks it saved and drops the wrapper with them, so nothing here
/// outlives the object whose hook it times.
void time_exit_start_hook(hv::Hypervisor& hv, std::int64_t* sink) {
  auto& hooks = hv.hooks();
  auto inner = hooks.on_exit_start;
  if (!inner) return;
  hooks.on_exit_start = [inner = std::move(inner), sink](hv::HvVcpu& vcpu) {
    const std::int64_t started = ticks();
    inner(vcpu);
    *sink += ticks() - started;
  };
}

bool fatal_for_record(hv::FailureKind kind) {
  return kind == hv::FailureKind::kHypervisorCrash || kind == hv::FailureKind::kVmCrash;
}

}  // namespace

std::vector<std::pair<hv::BlockKey, std::uint8_t>> cell_coverage(
    const hv::CoverageMap& coverage) {
  std::vector<std::pair<hv::BlockKey, std::uint8_t>> blocks;
  blocks.reserve(coverage.registered_blocks().size());
  for (const hv::BlockKey block : coverage.registered_blocks()) {
    if (hv::block_component(block) == hv::Component::kIris) continue;
    blocks.emplace_back(block, coverage.loc_of(block));
  }
  return blocks;
}

const VmBehavior& traced_record_workload(Manager& manager, guest::Workload workload,
                                         std::uint64_t exits, std::uint64_t seed,
                                         Tracer& tracer) {
  hv::Hypervisor& hv = manager.hv();
  hv::Domain& dom = manager.test_vm();
  hv::HvVcpu& vcpu = dom.vcpu();
  guest::GuestProgram program(workload, seed, exits);
  Recorder recorder(hv);
  recorder.attach();
  time_exit_start_hook(hv, &tracer.hook_ticks);

  hv::HandleOutcome outcome;
  std::int64_t prev = ticks();
  for (std::uint64_t i = 0; i < exits; ++i) {
    const hv::PendingExit exit = program.next(hv, dom, vcpu);
    const std::int64_t generated = ticks();
    tracer.add(kGuestNext, generated - prev);
    hv.process_exit_into(dom, vcpu, exit, outcome);
    const std::int64_t handled = ticks();
    const std::int64_t capture = tracer.hook_ticks;
    tracer.hook_ticks = 0;
    tracer.add(kCapture, capture);
    tracer.add(kProcessExit + reason_bucket(outcome.dispatched_reason),
               handled - generated - capture, 2);
    recorder.finish_exit(outcome);
    prev = ticks();
    tracer.add(kFinishExit, prev - handled);
    if (fatal_for_record(outcome.failure)) break;
  }
  recorder.detach();
  const std::int64_t taking = ticks();
  VmBehavior behavior = recorder.take_trace();
  const std::string name(guest::to_string(workload));
  manager.db().store(name, std::move(behavior));
  tracer.add(kTakeTrace, ticks() - taking);
  return *manager.db().behavior(name);
}

fuzz::TestCaseResult traced_test_case(Manager& manager, const fuzz::TestCaseSpec& spec,
                                      const VmBehavior& w,
                                      const fuzz::Fuzzer::Config& config,
                                      Tracer& tracer) {
  fuzz::TestCaseResult result;
  result.spec = spec;
  fuzz::Mutator mutator(spec.rng_seed);

  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i].seed.reason == spec.reason) candidates.push_back(i);
  }
  if (candidates.empty()) return result;
  result.target_index = candidates[mutator.rng().below(candidates.size())];
  const VmSeed& target_seed = w[result.target_index].seed;

  // Walk to s1 (Fuzzer::walk_to_target).
  std::int64_t t = ticks();
  manager.hv().failures().reset();
  manager.reset_dummy_vm();
  std::int64_t next = ticks();
  tracer.add(kResetDummy, next - t);
  t = next;
  const bool armed = manager.enable_replay(config.replay);
  next = ticks();
  tracer.add(kEnableReplay, next - t);
  if (!armed) return result;
  time_exit_start_hook(manager.hv(), &tracer.hook_ticks);

  // One replayed seed: IRIS's injection seam vs. the hypervisor's own
  // exit handling, bucketed by the reason it dispatched.
  auto charge_submit = [&tracer](std::int64_t from, std::int64_t to,
                                 const hv::HandleOutcome& outcome, std::size_t phase) {
    const std::int64_t inject = tracer.hook_ticks;
    tracer.hook_ticks = 0;
    tracer.add(kInject, inject);
    tracer.add(kProcessExit + reason_bucket(outcome.dispatched_reason),
               to - from - inject, 2);
    tracer.add_phase(phase, to - from);
  };

  t = ticks();
  for (std::size_t i = 0; i < result.target_index; ++i) {
    const auto outcome = manager.submit_seed(w[i].seed);
    next = ticks();
    charge_submit(t, next, outcome, kWalkSubmit);
    t = next;
    if (outcome.failure != hv::FailureKind::kNone) return result;
  }
  result.ran = true;

  const auto baseline = manager.submit_seed(target_seed);
  next = ticks();
  charge_submit(t, next, baseline, kWalkSubmit);
  t = next;
  hv::CoverageAccumulator covered(manager.hv().coverage());
  covered.add(baseline.coverage);
  result.baseline_loc = covered.total_loc();
  next = ticks();
  tracer.add(kCoverageAdd, next - t);
  t = next;

  hv::Domain& dummy = manager.dummy_vm();
  const auto s1 = dummy.snapshot();
  next = ticks();
  tracer.add(kSnapshot, next - t);

  VmSeed mutant;
  hv::HandleOutcome outcome;
  std::size_t mutant_index = 0;
  std::int64_t prev = ticks();
  for (std::size_t m = 0; m < spec.mutants; ++m) {
    fuzz::AppliedMutation applied;
    if (!mutator.mutate_into(target_seed, spec.area, mutant, &applied)) break;
    ++result.executed;
    const std::size_t index = mutant_index++;
    const std::int64_t mutated = ticks();
    tracer.add(kMutate, mutated - prev);

    manager.submit_seed_into(mutant, outcome);
    const std::int64_t submitted = ticks();
    charge_submit(mutated, submitted, outcome, kMutantSubmit);
    result.new_loc += covered.add(outcome.coverage);
    prev = ticks();
    tracer.add(kCoverageAdd, prev - submitted);

    switch (outcome.failure) {
      case hv::FailureKind::kNone:
        continue;
      case hv::FailureKind::kVmCrash:
        ++result.vm_crashes;
        if (outcome.cause == hv::FailureCause::kEntryCheckViolation) {
          ++result.entry_check_rejections;
        }
        break;
      case hv::FailureKind::kHypervisorCrash:
        ++result.hv_crashes;
        break;
      case hv::FailureKind::kVmHang:
      case hv::FailureKind::kHypervisorHang:
        ++result.hangs;
        break;
    }
    if (result.crashes.size() < config.max_archived_crashes) {
      result.crashes.push_back(fuzz::CrashRecord{mutant, applied, outcome.failure,
                                                 outcome.failure_reason, index});
    }
    manager.hv().failures().reset();
    dummy.restore(s1);
    const std::int64_t restored = ticks();
    tracer.add(kRestore, restored - prev);
    const bool rearmed = manager.rearm_replay(config.replay);
    prev = ticks();
    tracer.add(kRearm, prev - restored);
    if (!rearmed) break;
  }

  result.coverage_increase_pct =
      result.baseline_loc == 0
          ? 0.0
          : 100.0 * static_cast<double>(result.new_loc) /
                static_cast<double>(result.baseline_loc);
  return result;
}

fuzz::CampaignResult traced_campaign(const std::vector<fuzz::TestCaseSpec>& grid,
                                     const fuzz::CampaignConfig& config,
                                     Tracer& tracer) {
  fuzz::CampaignResult out;
  out.results.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) out.results[i].spec = grid[i];
  std::vector<std::vector<std::pair<hv::BlockKey, std::uint8_t>>> cell_cov(grid.size());

  // The worker's pooled stack, built on first use like VmPool::worker.
  std::optional<fuzz::PooledVm> slot;
  auto pooled = [&]() -> fuzz::PooledVm& {
    if (!slot) {
      const std::int64_t started = ticks();
      slot.emplace(config.hv_seed, config.async_noise_prob);
      tracer.add(kPoolBuild, ticks() - started);
    }
    return *slot;
  };
  auto reset = [&](fuzz::PooledVm& vm, const vtx::VmxCapabilityProfile& profile) {
    const std::int64_t started = ticks();
    vm.reset(profile);
    tracer.add(kPoolReset, ticks() - started);
  };

  std::map<guest::Workload, VmBehavior> behaviors;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const fuzz::TestCaseSpec& spec = grid[i];
    tracer.open("cell", kCellOther);
    auto it = behaviors.find(spec.workload);
    if (it == behaviors.end()) {
      tracer.open("record", kRecordOther);
      fuzz::PooledVm& vm = pooled();
      reset(vm, vtx::baseline_profile());
      it = behaviors
               .emplace(spec.workload,
                        traced_record_workload(vm.manager(), spec.workload,
                                               config.record_exits,
                                               config.record_seed, tracer))
               .first;
      tracer.close();
    }
    const std::int64_t body_started = ticks();
    fuzz::PooledVm& vm = pooled();
    reset(vm, vtx::profile_by_id(spec.profile));
    out.results[i] =
        traced_test_case(vm.manager(), spec, it->second, config.fuzzer, tracer);
    const std::int64_t covering = ticks();
    cell_cov[i] = cell_coverage(vm.hv().coverage());
    const std::int64_t body_done = ticks();
    tracer.add(kCellCoverage, body_done - covering);
    tracer.add_phase(kCellBody, body_done - body_started);
    tracer.close();
  }

  const std::int64_t finalizing = ticks();
  out.workers_used = 1;
  out.cells_completed.assign(grid.size(), 1);
  fuzz::finalize_campaign_result(cell_cov, out);
  tracer.add(kFinalize, ticks() - finalizing);
  return out;
}

ReplayedBehavior traced_replay_and_record(Manager& manager, const VmBehavior& behavior,
                                          Tracer& tracer) {
  ReplayedBehavior result;
  std::int64_t t = ticks();
  const bool armed = manager.enable_replay();
  std::int64_t next = ticks();
  tracer.add(kEnableReplay, next - t);
  if (!armed) {
    result.aborted = true;
    return result;
  }
  hv::Hypervisor& hv = manager.hv();
  // Injection is timed on its own; the recorder chains its GPR capture
  // after it, and the outer wrapper times the two together.
  time_exit_start_hook(hv, &tracer.inject_ticks);
  Recorder recorder(hv);
  recorder.attach();
  time_exit_start_hook(hv, &tracer.hook_ticks);

  t = ticks();
  for (const auto& rec : behavior) {
    auto outcome = manager.submit_seed(rec.seed);
    const std::int64_t submitted = ticks();
    const std::int64_t hook = tracer.hook_ticks;
    const std::int64_t inject = tracer.inject_ticks;
    tracer.hook_ticks = 0;
    tracer.inject_ticks = 0;
    const std::size_t bucket = reason_bucket(outcome.dispatched_reason);
    tracer.add(kInject, inject);
    tracer.add(kCapture, hook - inject, 2);
    tracer.add(kProcessExit + bucket, submitted - t - hook, 2);
    tracer.add_phase(kReplaySubmit + bucket, submitted - t);
    recorder.finish_exit(outcome);
    const auto failure = outcome.failure;
    result.outcomes.push_back(std::move(outcome));
    t = ticks();
    tracer.add(kFinishExit, t - submitted);
    if (failure == hv::FailureKind::kHypervisorCrash ||
        failure == hv::FailureKind::kVmCrash ||
        failure == hv::FailureKind::kHypervisorHang) {
      result.aborted = true;
      break;
    }
  }
  recorder.detach();
  result.behavior = recorder.take_trace();
  tracer.add(kTakeTrace, ticks() - t);
  return result;
}

}  // namespace ledger
