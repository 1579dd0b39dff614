#include "fuzz/fuzzer.h"

#include <algorithm>

#include "support/flight_recorder.h"

namespace iris::fuzz {

Fuzzer::Fuzzer(Manager& manager) : Fuzzer(manager, Config{}) {}

Fuzzer::Fuzzer(Manager& manager, Config config)
    : manager_(&manager), config_(config) {}

bool Fuzzer::walk_to_target(const VmBehavior& w, std::size_t target) {
  manager_->hv().failures().reset();
  manager_->reset_dummy_vm();
  if (!manager_->enable_replay(config_.replay)) return false;
  for (std::size_t i = 0; i < target; ++i) {
    const auto outcome = manager_->submit_seed(w[i].seed);
    if (outcome.failure != hv::FailureKind::kNone) return false;
  }
  return true;
}

TestCaseResult Fuzzer::run_test_case(const TestCaseSpec& spec, const VmBehavior& w) {
  return run_test_case(spec, w, {}, 0);
}

TestCaseResult Fuzzer::run_test_case(const TestCaseSpec& spec, const VmBehavior& w,
                                     std::span<const VmSeed> imports,
                                     std::size_t import_mutants) {
  TestCaseResult result;
  result.spec = spec;

  Mutator mutator(spec.rng_seed);

  // --- Pick VMseed_R at random among the seeds with the target reason.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i].seed.reason == spec.reason) candidates.push_back(i);
  }
  if (candidates.empty()) return result;  // '-' cell in Table I
  result.target_index = candidates[mutator.rng().below(candidates.size())];
  const VmSeed& target_seed = w[result.target_index].seed;

  // --- Reach the linked VM state s1 via IRIS replay (Fig 11).
  {
    const support::FlightSpan replay_span(support::Phase::kReplay);
    if (!walk_to_target(w, result.target_index)) return result;
  }
  result.ran = true;

  // Baseline: the coverage of the unmutated VMseed_R from s1.
  hv::CoverageAccumulator covered(manager_->hv().coverage());
  const auto baseline = manager_->submit_seed(target_seed);
  covered.add(baseline.coverage);
  result.baseline_loc = covered.total_loc();

  // Snapshot s1 so crashing mutants don't force a full re-walk. The
  // snapshot holds CoW page references, so taking it (and restoring to
  // it) costs pointers, not RAM copies.
  hv::Domain& dummy = manager_->dummy_vm();
  const auto s1 = dummy.snapshot();

  // Hot loop: the mutant seed and outcome buffers are reused across all
  // submissions (zero steady-state allocations on the happy path). The
  // per-cell mutant index keeps counting across targets so every
  // archived CrashRecord stays uniquely addressable within the cell.
  VmSeed mutant;
  hv::HandleOutcome outcome;
  std::size_t mutant_index = 0;
  // Submit `count` single-bit-flip mutants of `base` from s1. kNoItems
  // means `base` has nothing to mutate in this area (skip the target);
  // kAbort means the replayer could not be re-armed after a crash, so
  // the cell must stop entirely.
  enum class TargetOutcome { kDone, kNoItems, kAbort };
  auto fuzz_target = [&](const VmSeed& base, std::size_t count) {
    for (std::size_t m = 0; m < count; ++m) {
      AppliedMutation applied;
      if (!mutator.mutate_into(base, spec.area, mutant, &applied)) {
        return TargetOutcome::kNoItems;  // cannot happen for GPR
      }
      ++result.executed;
      const std::size_t index = mutant_index++;
      if (support::flight_recorder_armed()) [[unlikely]] {
        support::crumb_mutant(index);
      }

      manager_->submit_seed_into(mutant, outcome);
      result.new_loc += covered.add(outcome.coverage);

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
      if (result.crashes.size() < config_.max_archived_crashes) {
        result.crashes.push_back(CrashRecord{mutant, applied, outcome.failure,
                                             outcome.failure_reason, index});
      }
      // Recover: clear failure state and restore the dummy VM to s1
      // (delta restore: only pages dirtied since s1 are touched).
      manager_->hv().failures().reset();
      if (support::flight_recorder_armed()) [[unlikely]] {
        support::crumb_snapshot_restore(index);
      }
      dummy.restore(s1);
      if (!manager_->rearm_replay(config_.replay)) return TargetOutcome::kAbort;
    }
    return TargetOutcome::kDone;
  };

  {
    const support::FlightSpan mutate_span(support::Phase::kMutate);
    if (fuzz_target(target_seed, spec.mutants) != TargetOutcome::kAbort) {
      for (const VmSeed& import : imports) {
        if (import.reason != spec.reason) continue;
        if (fuzz_target(import, import_mutants) == TargetOutcome::kAbort) break;
      }
    }
  }

  result.coverage_increase_pct =
      result.baseline_loc == 0
          ? 0.0
          : 100.0 * static_cast<double>(result.new_loc) /
                static_cast<double>(result.baseline_loc);
  return result;
}

std::vector<TestCaseSpec> make_table1_grid(
    const std::vector<guest::Workload>& workloads, std::size_t mutants,
    std::uint64_t rng_seed) {
  std::vector<TestCaseSpec> grid;
  grid.reserve(workloads.size() * vtx::kClusterReasons.size() * 2);
  for (const auto workload : workloads) {
    for (const auto reason : vtx::kClusterReasons) {
      for (const auto area : {MutationArea::kVmcs, MutationArea::kGpr}) {
        TestCaseSpec spec;
        spec.workload = workload;
        spec.reason = reason;
        spec.area = area;
        spec.mutants = mutants;
        spec.rng_seed = rng_seed ^ (static_cast<std::uint64_t>(workload) << 16) ^
                        (static_cast<std::uint64_t>(reason) << 8) ^
                        static_cast<std::uint64_t>(area);
        grid.push_back(spec);
      }
    }
  }
  return grid;
}

std::vector<TestCaseSpec> make_profile_grid(
    const std::vector<guest::Workload>& workloads, std::size_t mutants,
    std::uint64_t rng_seed, const std::vector<vtx::ProfileId>& profiles) {
  const auto base = make_table1_grid(workloads, mutants, rng_seed);
  std::vector<TestCaseSpec> grid;
  grid.reserve(base.size() * profiles.size());
  for (const auto profile : profiles) {
    for (TestCaseSpec spec : base) {
      spec.profile = profile;
      grid.push_back(spec);
    }
  }
  return grid;
}

std::vector<TestCaseResult> Fuzzer::run_grid(guest::Workload workload,
                                             const VmBehavior& w, std::size_t mutants,
                                             std::uint64_t rng_seed) {
  std::vector<TestCaseResult> results;
  for (const auto& spec : make_table1_grid({workload}, mutants, rng_seed)) {
    results.push_back(run_test_case(spec, w));
  }
  return results;
}

}  // namespace iris::fuzz
