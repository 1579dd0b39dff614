// Reset-vs-fresh equivalence suite for the pooled per-worker VM stacks.
//
// The pooled path is only admissible because a PooledVm::reset() stack
// is indistinguishable from a freshly constructed one. These tests
// prove it three ways: hv::state_digest equality after heavy use (the
// same invariant every build checks on every reset), CampaignResults
// byte-identical to a fresh-stack reference built here (every cell on a
// newly constructed hypervisor) for every workload and noise config, and
// byte-identical checkpoint-resumed runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "fuzz/campaign.h"
#include "fuzz/vm_pool.h"

namespace iris::fuzz {
namespace {

using guest::Workload;

constexpr Workload kAllWorkloads[] = {Workload::kOsBoot, Workload::kCpuBound,
                                      Workload::kMemBound, Workload::kIoBound,
                                      Workload::kIdle};

CampaignConfig small_config(std::size_t workers, double noise = 0.0) {
  CampaignConfig config;
  config.workers = workers;
  config.hv_seed = 17;
  config.async_noise_prob = noise;
  config.record_exits = 150;
  config.record_seed = 3;
  return config;
}

/// canonical_result_bytes of `grid` run the way no pool does it: each
/// workload recorded on a fresh stack, each cell fuzzed on a freshly
/// built Hypervisor and Manager for its profile, and the cells merged by
/// the runner's own finalize step.
std::vector<std::uint8_t> fresh_stack_reference(
    const std::vector<TestCaseSpec>& grid, const CampaignConfig& config) {
  std::map<Workload, VmBehavior> behaviors;
  CampaignResult result;
  std::vector<CellCoverage> coverage;
  for (const TestCaseSpec& spec : grid) {
    auto recorded = behaviors.find(spec.workload);
    if (recorded == behaviors.end()) {
      hv::Hypervisor hv(config.hv_seed, config.async_noise_prob);
      Manager manager(hv);
      recorded = behaviors
                     .emplace(spec.workload,
                              manager.record_workload(spec.workload,
                                                      config.record_exits,
                                                      config.record_seed))
                     .first;
    }
    hv::Hypervisor hv(config.hv_seed, config.async_noise_prob,
                      vtx::profile_by_id(spec.profile));
    Manager manager(hv);
    Fuzzer fuzzer(manager, config.fuzzer);
    result.results.push_back(fuzzer.run_test_case(spec, recorded->second));
    CellCoverage& blocks = coverage.emplace_back();
    for (const hv::BlockKey block : hv.coverage().registered_blocks()) {
      if (hv::block_component(block) == hv::Component::kIris) continue;
      blocks.emplace_back(block, hv.coverage().loc_of(block));
    }
  }
  finalize_campaign_result(coverage, result);
  return campaign::canonical_result_bytes(result);
}

// --- Digest invariant: reset ≡ fresh, in every build type. ---

TEST(PooledVm, ResetRestoresTheFreshDigestAfterHeavyUse) {
  PooledVm pooled(17, 0.0);

  // Drive the stack through everything a cell does: record a workload
  // (test VM + hooks + seed DB), replay it with crashes (dummy VMs,
  // failure events, log lines, coverage), leave the replayer armed.
  Manager& manager = pooled.manager();
  const VmBehavior& behavior =
      manager.record_workload(Workload::kCpuBound, 200, 3);
  ASSERT_FALSE(behavior.empty());
  Fuzzer fuzzer(manager);
  const auto results = fuzzer.run_grid(Workload::kCpuBound, behavior, 150, 7);
  ASSERT_FALSE(results.empty());
  EXPECT_NE(hv::state_digest(pooled.hv()), pooled.fresh_digest())
      << "the cell left no trace at all — the digest is too weak";

  pooled.reset();
  EXPECT_EQ(hv::state_digest(pooled.hv()), pooled.fresh_digest());

  // And against an independently constructed stack, not just the saved
  // digest of this one.
  PooledVm fresh(17, 0.0);
  EXPECT_EQ(hv::state_digest(pooled.hv()), hv::state_digest(fresh.hv()));
}

TEST(PooledVm, DigestSeparatesDifferentSeedsAndNoise) {
  PooledVm a(17, 0.0);
  PooledVm b(18, 0.0);
  PooledVm c(17, 0.02);
  EXPECT_NE(a.fresh_digest(), b.fresh_digest());
  EXPECT_NE(a.fresh_digest(), c.fresh_digest());
}

TEST(PooledVm, ResetWithHeavierRamAndExtraDomains) {
  PooledVm pooled(29, 0.01);
  // Touch RAM across many pages, add a domain, kill it, advance time.
  hv::Domain& dom = pooled.manager().test_vm();
  for (std::uint64_t page = 0; page < 512; ++page) {
    dom.ram().write_u64(page << 12, page ^ 0xABCDULL);
  }
  pooled.hv().failures().vm_crash(dom.id(), pooled.hv().clock().rdtsc(),
                                  "test kill");
  pooled.hv().clock().advance(12345);
  pooled.reset();
  EXPECT_EQ(hv::state_digest(pooled.hv()), pooled.fresh_digest());
  // Parked domains are recycled, not rebuilt: creating the next test VM
  // reuses the parked object.
  EXPECT_GE(pooled.hv().parked_domain_count(), 1u);
  (void)pooled.manager().test_vm();
  EXPECT_EQ(pooled.hv().parked_domain_count(), 0u);
}

TEST(VmPool, SlotsAreLazyAndStable) {
  VmPool pool(4, 17, 0.0);
  EXPECT_EQ(pool.constructed(), 0u);
  PooledVm& w2 = pool.worker(2);
  EXPECT_EQ(pool.constructed(), 1u);
  EXPECT_EQ(&w2, &pool.worker(2));
  EXPECT_EQ(pool.size(), 4u);
}

// --- Cell equivalence: every workload × noise config, pooled vs fresh. ---

TEST(VmPool, CellResultsByteIdenticalPooledVsFreshForAllWorkloads) {
  for (const Workload workload : kAllWorkloads) {
    for (const double noise : {0.0, 0.02}) {
      const auto grid = make_table1_grid({workload}, 60, 7);
      const auto config = small_config(1, noise);
      const auto pooled = CampaignRunner(config).run(grid);
      EXPECT_EQ(campaign::canonical_result_bytes(pooled),
                fresh_stack_reference(grid, config))
          << "workload " << guest::to_string(workload) << " noise " << noise;
    }
  }
}

TEST(VmPool, CampaignByteIdenticalAcrossWorkerCountsAndPooling) {
  const auto grid = make_table1_grid({Workload::kCpuBound}, 120, 7);
  const auto reference = fresh_stack_reference(grid, small_config(1));
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const auto result = CampaignRunner(small_config(workers)).run(grid);
    EXPECT_EQ(campaign::canonical_result_bytes(result), reference)
        << "workers " << workers;
  }
}

// --- Checkpoint-resumed runs stay byte-identical under pooling. ---

TEST(VmPool, CheckpointResumedPooledRunMatchesFreshUninterrupted) {
  const auto grid = make_table1_grid({Workload::kCpuBound}, 100, 5);
  const auto reference = fresh_stack_reference(grid, small_config(1));

  const std::string path =
      (std::filesystem::temp_directory_path() / "vm_pool_resume.ckpt").string();
  std::remove(path.c_str());

  auto budgeted = small_config(4);
  budgeted.checkpoint_path = path;
  budgeted.cell_budget = 5;
  const auto partial = CampaignRunner(budgeted).run(grid);
  EXPECT_FALSE(partial.complete);

  auto resume = small_config(4);
  resume.checkpoint_path = path;
  const auto resumed = CampaignRunner(resume).run(grid);
  EXPECT_TRUE(resumed.complete);
  EXPECT_GT(resumed.cells_resumed, 0u);
  EXPECT_EQ(campaign::canonical_result_bytes(resumed), reference);
  std::remove(path.c_str());
}

// --- The recorder path through the pool (CellExecutor::behavior). ---

TEST(VmPool, PooledRecordingMatchesThrowawayStackRecording) {
  // A behavior recorded on a reset pooled stack must equal one recorded
  // on a brand-new stack (this is what lets the campaign record each
  // workload on worker 0's pooled slot instead of building two extra
  // stacks per workload).
  hv::Hypervisor fresh_hv(17, 0.0);
  Manager fresh_manager(fresh_hv);
  const VmBehavior fresh =
      fresh_manager.record_workload(Workload::kIoBound, 200, 3);

  PooledVm pooled(17, 0.0);
  // Dirty the stack first so the recording really runs post-reset.
  (void)pooled.manager().record_workload(Workload::kOsBoot, 100, 3);
  pooled.reset();
  const VmBehavior replayed =
      pooled.manager().record_workload(Workload::kIoBound, 200, 3);

  ASSERT_EQ(fresh.size(), replayed.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i].seed, replayed[i].seed) << "exit " << i;
    EXPECT_EQ(fresh[i].metrics.cycles, replayed[i].metrics.cycles);
    EXPECT_EQ(fresh[i].metrics.coverage.blocks, replayed[i].metrics.coverage.blocks);
    EXPECT_EQ(fresh[i].metrics.vmwrites, replayed[i].metrics.vmwrites);
  }
}

}  // namespace
}  // namespace iris::fuzz
