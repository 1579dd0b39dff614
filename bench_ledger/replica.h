// Traced replicas of the product's hot paths, built only from public
// calls. Each one performs the same sequence of public operations as the
// product function it mirrors — so it must produce the same result, which
// the traced run asserts — while charging every interval to a Layer of
// the Tracer:
//
//   traced_record_workload  Manager::record_workload / iris::record_workload
//   traced_test_case        fuzz::Fuzzer::run_test_case (no corpus imports)
//   traced_campaign         fuzz::CampaignRunner::run, 1 in-process worker,
//                           pooled stacks, no persistence or telemetry
//   traced_replay_and_record Manager::replay_and_record
#pragma once

#include <cstdint>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "iris/manager.h"
#include "ledger.h"

namespace ledger {

const iris::VmBehavior& traced_record_workload(iris::Manager& manager,
                                               iris::guest::Workload workload,
                                               std::uint64_t exits,
                                               std::uint64_t seed, Tracer& tracer);

iris::fuzz::TestCaseResult traced_test_case(iris::Manager& manager,
                                            const iris::fuzz::TestCaseSpec& spec,
                                            const iris::VmBehavior& behavior,
                                            const iris::fuzz::Fuzzer::Config& config,
                                            Tracer& tracer);

iris::fuzz::CampaignResult traced_campaign(
    const std::vector<iris::fuzz::TestCaseSpec>& grid,
    const iris::fuzz::CampaignConfig& config, Tracer& tracer);

iris::ReplayedBehavior traced_replay_and_record(iris::Manager& manager,
                                                const iris::VmBehavior& behavior,
                                                Tracer& tracer);

/// The cell's coverage contribution exactly as CampaignRunner records it:
/// every non-IRIS block the cell's hypervisor registered, with weights.
std::vector<std::pair<iris::hv::BlockKey, std::uint8_t>> cell_coverage(
    const iris::hv::CoverageMap& coverage);

}  // namespace ledger
