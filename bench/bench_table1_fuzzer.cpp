// Table I — new code coverage discovered by the IRIS-based fuzzer PoC.
//
// For each workload (OS_BOOT, CPU-bound, IDLE), each exit reason in the
// paper's cluster, and each seed area (VMCS, GPR): replay to a random
// VMseed_R, submit M single-bit-flip mutants, and report the coverage
// increase over the unmutated seed plus the crash tallies. Paper: every
// populated cell gains coverage (up to +124% in OS_BOOT); VM and
// hypervisor crashes in ~1% / ~15% of VMCS-mutating tests.
//
//   $ ./bench_table1_fuzzer [mutants] [seed] [trace_exits]
#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "fuzz/fuzzer.h"

int main(int argc, char** argv) {
  using namespace iris;
  const std::size_t mutants =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;  // paper: 10000
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const std::uint64_t exits = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2000;

  bench::print_header("Table I: fuzzer coverage gains per test case");
  std::printf("M=%zu mutants per cell (paper: 10000); traces of %llu exits\n\n",
              mutants, static_cast<unsigned long long>(exits));

  const guest::Workload workloads[] = {guest::Workload::kOsBoot,
                                       guest::Workload::kCpuBound,
                                       guest::Workload::kIdle};

  // Header: workload x area columns.
  std::printf("%-12s", "Exit Reason");
  for (const auto w : workloads) {
    std::printf(" | %10s VMCS %10s GPR", guest::to_string(w).data(), "");
  }
  std::printf("\n");

  std::size_t total_vm_crashes = 0, total_hv_crashes = 0, total_mutants = 0;
  std::size_t vmcs_crash_cells = 0, vmcs_cells = 0;

  // Run the grids first (one per workload), then print row-major.
  std::vector<std::vector<fuzz::TestCaseResult>> grids;
  for (const auto w : workloads) {
    bench::Experiment exp(seed, 0.0);
    const VmBehavior& behavior = exp.manager.record_workload(w, exits, seed);
    fuzz::Fuzzer fuzzer(exp.manager);
    grids.push_back(fuzzer.run_grid(w, behavior, mutants, seed));
  }

  for (std::size_t r = 0; r < vtx::kClusterReasons.size(); ++r) {
    std::printf("%-12s", bench::reason_label(vtx::kClusterReasons[r]));
    for (std::size_t w = 0; w < 3; ++w) {
      for (int area = 0; area < 2; ++area) {
        const auto& result = grids[w][r * 2 + static_cast<std::size_t>(area)];
        if (!result.ran) {
          std::printf(" %11s", "-");
          continue;
        }
        std::printf(" %+10.0f%%", result.coverage_increase_pct);
        total_vm_crashes += result.vm_crashes;
        total_hv_crashes += result.hv_crashes;
        total_mutants += result.executed;
        if (area == 0) {
          ++vmcs_cells;
          vmcs_crash_cells += (result.vm_crashes + result.hv_crashes) > 0 ? 1 : 0;
        }
      }
    }
    std::printf("\n");
  }

  std::printf("\nfailure summary across all cells:\n");
  std::printf("  mutants executed:      %zu\n", total_mutants);
  std::printf("  VM crashes:            %zu (%.2f%% of mutants)\n", total_vm_crashes,
              100.0 * static_cast<double>(total_vm_crashes) /
                  static_cast<double>(std::max<std::size_t>(total_mutants, 1)));
  std::printf("  hypervisor crashes:    %zu (%.2f%% of mutants)\n", total_hv_crashes,
              100.0 * static_cast<double>(total_hv_crashes) /
                  static_cast<double>(std::max<std::size_t>(total_mutants, 1)));
  std::printf("  VMCS cells with crashes: %zu/%zu\n", vmcs_crash_cells, vmcs_cells);
  std::printf("\npaper claims: every populated cell discovers new coverage;\n"
              "VMCS mutation crashes VMs (~1%%) and the hypervisor (~15%%);\n"
              "GPR mutation is mostly benign except with CR ACCESS\n");
  return 0;
}
