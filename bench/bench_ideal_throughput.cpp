// §VI-C — ideal vs achieved replay throughput.
//
// The ideal bound is a bare preemption-timer exit loop (no seed
// injection, no handler work beyond the timer reload): the paper
// measures 5000 exits in ~0.1 s, i.e. 50K exits/s. Achieved replay
// throughput settles around half of that: 18.5K / 23.8K / 22.7K exits/s
// for OS_BOOT / CPU-bound / IDLE (-63% / -52% / -55%).
//
//   $ ./bench_ideal_throughput [exits] [seed]
#include "bench_util.h"
#include "iris/replayer.h"

int main(int argc, char** argv) {
  using namespace iris;
  const auto args = bench::Args::parse(argc, argv);

  bench::print_header("§VI-C: ideal vs achieved replay throughput");

  // --- Ideal: the bare preemption-timer loop on the dummy VM.
  double ideal_rate = 0.0;
  {
    bench::Experiment exp(args.seed, 0.0);
    hv::Domain& dummy = exp.manager.dummy_vm();
    hv::HvVcpu& vcpu = dummy.vcpu();
    vcpu.vmcs.hw_write(vtx::VmcsField::kPinBasedVmExecControl,
                       vtx::kPinActivatePreemptionTimer);
    vcpu.vmcs.hw_write(vtx::VmcsField::kPreemptionTimerValue, 0);
    const auto t0 = exp.hypervisor.clock().rdtsc();
    hv::HandleOutcome outcome;  // reused: the hot-loop calling shape
    for (std::uint64_t i = 0; i < args.exits; ++i) {
      hv::PendingExit exit;
      exit.reason = vtx::ExitReason::kPreemptionTimer;
      exp.hypervisor.process_exit_into(dummy, vcpu, exit, outcome);
    }
    const double secs =
        sim::Clock::cycles_to_s(exp.hypervisor.clock().rdtsc() - t0);
    ideal_rate = static_cast<double>(args.exits) / secs;
    std::printf("ideal: %llu preemption-timer exits in %.3f s -> %.0f exits/s "
                "(paper: ~0.1 s, 50K exits/s)\n\n",
                static_cast<unsigned long long>(args.exits), secs, ideal_rate);
  }

  // --- Achieved: full replay of each workload's recorded seeds.
  const struct {
    guest::Workload workload;
    double paper_rate;
  } rows[] = {
      {guest::Workload::kOsBoot, 18'518.0},
      {guest::Workload::kCpuBound, 23'809.0},
      {guest::Workload::kIdle, 22'727.0},
  };

  std::printf("%-10s %12s %12s %10s\n", "workload", "exits/s", "paper", "vs ideal");
  for (const auto& row : rows) {
    bench::Experiment exp(args.seed, 0.0);
    const VmBehavior& recorded =
        exp.manager.record_workload(row.workload, args.exits, args.seed);
    const auto t0 = exp.hypervisor.clock().rdtsc();
    exp.manager.replay(recorded);
    const double secs =
        sim::Clock::cycles_to_s(exp.hypervisor.clock().rdtsc() - t0);
    const double rate = static_cast<double>(recorded.size()) / secs;
    std::printf("%-10s %12.0f %12.0f %9.0f%%\n", guest::to_string(row.workload).data(),
                rate, row.paper_rate, 100.0 * (rate - ideal_rate) / ideal_rate);
  }

  std::printf("\npaper claim: achieved throughput is roughly half the ideal\n"
              "(-52%%..-63%%), dominated by the one-by-one seed hand-off (§IX)\n");
  return 0;
}
