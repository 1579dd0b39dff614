#include "sim/cost_model.h"

namespace iris::sim {

std::uint64_t CostModel::reason_cost(vtx::ExitReason reason) const noexcept {
  using vtx::ExitReason;
  switch (reason) {
    // I/O emulation goes through the HVM instruction emulator and the
    // device model: the heaviest common path.
    case ExitReason::kIoInstruction:
      return emulator_step + 6'500;
    // EPT handling walks guest page tables and may fix up mappings.
    case ExitReason::kEptViolation:
      return 7'800;
    case ExitReason::kEptMisconfig:
      return 5'200;
    // CR accesses update cached operating mode and shadow state.
    case ExitReason::kCrAccess:
      return 3'400;
    // APIC emulation.
    case ExitReason::kApicAccess:
      return 4'600;
    // Hypercalls run guest-requested hypervisor services.
    case ExitReason::kVmcall:
      return hypercall_base;
    // Interrupt plumbing.
    case ExitReason::kExternalInterrupt:
      return 2'100;
    case ExitReason::kInterruptWindow:
      return 1'300;
    // Light instruction intercepts.
    case ExitReason::kCpuid:
      return 750;
    case ExitReason::kRdtsc:
      return 620;
    case ExitReason::kHlt:
      return 1'000;
    case ExitReason::kMsrRead:
    case ExitReason::kMsrWrite:
      return 1'500;
    case ExitReason::kDrAccess:
      return 1'100;
    case ExitReason::kWbinvd:
      return 2'800;
    case ExitReason::kPreemptionTimer:
      return 300;  // nothing to emulate; bookkeeping only
    default:
      return 1'800;
  }
}

}  // namespace iris::sim
