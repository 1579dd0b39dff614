// IRIS manager (paper §IV-C, §V-C).
//
// The control plane of the framework: chooses between operation modes
// (record, replay, or both), owns the test and dummy DomUs, drives the
// Recorder and Replayer, and exposes the whole thing to user space
// through the xc_vmcs_fuzzing() hypercall — the interface the IRIS CLI
// in Dom0 invokes. Seeds and metrics cross the hypervisor boundary via
// copy_to_guest()/copy_from_guest(), as in the Xen implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "guest/workload.h"
#include "hv/hypervisor.h"
#include "iris/recorder.h"
#include "iris/replayer.h"
#include "iris/seed_db.h"

namespace iris {

/// xc_vmcs_fuzzing() command codes (arg0 of the hypercall).
enum class IrisCmd : std::uint64_t {
  kEnableRecord = 0,
  kDisableRecord = 1,
  kSeedCount = 2,
  kFetchSeed = 3,    ///< arg1 = seed index, arg2 = dest gpa in caller
  kEnableReplay = 4,
  kSubmitSeed = 5,   ///< arg1 = src gpa in caller, arg2 = byte length
  kStatus = 6,
};

/// One replayed-and-measured behavior (replay with record mode on).
struct ReplayedBehavior {
  VmBehavior behavior;                     ///< metrics captured during replay
  std::vector<hv::HandleOutcome> outcomes; ///< per-seed handling outcomes
  bool aborted = false;                    ///< stopped on a failure
};

class Manager {
 public:
  enum class Mode : std::uint8_t { kOff, kRecord, kReplay, kRecordAndReplay };

  explicit Manager(hv::Hypervisor& hv);

  /// Return the manager to its freshly-constructed state: the replayer
  /// and any hypercall recorder are torn down (restoring the hooks they
  /// chained), the seed DB and snapshots dropped, and the domain
  /// pointers forgotten. Does NOT touch the hypervisor — the pooled-VM
  /// reset protocol calls this first, then Hypervisor::reset(), then
  /// rebind() to re-register the xc_vmcs_fuzzing hypercall.
  void reset();

  /// Re-register the hypercall backend after a Hypervisor::reset()
  /// cleared the hypercall table.
  void rebind() { register_hypercall(); }

  /// Create and launch the test VM (the DomU whose workloads are
  /// recorded). Idempotent.
  [[nodiscard]] hv::Domain& test_vm();
  /// Create and launch the dummy VM (the replay target). Idempotent.
  [[nodiscard]] hv::Domain& dummy_vm();

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] hv::Hypervisor& hv() noexcept { return *hv_; }
  [[nodiscard]] SeedDb& db() noexcept { return db_; }

  // --- Record mode (Fig 3 left path). ---

  /// Record `n` exits of `workload` on the test VM; stores the behavior
  /// in the seed DB under the workload name and returns a reference.
  const VmBehavior& record_workload(guest::Workload workload, std::uint64_t n,
                                    std::uint64_t seed,
                                    Recorder::Config config = {});

  // --- Replay mode (Fig 3 right path). ---

  /// Arm the replayer on the dummy VM (optionally reverting it to a
  /// previously saved snapshot first).
  [[nodiscard]] bool enable_replay(Replayer::Config config = {});

  /// Crash-recovery fast path: after a snapshot revert, put the manager
  /// back in replay mode WITHOUT tearing down and rebuilding the armed
  /// replayer (no hook churn, no allocation). Falls back to
  /// enable_replay() when no replayer exists yet.
  [[nodiscard]] bool rearm_replay(Replayer::Config config = {});

  /// Submit one seed through the armed replayer.
  hv::HandleOutcome submit_seed(const VmSeed& seed);

  /// Buffer-reusing submit for hot loops; clears and refills `outcome`.
  void submit_seed_into(const VmSeed& seed, hv::HandleOutcome& outcome);

  /// Batched hand-off (§IX, ROADMAP "Batched seed hand-off"): submit a
  /// whole batch through the armed replayer, paying the per-seed fetch
  /// once per Replayer::Config::batch_size seeds. Shares the fetch
  /// accounting with submit_seed_into, so batched and one-by-one
  /// submission of the same seeds produce identical outcomes.
  void submit_batch_into(std::span<const VmSeed> seeds,
                         std::vector<hv::HandleOutcome>& outcomes);

  /// Replay a behavior while recording metrics (record+replay mode,
  /// §IV-C last paragraph — the accuracy experiment's instrument).
  ReplayedBehavior replay_and_record(const VmBehavior& behavior,
                                     Replayer::Config config = {});

  /// Replay without metric capture (fast path).
  std::vector<hv::HandleOutcome> replay(const VmBehavior& behavior,
                                        Replayer::Config config = {});

  // --- Snapshots (§IV-B: unbias record-vs-replay comparisons). ---
  void save_test_snapshot();
  void revert_test_vm();
  /// Replace the dummy VM with a fresh, un-booted one. The previous
  /// dummy is recycled in place when it is the hypervisor's newest live
  /// domain, so repeated calls do not grow the domain list.
  void reset_dummy_vm();
  /// Start the dummy VM from the snapshot saved at the start of
  /// recording — the unbiased starting state for accuracy runs (§IV-B).
  void revert_dummy_to_test_snapshot();

  /// Register the xc_vmcs_fuzzing() hypercall backend (§V-C). Invoked
  /// from guest context via VMCALL; see IrisCmd for the command set.
  void register_hypercall();

 private:
  std::uint64_t hypercall_backend(hv::Domain& caller, hv::HvVcpu& vcpu,
                                  std::span<const std::uint64_t> args);

  hv::Hypervisor* hv_;
  SeedDb db_;
  Mode mode_ = Mode::kOff;
  hv::Domain* test_vm_ = nullptr;
  hv::Domain* dummy_vm_ = nullptr;
  std::optional<hv::DomainSnapshot> test_snapshot_;
  std::unique_ptr<Replayer> replayer_;
  std::unique_ptr<Recorder> hypercall_recorder_;
  std::string last_recorded_name_;
};

}  // namespace iris
