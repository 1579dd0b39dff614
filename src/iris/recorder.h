// IRIS recording component (paper §IV-A, §V-A).
//
// Attaches to the hypervisor's instrumentation seams and, for every VM
// exit, captures (i) the VM seed — the 15 guest GPRs buffered at the
// start of exit handling plus every VMCS {field, value} pair the handler
// VMREADs — and (ii) the metrics: per-exit coverage (cleaned of IRIS's
// own hits), the VMWRITE pairs, and the handling time in cycles.
//
// Guest memory is deliberately NOT recorded (§IV-A): seeds stay small
// (≤470 bytes worst case) at the cost of the memory-dependent replay
// divergences Fig 7 quantifies.
#pragma once

#include <cstdint>

#include "guest/workload.h"
#include "hv/hypervisor.h"
#include "iris/seed.h"

namespace iris {

/// How per-exit coverage reaches IRIS (paper §IX "Code coverage").
enum class CoverageSource : std::uint8_t {
  /// Compile-time instrumentation (gcov): portable, but every basic
  /// block pays a callback and the bitmap is flushed per exit.
  kGcov = 0,
  /// Hardware tracing (Intel PT): the CPU logs control flow into a
  /// ring buffer with no instrumentation; IRIS decodes it out-of-band.
  /// Far cheaper per exit, but Intel-only.
  kIntelPt = 1,
};

[[nodiscard]] std::string_view to_string(CoverageSource source) noexcept;

class Recorder {
 public:
  struct Config {
    /// §IX extension: also record the guest memory the handler
    /// dereferenced (off under the paper's baseline configuration — the
    /// baseline deliberately excludes guest memory from seeds, §IV-A).
    bool record_guest_memory = false;
    /// Bounds for the memory extension (per exit).
    std::size_t max_memory_chunks = 16;
    std::size_t max_chunk_bytes = 128;
    /// §IX extension: coverage-capture mechanism. The paper's baseline
    /// is gcov; kIntelPt models the proposed hardware-trace alternative
    /// (same observable coverage, much lower per-exit cost).
    CoverageSource coverage_source = CoverageSource::kGcov;
  };

  explicit Recorder(hv::Hypervisor& hv);
  Recorder(hv::Hypervisor& hv, Config config);
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Install the recording callbacks. `chain` preserves previously
  /// installed hooks (used when recording during replay, §IV-C).
  void attach();
  void detach();
  [[nodiscard]] bool attached() const noexcept { return attached_; }

  /// Finalize the exit just handled: pair the in-flight seed with the
  /// outcome's coverage and timing, append to the trace.
  void finish_exit(const hv::HandleOutcome& outcome);

  /// Exits recorded so far (the arena's trace length).
  [[nodiscard]] std::size_t exit_count() const noexcept { return exits_.size(); }

  /// Materialize the recorded trace and empty the arena (capacity kept).
  /// The per-seed vectors are allocated here, once, off the record hot
  /// loop — the loop itself appends into behavior-level arenas and is
  /// steady-state allocation-free, like replay.
  [[nodiscard]] VmBehavior take_trace();
  void clear();

  /// Cycles the recording callbacks themselves consumed (the §VI-D
  /// overhead experiment isolates this).
  [[nodiscard]] std::uint64_t overhead_cycles() const noexcept {
    return overhead_cycles_;
  }

 private:
  /// Arena offsets of one recorded exit; spans into the shared buffers
  /// below. take_trace() turns these into owning RecordedExit values.
  struct ExitRec {
    vtx::ExitReason reason = vtx::ExitReason::kPreemptionTimer;
    std::uint32_t item_start = 0, item_count = 0;
    std::uint32_t mem_start = 0, mem_count = 0;
    std::uint32_t vmwrite_start = 0, vmwrite_count = 0;
    std::uint32_t cov_start = 0, cov_count = 0;
    std::uint32_t cov_loc = 0;
    std::uint64_t cycles = 0;
  };

  void on_exit_start(hv::HvVcpu& vcpu);
  void on_vmread(vtx::VmcsField field, std::uint64_t value);
  void on_vmwrite(vtx::VmcsField field, std::uint64_t value);
  void on_mem_read(std::uint64_t gpa, std::span<const std::uint8_t> data);

  hv::Hypervisor* hv_;
  Config config_;
  bool attached_ = false;
  hv::InstrumentationHooks saved_;

  bool in_exit_ = false;
  std::uint64_t overhead_cycles_ = 0;

  // Behavior-level arenas (ROADMAP "Recorder-side buffer reuse"): all
  // seeds' items / memory chunks / VMWRITE pairs / coverage blocks live
  // in four flat buffers, so recording an exit is push_backs into
  // already-grown storage instead of one fresh vector per seed.
  std::vector<SeedItem> items_arena_;
  std::vector<MemChunk> mem_arena_;
  std::vector<std::pair<vtx::VmcsField, std::uint64_t>> vmwrites_arena_;
  std::vector<hv::BlockKey> cov_arena_;
  std::vector<ExitRec> exits_;

  // In-flight exit state (offsets of the open record).
  std::size_t cur_item_start_ = 0;
  std::size_t cur_mem_start_ = 0;
  std::size_t cur_vmwrite_start_ = 0;
  std::size_t cur_vmcs_count_ = 0;
};

/// Record `n` exits of `program` running on the test VM: the standard
/// "record a workload" loop (Fig 3 record path). Returns the recorded
/// behavior; stops early on guest/host failure.
VmBehavior record_workload(hv::Hypervisor& hv, hv::Domain& dom, hv::HvVcpu& vcpu,
                           guest::GuestProgram& program, std::uint64_t n,
                           Recorder::Config config = {});

}  // namespace iris
