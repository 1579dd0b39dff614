// Crash-surviving execution flight recorder.
//
// A FlightRecorder is a fixed-capacity, allocation-free breadcrumb ring
// of recent execution events — VM exits, VMCS writes, mutation indices,
// snapshot restores, failpoint/model-fault site hits, and phase-span
// begin/end marks — plus a small mirrored tail of RingLog lines. The
// ring lives in a MAP_SHARED anonymous mapping (the same trick as the
// failpoint hit counters), so the parent of a sandboxed cell child can
// decode the ring even when the child died by SIGKILL halfway through
// a breadcrumb: no child-side flush exists or is needed.
//
// Torn-slot safety is seqlock-style. Every slot carries a sequence
// stamp; the writer zeroes the stamp, stores the payload, then
// release-publishes stamp = ordinal + 1. A writer killed at any
// instruction leaves either a fully published slot or a stamp of 0,
// which the reader recognizes and counts as torn. The shared header
// additionally tracks the write cursor (wrap count = cursor /
// capacity), but the decoder trusts the stamps, so a kill between the
// stamp store and the cursor store loses nothing.
//
// Arming is two-level, in the same shape as the model-fault sites: the
// hooks in hv/vtx/fuzz hot paths cost one relaxed atomic load while no
// recorder is armed anywhere in the process, and the armed slow path
// binds through a thread-local pointer. Each recorder therefore has
// exactly one writer thread and the write path needs no atomic RMW —
// plain stores plus one release store per crumb.
//
// The reader side (harvest) must only run once the writer is stopped:
// a sandbox parent harvests after waitpid(), any other reader after
// disarm(). Decoding tolerates every kill point — crumbs lost to ring
// wrap are counted, a slot killed mid-write is counted torn, and phase
// spans left open by the fault are reported unclosed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace iris::support {

enum class CrumbType : std::uint8_t {
  kNone = 0,
  kVmExit = 1,           ///< a = basic exit reason, b = guest rip
  kVmcsWrite = 2,        ///< a = field encoding, b = value written
  kMutant = 3,           ///< a = mutant index within the cell
  kSnapshotRestore = 4,  ///< a = mutant index the restore followed
  kFailpointHit = 5,     ///< a = fnv1a(site name), b = action ordinal
  kModelFault = 6,       ///< a = model layer, b = structured code
  kPhaseBegin = 7,       ///< a = Phase, b = monotonic ts_us
  kPhaseEnd = 8,         ///< a = Phase, b = monotonic ts_us
};

/// Execution phases bracketed by kPhaseBegin/kPhaseEnd spans.
enum class Phase : std::uint8_t {
  kReset = 0,   ///< pooled VM reset
  kRecord = 1,  ///< workload recording
  kMutate = 2,  ///< the mutant hot loop
  kReplay = 3,  ///< behavior replay to the target state
};

[[nodiscard]] const char* to_string(CrumbType type) noexcept;
[[nodiscard]] const char* to_string(Phase phase) noexcept;

/// Monotonic microseconds (CLOCK_MONOTONIC); span timestamps only —
/// never feeds the determinism path.
[[nodiscard]] std::uint64_t flight_now_us() noexcept;

/// One decoded breadcrumb, ordered by write ordinal.
struct Crumb {
  std::uint64_t ordinal = 0;  ///< 0-based write ordinal
  CrumbType type = CrumbType::kNone;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// One paired (or fault-interrupted) phase span.
struct SpanRecord {
  Phase phase = Phase::kReset;
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;  ///< 0 when the span was open at fault time
  bool closed = false;
};

/// Torn-tolerant decode of a recorder's ring.
struct FlightHarvest {
  std::uint64_t total = 0;        ///< crumbs ever written
  std::uint64_t overwritten = 0;  ///< lost to ring wrap
  std::uint64_t torn = 0;         ///< slots killed mid-write, skipped
  std::vector<Crumb> crumbs;      ///< oldest -> newest
  std::vector<SpanRecord> spans;  ///< begin-order, nesting preserved
  std::vector<std::string> log_tail;  ///< mirrored RingLog lines
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;    ///< crumb slots
  static constexpr std::size_t kDefaultLogCapacity = 16;  ///< mirrored lines
  static constexpr std::size_t kLogLineBytes = 120;       ///< truncation point

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity,
                          std::size_t log_capacity = kDefaultLogCapacity);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// True when the ring lives in a MAP_SHARED mapping (survives fork).
  /// False only when mmap failed and the ring degraded to heap memory —
  /// the API keeps working but a SIGKILLed child's crumbs are lost.
  [[nodiscard]] bool shared() const noexcept { return shared_; }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t log_capacity() const noexcept {
    return log_capacity_;
  }

  /// Bind this recorder as the calling thread's crumb sink and raise
  /// the process-wide armed gate. One writer thread per recorder.
  void arm() noexcept;
  void disarm() noexcept;

  /// Clear for reuse. The write ordinals are the writer's own, so the
  /// writer itself clears its ring between runs (a sandbox child does,
  /// before each cell); anyone else only while no writer is running.
  void reset() noexcept;

  /// Decode the ring. Safe against a writer killed mid-store; must not
  /// run concurrently with a live writer.
  [[nodiscard]] FlightHarvest harvest() const;

  /// Writer fast path (reached via the crumb_* helpers below).
  void append(CrumbType type, std::uint64_t a, std::uint64_t b) noexcept {
    Slot& s = slots_[write_ordinal_ & mask_];
    s.seq.store(0, std::memory_order_relaxed);
    // Compiler barrier: the zero stamp must be stored before the
    // payload, so a kill mid-payload cannot leave a stale stamp over
    // fresh bytes. (The reader only runs after the writer is dead, so
    // a compiler fence is all the ordering this needs.)
    std::atomic_signal_fence(std::memory_order_seq_cst);
    s.type = static_cast<std::uint64_t>(type);
    s.a = a;
    s.b = b;
    s.seq.store(write_ordinal_ + 1, std::memory_order_release);
    ++write_ordinal_;
    header_->cursor.store(write_ordinal_, std::memory_order_relaxed);
  }

  /// Mirror one (truncated) log line into the crash-surviving tail.
  void append_log(const char* text, std::size_t len) noexcept {
    LogSlot& s = log_slots_[log_ordinal_ & log_mask_];
    s.seq.store(0, std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    const std::size_t n = len < kLogLineBytes - 1 ? len : kLogLineBytes - 1;
    std::memcpy(s.text, text, n);
    s.text[n] = '\0';
    s.seq.store(log_ordinal_ + 1, std::memory_order_release);
    ++log_ordinal_;
    header_->log_cursor.store(log_ordinal_, std::memory_order_relaxed);
  }

  /// Test seam: re-zero one slot's published stamp, reproducing exactly
  /// the state a writer leaves when killed between an append's zero
  /// store and its publish store.
  void tear_slot_for_test(std::size_t index) noexcept {
    slots_[index & mask_].seq.store(0, std::memory_order_relaxed);
  }

 private:
  struct Header {
    std::uint64_t magic = 0;
    std::atomic<std::uint64_t> cursor;      ///< crumbs ever written
    std::atomic<std::uint64_t> log_cursor;  ///< log lines ever written
  };
  struct Slot {
    std::atomic<std::uint64_t> seq;  ///< ordinal + 1; 0 = unwritten/torn
    std::uint64_t type;
    std::uint64_t a;
    std::uint64_t b;
  };
  struct LogSlot {
    std::atomic<std::uint64_t> seq;
    char text[kLogLineBytes];
  };
  static_assert(sizeof(Slot) == 32, "crumb slots are four words");

  Header* header_ = nullptr;
  Slot* slots_ = nullptr;
  LogSlot* log_slots_ = nullptr;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t capacity_ = 0;  ///< power of two
  std::size_t mask_ = 0;
  std::size_t log_capacity_ = 0;  ///< power of two
  std::size_t log_mask_ = 0;
  bool shared_ = false;
  // Writer-local ordinals. A sandbox child's are its own, so a reset in
  // another process cannot clear them; the harvest never reads these —
  // it reconstructs the totals from the shared stamps and cursor.
  std::uint64_t write_ordinal_ = 0;
  std::uint64_t log_ordinal_ = 0;
};

// --- Hot-path gate ---------------------------------------------------
//
// Dark cost at every hook site: one relaxed load and a predictable
// branch. Armed, the helpers bind through the thread-local pointer so
// only the recorder's own thread writes crumbs.

inline std::atomic<int> g_flight_recorders_armed{0};
inline thread_local FlightRecorder* t_crumb_sink = nullptr;

[[nodiscard]] inline bool flight_recorder_armed() noexcept {
  return g_flight_recorders_armed.load(std::memory_order_relaxed) != 0;
}

inline void crumb_vm_exit(std::uint64_t reason, std::uint64_t rip) noexcept {
  if (FlightRecorder* r = t_crumb_sink)
    r->append(CrumbType::kVmExit, reason, rip);
}

inline void crumb_vmcs_write(std::uint64_t field, std::uint64_t value) noexcept {
  if (FlightRecorder* r = t_crumb_sink)
    r->append(CrumbType::kVmcsWrite, field, value);
}

inline void crumb_mutant(std::uint64_t index) noexcept {
  if (FlightRecorder* r = t_crumb_sink)
    r->append(CrumbType::kMutant, index, 0);
}

inline void crumb_snapshot_restore(std::uint64_t context) noexcept {
  if (FlightRecorder* r = t_crumb_sink)
    r->append(CrumbType::kSnapshotRestore, context, 0);
}

inline void crumb_failpoint_hit(std::uint64_t site_hash,
                                std::uint64_t action) noexcept {
  if (FlightRecorder* r = t_crumb_sink)
    r->append(CrumbType::kFailpointHit, site_hash, action);
}

inline void crumb_model_fault(std::uint64_t layer, std::uint64_t code) noexcept {
  if (FlightRecorder* r = t_crumb_sink)
    r->append(CrumbType::kModelFault, layer, code);
}

inline void span_begin(Phase phase) noexcept {
  if (FlightRecorder* r = t_crumb_sink)
    r->append(CrumbType::kPhaseBegin, static_cast<std::uint64_t>(phase),
              flight_now_us());
}

inline void span_end(Phase phase) noexcept {
  if (FlightRecorder* r = t_crumb_sink)
    r->append(CrumbType::kPhaseEnd, static_cast<std::uint64_t>(phase),
              flight_now_us());
}

inline void flight_log_line(const char* text, std::size_t len) noexcept {
  if (FlightRecorder* r = t_crumb_sink) r->append_log(text, len);
}

/// Scoped phase span. Dark cost: one relaxed load in the constructor.
class FlightSpan {
 public:
  explicit FlightSpan(Phase phase) noexcept
      : phase_(phase), armed_(flight_recorder_armed()) {
    if (armed_) [[unlikely]] span_begin(phase_);
  }
  ~FlightSpan() {
    if (armed_) [[unlikely]] span_end(phase_);
  }
  FlightSpan(const FlightSpan&) = delete;
  FlightSpan& operator=(const FlightSpan&) = delete;

 private:
  Phase phase_;
  bool armed_;
};

}  // namespace iris::support
