// Sharded fuzzing-campaign orchestrator.
//
// The paper's Table I experiment is a grid of independent test cases
// (workload x exit reason x mutation area), each of which replays a
// recorded behavior up to VMseed_R and submits M mutants. Nothing in a
// cell depends on any other cell, so the grid shards perfectly: the
// CampaignRunner distributes the cells across N worker threads, each
// owning an independent Hypervisor/Manager/Fuzzer stack, then merges
// the per-worker hypervisor coverage bitmaps, deduplicates the archived
// crashes by (failure kind, exit reason, mutated field), and reports
// aggregate throughput in mutants/sec.
//
// CampaignRunner::run reads as resume, epoch, grid pass (first claim,
// record, fork, workers), re-probe, finalize, archive, over plain units
// in campaign.cpp: the journal is folded back through
// campaign::JournalFold (the fold reduce_journals uses); a
// CellScheduler owns the claim order; a CellExecutor records behaviors
// and runs a cell in process or in its worker's long-lived sandbox
// child; a FaultPolicy owns retry, quarantine, forensics and re-probe;
// and one StatusBoard is the sink for every event.
//
// Determinism contract: with async_noise_prob == 0 the merged coverage
// and the deduplicated crash set are a pure function of the spec grid
// and the configured seeds — identical for any worker count. Each
// workload's behavior is recorded exactly once, before the workers
// start, and each cell fuzzes it on a pooled per-worker stack returned
// to the exact post-construction state for the same seed by
// PooledVm::reset(), whose equivalence with a fresh stack is checked via
// hv::state_digest on every reset. So sharding cannot change results.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "fuzz/fuzzer.h"

namespace iris::campaign {
struct CheckpointCell;  // campaign/checkpoint.h
struct ShardStatus;     // campaign/monitor.h
}

namespace iris::fuzz {

/// How a sandboxed cell harness died. A fault is a property of the
/// *harness execution*, not of the cell: the cell has no result, and the
/// containment layer decides whether to retry or quarantine it.
struct HarnessFault {
  enum class Kind : std::uint8_t {
    kSignal = 0,    ///< child killed by a signal (SIGSEGV, SIGABRT, ...)
    kExit = 1,      ///< child exited nonzero without delivering a result
    kDeadline = 2,  ///< watchdog deadline overran; child was SIGKILLed
    /// Child sent a torn or corrupt result frame, or exited 0 without one.
    kProtocol = 3,
    /// Child hit a per-cell rlimit: SIGXCPU past RLIMIT_CPU, or the
    /// RLIMIT_AS new-handler / failpoints::execute_alloc exit
    /// (kResourceExhaustedExit). Distinct from kSignal/kExit so triage
    /// and telemetry can tell a memory bomb from a segfault.
    kResourceExhausted = 4,
    /// Child raised a structured support::modelfault::ModelFault — an
    /// invariant violation inside the VM/emulator model (or an injected
    /// model-site failpoint), delivered in place of its result frame.
    kModelFault = 5,
  };
  Kind kind = Kind::kSignal;
  /// Signal number (kSignal/kDeadline/kResourceExhausted), exit code
  /// (kExit/kResourceExhausted), or ModelFault code (kModelFault).
  int detail = 0;
  /// Structured description where one exists (kModelFault carries the
  /// ModelFault::describe() text); empty otherwise.
  std::string message;

  [[nodiscard]] std::string describe() const;
};

/// A quarantined cell: every sandboxed execution attempt faulted, so the
/// campaign carries it as an explicit hole instead of dying with it.
struct PoisonedCell {
  std::size_t index = 0;       ///< grid index
  std::uint32_t attempts = 0;  ///< executions that all faulted
  HarnessFault fault;          ///< the final attempt's fault
};

/// Distributed-mode cell gate. When CampaignConfig::gate is set, the
/// runner consults it before executing each pending cell, so several
/// *processes* can split one grid: a gate implementation (e.g.
/// campaign::GridLease) claims disjoint cell ranges through atomic lease
/// files and answers try_claim accordingly. The gate never changes what
/// a cell computes — only whether this process runs it — so any union of
/// gated shard runs reduces to the ungated single-process result.
class CellGate {
 public:
  virtual ~CellGate() = default;
  /// May this shard run cell `index`? false = another shard owns its
  /// range (skip it; the runner will not retry within this pass).
  virtual bool try_claim(std::size_t index) = 0;
  /// Cell `index` has a *journaled* result — executed and appended just
  /// now, or recovered from this shard's checkpoint (called for every
  /// resumed cell before workers start). Never called for a cell whose
  /// journal append failed: only journaled cells may retire a range.
  virtual void completed(std::size_t index) = 0;
  /// Liveness signal between cells (lease mtime refresh).
  virtual void heartbeat() = 0;
};

/// Identity of a deduplicated crash: what failed, on which exit reason,
/// when which seed field was mutated. The paper's triage buckets.
struct CrashKey {
  hv::FailureKind kind = hv::FailureKind::kNone;
  vtx::ExitReason reason = vtx::ExitReason::kRdtsc;
  SeedItemKind item_kind = SeedItemKind::kGpr;
  /// Mutated field: vcpu::Gpr value for GPR items, compact VMCS field
  /// index for VMCS items.
  std::uint8_t encoding = 0;

  friend auto operator<=>(const CrashKey&, const CrashKey&) = default;
};

/// A cell's coverage contribution: every non-IRIS block its hypervisor
/// registered, with its LOC weight.
using CellCoverage = std::vector<std::pair<hv::BlockKey, std::uint8_t>>;

/// One triage bucket: the first archived record plus how often the
/// bucket was hit across the whole campaign.
struct DedupedCrash {
  CrashKey key;
  CrashRecord first;           ///< first occurrence in grid order
  std::size_t spec_index = 0;  ///< grid cell of the first occurrence
  std::size_t occurrences = 0;
};

/// Corpus sync: cap on imported seeds per sync epoch (store order:
/// sorted entry names).
inline constexpr std::size_t kCorpusMaxImports = 64;
/// Corpus sync: bit-flip mutants submitted per matching imported seed
/// per cell.
inline constexpr std::size_t kImportMutants = 64;

struct CampaignConfig {
  /// Worker threads; clamped to [1, grid size].
  std::size_t workers = 1;
  /// Construction seed of every worker's hypervisor.
  std::uint64_t hv_seed = 17;
  /// Must stay 0 for the determinism contract to hold.
  double async_noise_prob = 0.0;
  /// Exits recorded per workload behavior before fuzzing it.
  std::uint64_t record_exits = 150;
  std::uint64_t record_seed = 3;
  Fuzzer::Config fuzzer;

  // --- Persistence (src/campaign/). All off by default.

  /// Journal completed cells here; a later run with the same grid and
  /// config resumes mid-grid instead of starting over. Empty = off.
  std::string checkpoint_path;
  /// Write one replayable reproducer per crash bucket here. Empty = off.
  std::string crash_archive_dir;
  /// Stop cleanly after completing this many new cells (0 = run all).
  /// Models a killed worker for checkpoint tests and lets operators
  /// time-slice a long campaign across invocations.
  std::size_t cell_budget = 0;

  // --- Deterministic campaign corpus sync. Off by default.

  /// Shared CorpusStore directory to seed extra mutation targets from.
  /// Empty = off. Cells fuzz every imported seed whose exit reason
  /// matches theirs, in addition to VMseed_R. The import set is frozen
  /// into a *sync epoch* the first time a campaign touches the store and
  /// journaled in the checkpoint, so resumed or re-sharded runs replay
  /// exactly the same imports even if the store has grown since. The
  /// epoch holds at most kCorpusMaxImports seeds, and a cell submits
  /// kImportMutants mutants per matching import.
  std::string corpus_dir;
  /// Pre-resolved epoch import set (overrides scanning corpus_dir). The
  /// distributed layer pins one epoch in the lease directory and hands
  /// it to every shard through this field, so all shards agree even if
  /// the store mutates mid-campaign.
  std::optional<std::vector<VmSeed>> pinned_imports;

  /// Distributed-mode cell gate (not owned; must outlive run()). Like
  /// the worker count, the gate is excluded from the campaign
  /// fingerprint: it decides where cells run, never what they compute.
  CellGate* gate = nullptr;

  // --- Fault containment (PR 7). Off by default; none of these fields
  // enter the campaign fingerprint — like the worker count, they change
  // where and how cells execute, never what a cell computes. A clean
  // sandboxed cell is proven byte-identical to in-process execution.

  /// Execute cells in sandbox child processes: each worker gets one
  /// long-lived, watchdog-supervised child, forked before the workers
  /// start, and sends it one cell at a time; the child answers each with
  /// one result frame. A harness
  /// death (signal / nonzero exit / deadline / torn result frame)
  /// becomes a journaled HarnessFault for the cell the child was
  /// running, instead of shard death, and a new child serves the next
  /// attempt.
  bool sandbox_cells = false;
  /// Watchdog deadline per sandboxed cell execution; past it the child
  /// is SIGKILLed and the attempt counts as a kDeadline fault. 0 = no
  /// deadline.
  double cell_deadline_seconds = 120.0;
  /// Extra executions after a faulted attempt (with jittered exponential
  /// backoff) before the cell is quarantined as poisoned. Total attempts
  /// = 1 + cell_retries.
  std::size_t cell_retries = 2;
  /// Base backoff before the first retry; doubles per attempt, jittered.
  double retry_base_backoff_ms = 10.0;

  // --- Per-cell resource limits. Applied inside the sandbox
  // child *before* the cell body runs, so a memory-runaway or
  // CPU-spinning model bug kills the child, not the shard host. A limit
  // kill is classified HarnessFault::Kind::kResourceExhausted. Like
  // every containment knob, excluded from the campaign fingerprint.

  /// CPU budget per sandboxed cell attempt, in seconds. 0 = off. A
  /// per-cell soft RLIMIT_CPU: before each cell the child moves only the
  /// soft limit, to the CPU it has used so far rounded up to a second
  /// plus this budget, so past it the kill signal is SIGXCPU. The hard
  /// limit is inherited, never set: a child that lowered it could not
  /// raise it again for its next cell.
  std::uint64_t rlimit_cpu_seconds = 0;
  /// RLIMIT_AS of each sandbox child, in MiB. 0 = off. Silently
  /// skipped when rlimit_as_supported() is false (ASan and TSan builds
  /// reserve terabytes of VA; capping it would kill every clean cell).
  std::uint64_t rlimit_as_mb = 0;
  /// RLIMIT_CORE of each sandbox child, in MiB (0 disables core
  /// dumps — a fuzzing fleet does not want a disk full of cores from
  /// faults it already classifies). -1 = leave the inherited limit.
  std::int64_t rlimit_core_mb = -1;

  // --- Poison-aware re-probe (PR 9). A quarantined cell is not final:
  // after the grid pass, cells still poisoned (fresh or resumed) are
  // re-probed once on a degraded profile — a freshly rebuilt pool slot,
  // a reduced mutant budget, a halved deadline and CPU budget — and a
  // clean probe earns a full-fidelity re-execution journaled like any
  // clean cell (which is what rehabilitates the cell: clean-cell-wins
  // already governs resume and reduce). A failed probe re-poisons with
  // the attempt history. Requires sandbox_cells; each round is journaled
  // as a re-probe record.

  /// Re-probe still-poisoned cells at the end of the run.
  bool reprobe_poisoned = false;

  /// Cooperative stop flag (not owned; may be null). Set by a signal
  /// handler: workers finish their in-flight cell, journal it, and stop
  /// claiming new ones. The run returns incomplete, resumable as usual.
  const std::atomic<bool>* stop = nullptr;

  // --- Telemetry (PR 8). Pure observability, excluded from the
  // campaign fingerprint like the worker count: publication reads
  // counters the run maintains anyway and never feeds anything back
  // into cell execution, so enabling it leaves
  // campaign::canonical_result_bytes bit-identical (asserted in tests
  // and CI).

  /// Atomically rewrite a campaign::ShardStatus JSON snapshot here on
  /// the status cadence (plus once at start and once at return). In
  /// distributed mode the shard layer points this into the lease
  /// directory (status-<shard>.json). Empty = off.
  std::string status_path;
  /// Minimum seconds between status publications; workers check the
  /// cadence between cells, so slow cells stretch it.
  double status_interval_seconds = 2.0;
  /// Shard identity stamped into status snapshots ("local" if empty).
  std::string shard_label;
  /// Called with every published snapshot (same cadence as
  /// status_path, either enables publishing). Drives fuzz_campaign's
  /// one-line progress reports. Runs on a worker thread; keep it cheap.
  std::function<void(const campaign::ShardStatus&)> on_progress;

  // --- Postmortem forensics (PR 10). Excluded from the campaign
  // fingerprint like every containment and telemetry knob: the flight
  // recorder observes a cell, it never feeds anything back, so armed
  // and dark runs are byte-identical (asserted in tests and CI).

  /// With sandbox_cells, each sandbox child arms a
  /// support::FlightRecorder whose ring lives in a MAP_SHARED mapping,
  /// so the parent can harvest breadcrumbs from a child that died by
  /// SIGKILL; the child clears the ring before each cell. On any
  /// HarnessFault the parent decodes the dead child's ring (the crumbs
  /// of the cell that died) and publishes the forensic record atomically
  /// as forensics-<cell>.json here (see campaign/forensics.h). Requires
  /// sandbox_cells. Empty = off.
  std::string forensics_dir;
};

struct CampaignResult {
  /// Per-cell results, in grid order regardless of sharding.
  std::vector<TestCaseResult> results;

  /// Union of the per-worker hypervisor coverage bitmaps
  /// (block -> LOC weight, the registry view of hv::CoverageMap),
  /// with Component::kIris instrumentation blocks filtered out so the
  /// total stays comparable to the per-cell Table I numbers.
  std::unordered_map<hv::BlockKey, std::uint8_t> merged_coverage;
  /// Total LOC weight of the merged bitmap.
  std::uint32_t merged_loc = 0;

  /// Crash buckets in grid-order of first occurrence.
  std::vector<DedupedCrash> unique_crashes;
  std::size_t total_crashes = 0;  ///< archived records before dedup

  // Aggregate counters over all cells.
  std::size_t cells_ran = 0;
  std::size_t executed = 0;
  std::size_t vm_crashes = 0;
  std::size_t hv_crashes = 0;
  std::size_t hangs = 0;

  // Throughput (wall clock over the sharded phase). mutants_per_second
  // counts only the mutants this run executed, never resumed cells'.
  double elapsed_seconds = 0.0;
  double mutants_per_second = 0.0;
  std::size_t workers_used = 1;

  // --- Persistence accounting.
  /// Every grid cell has a result (false after a cell_budget stop: the
  /// merged fields cover only the completed cells).
  bool complete = true;
  /// Per-cell completion flags (grid order): 0 = still pending after a
  /// budget stop, its results[i] entry is a placeholder.
  std::vector<std::uint8_t> cells_completed;
  /// Cells recovered from the checkpoint instead of executed.
  std::size_t cells_resumed = 0;
  /// First persistence failure (checkpoint/archive IO); empty when
  /// persistence is off or healthy. Results are still valid — the run
  /// falls back to in-memory operation.
  std::string persistence_error;

  // --- Fault containment accounting (sandbox mode only).
  /// Cells quarantined after exhausting their attempt budget, in grid
  /// order. A poisoned cell's results[i] entry is a placeholder and its
  /// cells_completed[i] flag is 0; `complete` is false whenever any cell
  /// is poisoned — the campaign outcome is honestly partial.
  std::vector<PoisonedCell> poisoned_cells;
  /// Total harness faults observed (including ones later retried into
  /// clean results).
  std::size_t harness_faults = 0;
  /// Faults classified kResourceExhausted (rlimit kills), a subset of
  /// harness_faults.
  std::size_t rlimit_kills = 0;
  /// Faults classified kModelFault, a subset of harness_faults.
  std::size_t model_faults = 0;
  /// Forensic records published to CampaignConfig::forensics_dir (one
  /// per faulted cell attempt; same-cell rewrites counted each time).
  std::size_t forensics_written = 0;
  /// Poisoned cells re-probed at end of run (each counts one round).
  std::size_t cells_reprobed = 0;
  /// Re-probed cells whose probe and full re-execution both came back
  /// clean — removed from poisoned_cells, their results journaled.
  std::size_t cells_rehabilitated = 0;
  /// True when the run stopped early because config.stop was raised.
  bool interrupted = false;
};

/// False under AddressSanitizer and ThreadSanitizer (their shadow
/// mappings reserve terabytes of address space, so any useful RLIMIT_AS
/// cap starves the sanitizer's allocator and kills every clean cell);
/// true elsewhere. Gates CampaignConfig::rlimit_as_mb.
bool rlimit_as_supported() noexcept;

/// Decode and classify the one frame a sandbox child sent for cell
/// `index` (support/sandbox_frame.h), or the bytes a child that exited 0
/// left before its frame was complete. An intact
/// result frame ("IRSB") naming cell `index` yields the cell's journal
/// record; an intact model-fault frame ("IRMF") yields a kModelFault
/// carrying the model fault's code and description. Anything else is a
/// kProtocol fault: detail 0 for a torn frame (short, other magic,
/// length mismatch), 1 for a checksum mismatch, 2 for a payload that
/// does not parse, has trailing bytes or names another cell. Callers
/// include campaign/checkpoint.h for CheckpointCell.
std::variant<campaign::CheckpointCell, HarnessFault> decode_cell_frame(
    std::span<const std::uint8_t> bytes, std::size_t index);

/// Merge phase shared by CampaignRunner and campaign::reduce_journals:
/// folds the per-cell coverage lists (grid order) into merged_coverage /
/// merged_loc and recomputes the aggregate counters and deduplicated
/// crash buckets from out.results. Keeping this in one place is what
/// makes "reduce M shard journals" provably identical to "run one
/// process": both feed the same per-cell results through the same fold.
void finalize_campaign_result(const std::vector<CellCoverage>& cell_coverage,
                              CampaignResult& out);

class CampaignRunner {
 public:
  CampaignRunner() = default;
  explicit CampaignRunner(CampaignConfig config) : config_(config) {}

  [[nodiscard]] const CampaignConfig& config() const noexcept { return config_; }

  /// Run every cell of `grid`, sharded across config().workers threads.
  /// Build grids by hand or with make_table1_grid() from fuzzer.h.
  CampaignResult run(const std::vector<TestCaseSpec>& grid);

 private:
  CampaignConfig config_;
};

}  // namespace iris::fuzz
