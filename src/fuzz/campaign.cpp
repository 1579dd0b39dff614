#include "fuzz/campaign.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <thread>

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/checkpoint.h"
#include "campaign/corpus_store.h"
#include "campaign/crash_archive.h"
#include "campaign/forensics.h"
#include "campaign/monitor.h"
#include "fuzz/vm_pool.h"
#include "support/failpoints.h"
#include "support/flight_recorder.h"
#include "support/fs_atomic.h"
#include "support/model_fault.h"
#include "support/retry.h"
#include "support/telemetry.h"

namespace iris::fuzz {
namespace {

/// Frame magic on the sandbox result pipe ("IRSB"): magic u32, payload
/// length u32, fnv1a(payload) u64, payload (a serialized
/// CheckpointCell). Anything else — short read, bad checksum, trailing
/// bytes — is a kProtocol harness fault, never a crash.
constexpr std::uint32_t kSandboxFrameMagic = 0x49525342;

/// One cell's throwaway VM stack (the reuse_vm_stacks == false path).
/// Construction is a pure function of config; naively reusing a manager
/// across cells would leak hypervisor-global state (device/timer
/// histories, coverage registry, clock) into later cells' results. The
/// pooled path reuses stacks anyway — safely — because PooledVm::reset()
/// provably reconstructs this exact post-construction state
/// (hv::state_digest equality, asserted in debug builds).
struct CellVm {
  explicit CellVm(const CampaignConfig& config)
      : CellVm(config, vtx::baseline_profile()) {}
  CellVm(const CampaignConfig& config, const vtx::VmxCapabilityProfile& profile)
      : hv(config.hv_seed, config.async_noise_prob, profile), manager(hv) {}

  hv::Hypervisor hv;
  Manager manager;
};

/// The cell's coverage contribution: every non-IRIS block its fresh
/// hypervisor registered, with LOC weights. The record/replay components
/// instrument themselves under kIris; filter them exactly as
/// ExitCoverage does, so the merged bitmap stays comparable to the
/// per-cell Table I numbers.
std::vector<std::pair<hv::BlockKey, std::uint8_t>> cell_coverage(
    const hv::CoverageMap& cov) {
  std::vector<std::pair<hv::BlockKey, std::uint8_t>> blocks;
  blocks.reserve(cov.registered_blocks().size());
  for (const hv::BlockKey block : cov.registered_blocks()) {
    if (hv::block_component(block) == hv::Component::kIris) continue;
    blocks.emplace_back(block, cov.loc_of(block));
  }
  return blocks;
}

/// Mutant budget of a re-probe's degraded canary run (capped by the
/// cell's own budget). The probe result is always discarded — only a
/// full-fidelity re-execution may be journaled, or the reducer would see
/// two different "results" for one cell.
constexpr std::size_t kReprobeProbeMutants = 16;

/// Resource limits one forked sandbox child runs under. The watchdog
/// deadline rides along so the re-probe pass can degrade all of them
/// coherently (a probe gets half the deadline, half the CPU budget).
struct SandboxLimits {
  double deadline_seconds = 0.0;
  std::uint64_t cpu_seconds = 0;  ///< RLIMIT_CPU; 0 = off
  std::uint64_t as_mb = 0;        ///< RLIMIT_AS; 0 = off
  std::int64_t core_mb = -1;      ///< RLIMIT_CORE; -1 = inherit
};

/// Child-side rlimit installation, between fork() and the cell body.
/// Failures are deliberately ignored (a host that refuses a tighter
/// limit leaves the child exactly as contained as before this PR); the
/// CPU hard limit sits one second above the soft one so the kill is a
/// classifiable SIGXCPU, not a blunt SIGKILL.
void apply_child_rlimits(const SandboxLimits& limits) {
  if (limits.cpu_seconds > 0) {
    const ::rlimit r{static_cast<rlim_t>(limits.cpu_seconds),
                     static_cast<rlim_t>(limits.cpu_seconds + 1)};
    (void)::setrlimit(RLIMIT_CPU, &r);
  }
  if (limits.as_mb > 0 && rlimit_as_supported()) {
    const auto bytes = static_cast<rlim_t>(limits.as_mb) << 20;
    const ::rlimit r{bytes, bytes};
    (void)::setrlimit(RLIMIT_AS, &r);
    // Under RLIMIT_AS a clean allocation path dies as bad_alloc ->
    // std::terminate -> SIGABRT, indistinguishable from a model crash.
    // Exit through the dedicated code instead so the parent classifies
    // kResourceExhausted.
    std::set_new_handler(
        [] { ::_exit(support::failpoints::kResourceExhaustedExit); });
  }
  if (limits.core_mb >= 0) {
    const auto bytes = static_cast<rlim_t>(limits.core_mb) << 20;
    const ::rlimit r{bytes, bytes};
    (void)::setrlimit(RLIMIT_CORE, &r);
  }
}

/// The run's one event sink. Each lifecycle event is a single call that
/// updates the per-run count, the registry metric and the trace event
/// together (and prints the operator's stderr line for quarantines and
/// re-probes); the live status snapshot (CampaignConfig::status_path /
/// on_progress) and the end-of-run CampaignResult tallies both read
/// those per-run counts. A pure observer: nothing here feeds back into
/// what a cell computes, so status, metrics and traces leave results
/// byte-identical — the telemetry determinism tests assert exactly that.
/// Counts are progress reports, never synchronization points.
class StatusBoard {
 public:
  static constexpr std::size_t kIdle = ~std::size_t{0};
  using Clock = std::chrono::steady_clock;

  StatusBoard(const CampaignConfig& config, std::size_t cells_total,
              std::size_t workers)
      : config_(config), cells_total_(cells_total), in_flight_(workers) {
    for (auto& slot : in_flight_) slot.store(kIdle, std::memory_order_relaxed);
    started_unix_ = campaign::wall_clock_unix();
    started_ = Clock::now();
  }

  // --- Lifecycle events.

  /// Cells recovered from the checkpoint journal instead of executed.
  void resumed(std::size_t cells) {
    resumed_ = cells;
    done_ = cells;
    reg_.add(cells_resumed_id_, cells);
    reg_.add(cells_done_id_, cells);
  }

  void sync_epoch(std::uint32_t epoch, std::size_t imports) {
    if (!support::trace_active()) return;
    support::TraceEvent event("sync_epoch");
    event.num("epoch", epoch).num("imports", static_cast<double>(imports));
    support::trace(std::move(event));
  }

  /// Returns the instant the cell's wall time (cell_done.wall_ms,
  /// campaign.cell_us) starts from.
  Clock::time_point cell_start(std::size_t cell, std::size_t worker) {
    set_in_flight(worker, cell);
    if (support::trace_active()) {
      support::TraceEvent event("cell_start");
      event.num("cell", static_cast<double>(cell))
          .num("worker", static_cast<double>(worker));
      support::trace(std::move(event));
    }
    return Clock::now();
  }

  void cell_done(std::size_t cell, std::size_t worker, const TestCaseResult& r,
                 Clock::time_point started) {
    const double cell_us = us_since(started);
    count_done(r.executed);
    set_in_flight(worker, kIdle);
    reg_.observe(cell_us_id_, cell_us);
    if (!support::trace_active()) return;
    support::TraceEvent event("cell_done");
    event.num("cell", static_cast<double>(cell))
        .num("executed", static_cast<double>(r.executed))
        .num("vm_crashes", static_cast<double>(r.vm_crashes))
        .num("hv_crashes", static_cast<double>(r.hv_crashes))
        .num("wall_ms", cell_us / 1000.0);
    support::trace(std::move(event));
  }

  /// One sandboxed attempt's fork + pipe + reap latency, faulted or not.
  void sandbox_attempt(Clock::time_point started) {
    reg_.observe(sandbox_cell_us_id_, us_since(started));
  }

  void fault(std::size_t cell, std::size_t attempt, const HarnessFault& f) {
    ++faults_;
    reg_.add(harness_faults_id_);
    const bool traced = support::trace_active();
    if (f.kind == HarnessFault::Kind::kResourceExhausted) {
      ++rlimit_kills_;
      reg_.add(rlimit_kills_id_);
    } else if (f.kind == HarnessFault::Kind::kModelFault) {
      ++model_faults_;
      reg_.add(model_faults_id_);
      if (traced) {
        support::TraceEvent event("model_fault");
        event.num("cell", static_cast<double>(cell))
            .num("code", static_cast<double>(f.detail))
            .str("fault", f.describe());
        support::trace(std::move(event));
      }
    }
    if (!traced) return;
    support::TraceEvent event("harness_fault");
    event.num("cell", static_cast<double>(cell))
        .num("attempt", static_cast<double>(attempt))
        .num("kind", static_cast<double>(f.kind))
        .str("fault", f.describe());
    support::trace(std::move(event));
  }

  void retry(std::size_t cell, std::size_t attempt, double backoff_ms) {
    reg_.add(cell_retries_id_);
    if (!support::trace_active()) return;
    support::TraceEvent event("retry");
    event.num("cell", static_cast<double>(cell))
        .num("attempt", static_cast<double>(attempt))
        .num("backoff_ms", backoff_ms);
    support::trace(std::move(event));
  }

  void quarantine(std::size_t cell, std::size_t worker, std::size_t attempts,
                  const HarnessFault& f) {
    const std::string fault = f.describe();
    std::fprintf(stderr,
                 "campaign: cell %zu poisoned after %zu attempts: %s\n", cell,
                 attempts, fault.c_str());
    ++poisoned_;
    reg_.add(cells_poisoned_id_);
    set_in_flight(worker, kIdle);
    if (!support::trace_active()) return;
    support::TraceEvent event("quarantine");
    event.num("cell", static_cast<double>(cell))
        .num("attempts", static_cast<double>(attempts))
        .str("fault", fault);
    support::trace(std::move(event));
  }

  void rebuild() { reg_.add(pool_rebuilds_id_); }

  /// One end-of-run re-probe round. A null `f` means the cell was
  /// rehabilitated: its full re-run of `executed` mutants counts as done,
  /// and it stops counting as this run's quarantine.
  void reprobe(std::size_t cell, std::uint32_t round, std::uint32_t attempts,
               const HarnessFault* f, std::size_t executed) {
    ++reprobed_;
    reg_.add(reprobes_id_);
    if (f != nullptr) {
      std::fprintf(stderr,
                   "campaign: cell %zu re-poisoned by re-probe round %u: %s\n",
                   cell, round, f->describe().c_str());
    } else {
      std::fprintf(stderr,
                   "campaign: cell %zu rehabilitated by re-probe round %u\n",
                   cell, round);
      ++rehabilitated_;
      reg_.add(rehabilitated_id_);
      count_done(executed);
      // Resumed poisons never bumped this run's count; only un-count
      // quarantines it actually counted. (Main thread only: the workers
      // have joined.)
      if (poisoned_ > 0) --poisoned_;
    }
    if (!support::trace_active()) return;
    support::TraceEvent event("reprobe");
    event.num("cell", static_cast<double>(cell))
        .num("round", static_cast<double>(round))
        .num("attempts", static_cast<double>(attempts))
        .str("outcome", f != nullptr ? "repoisoned" : "rehabilitated");
    if (f != nullptr) event.str("fault", f->describe());
    support::trace(std::move(event));
  }

  void forensics(std::size_t cell, std::size_t attempt, std::size_t crumbs) {
    ++forensics_;
    reg_.add(forensics_id_);
    if (!support::trace_active()) return;
    support::TraceEvent event("forensics");
    event.num("cell", static_cast<double>(cell))
        .num("attempt", static_cast<double>(attempt))
        .num("crumbs", static_cast<double>(crumbs))
        .str("file", campaign::forensic_file_name(cell));
    support::trace(std::move(event));
  }

  /// The journal failed for good; the run completes in memory.
  void degrade(const std::string& error) {
    if (!support::trace_active()) return;
    support::TraceEvent event("degrade");
    event.str("what", "checkpoint").str("error", error);
    support::trace(std::move(event));
  }

  /// The run's containment and forensics tallies, read once at its end.
  void copy_tallies(CampaignResult& out) const {
    out.harness_faults = faults_;
    out.rlimit_kills = rlimit_kills_;
    out.model_faults = model_faults_;
    out.forensics_written = forensics_;
    out.cells_reprobed = reprobed_;
    out.cells_rehabilitated = rehabilitated_;
  }

  // --- Status publication.

  /// Workers call this between cells; publishes when the cadence is due.
  void tick() {
    if (!enabled()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto now = Clock::now();
    if (published_once_ &&
        std::chrono::duration<double>(now - last_publish_).count() <
            config_.status_interval_seconds) {
      return;
    }
    publish_locked();
  }

  /// Unconditional publication (run start and run end).
  void publish_now() {
    if (!enabled()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    publish_locked();
  }

 private:
  [[nodiscard]] bool enabled() const noexcept {
    return !config_.status_path.empty() || config_.on_progress != nullptr;
  }

  void set_in_flight(std::size_t worker, std::size_t cell) {
    if (!enabled() || worker >= in_flight_.size()) return;
    in_flight_[worker].store(cell, std::memory_order_relaxed);
  }

  static double us_since(Clock::time_point started) {
    return std::chrono::duration<double, std::micro>(Clock::now() - started)
        .count();
  }

  void count_done(std::size_t executed) {
    ++done_;
    executed_ += executed;
    reg_.add(cells_done_id_);
    reg_.add(mutants_id_, executed);
  }

  void publish_locked() {
    published_once_ = true;
    last_publish_ = Clock::now();
    campaign::ShardStatus status;
    status.shard_id =
        config_.shard_label.empty() ? "local" : config_.shard_label;
    status.pid = static_cast<std::uint64_t>(::getpid());
    status.started_unix = started_unix_;
    status.heartbeat_unix = campaign::wall_clock_unix();
    status.cells_total = cells_total_;
    status.cells_done = done_;
    status.cells_resumed = resumed_;
    status.cells_poisoned = poisoned_;
    status.harness_faults = faults_;
    status.executed = executed_;
    status.elapsed_seconds =
        std::chrono::duration<double>(last_publish_ - started_).count();
    status.mutants_per_second =
        status.elapsed_seconds > 0.0
            ? static_cast<double>(status.executed) / status.elapsed_seconds
            : 0.0;
    for (const auto& slot : in_flight_) {
      const std::size_t cell = slot.load(std::memory_order_relaxed);
      if (cell != kIdle) status.in_flight.push_back(cell);
    }
    // The registry is process-global, so in a multi-run process the
    // counters are process totals — exactly what a fleet monitor wants
    // across a shard's claim passes.
    const auto snap = support::metrics().snapshot();
    status.counters = snap.counters;
    status.gauges = snap.gauges;
    if (!config_.status_path.empty()) {
      // Best-effort by contract: a sick status file must never sicken
      // the campaign.
      (void)campaign::write_status_file(config_.status_path, status);
    }
    if (config_.on_progress) config_.on_progress(status);
  }

  const CampaignConfig& config_;
  const std::size_t cells_total_;
  std::vector<std::atomic<std::size_t>> in_flight_;
  double started_unix_ = 0.0;
  Clock::time_point started_;
  std::mutex mutex_;
  Clock::time_point last_publish_;
  bool published_once_ = false;

  // Per-run counts.
  std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> resumed_{0};
  std::atomic<std::size_t> poisoned_{0};
  std::atomic<std::size_t> faults_{0};
  std::atomic<std::size_t> executed_{0};
  std::atomic<std::size_t> rlimit_kills_{0};
  std::atomic<std::size_t> model_faults_{0};
  std::atomic<std::size_t> forensics_{0};
  std::atomic<std::size_t> reprobed_{0};
  std::atomic<std::size_t> rehabilitated_{0};

  // Registry metrics, registered once per run (registration is the cold
  // path; every event is an id-indexed add on a per-thread shard).
  support::MetricsRegistry& reg_ = support::metrics();
  const support::MetricId cells_done_id_ =
      reg_.counter_id("campaign.cells_done");
  const support::MetricId cells_resumed_id_ =
      reg_.counter_id("campaign.cells_resumed");
  const support::MetricId cells_poisoned_id_ =
      reg_.counter_id("campaign.cells_poisoned");
  const support::MetricId harness_faults_id_ =
      reg_.counter_id("campaign.harness_faults");
  const support::MetricId cell_retries_id_ =
      reg_.counter_id("campaign.cell_retries");
  const support::MetricId rlimit_kills_id_ =
      reg_.counter_id("cell.rlimit_kills");
  const support::MetricId model_faults_id_ =
      reg_.counter_id("fuzz.model_faults");
  const support::MetricId reprobes_id_ = reg_.counter_id("poison.reprobes");
  const support::MetricId rehabilitated_id_ =
      reg_.counter_id("poison.rehabilitated");
  const support::MetricId forensics_id_ = reg_.counter_id("forensics.written");
  const support::MetricId mutants_id_ = reg_.counter_id("campaign.mutants");
  const support::MetricId pool_rebuilds_id_ = reg_.counter_id("pool.rebuilds");
  const support::MetricId sandbox_cell_us_id_ =
      reg_.histogram_id("sandbox.cell_us");
  const support::MetricId cell_us_id_ = reg_.histogram_id("campaign.cell_us");
};

}  // namespace

std::string HarnessFault::describe() const {
  switch (kind) {
    case Kind::kSignal:
      return "harness killed by signal " + std::to_string(detail);
    case Kind::kExit:
      return "harness exited with code " + std::to_string(detail);
    case Kind::kDeadline:
      return "harness overran the cell deadline (SIGKILLed)";
    case Kind::kProtocol:
      return "harness result pipe torn or corrupt";
    case Kind::kResourceExhausted:
      return detail == SIGXCPU
                 ? "harness exceeded its CPU resource limit (SIGXCPU)"
                 : "harness exceeded its memory resource limit (exit " +
                       std::to_string(detail) + ")";
    case Kind::kModelFault:
      return message.empty() ? "model-layer invariant violation" : message;
  }
  return "unknown harness fault";
}

bool rlimit_as_supported() noexcept {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

void finalize_campaign_result(
    const std::vector<std::vector<std::pair<hv::BlockKey, std::uint8_t>>>&
        cell_coverage,
    CampaignResult& out) {
  // --- Merge the per-cell coverage in grid order (union; weights are
  // static), accumulating the total LOC as blocks are first inserted.
  out.merged_coverage.clear();
  out.merged_loc = 0;
  for (const auto& blocks : cell_coverage) {
    for (const auto& [block, loc] : blocks) {
      if (out.merged_coverage.emplace(block, loc).second) {
        out.merged_loc += loc;
      }
    }
  }

  // --- Aggregate counters and crash dedup, in grid order. ---
  out.unique_crashes.clear();
  out.total_crashes = 0;
  out.cells_ran = 0;
  out.executed = 0;
  out.vm_crashes = 0;
  out.hv_crashes = 0;
  out.hangs = 0;
  std::map<CrashKey, std::size_t> buckets;  // key -> index in unique_crashes
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const TestCaseResult& r = out.results[i];
    if (r.ran) ++out.cells_ran;
    out.executed += r.executed;
    out.vm_crashes += r.vm_crashes;
    out.hv_crashes += r.hv_crashes;
    out.hangs += r.hangs;
    for (const CrashRecord& crash : r.crashes) {
      ++out.total_crashes;
      const SeedItem& mutated = crash.mutant.items[crash.mutation.item_index];
      const CrashKey key{crash.kind, r.spec.reason, mutated.kind,
                         mutated.encoding};
      auto [it, inserted] = buckets.emplace(key, out.unique_crashes.size());
      if (inserted) {
        out.unique_crashes.push_back(DedupedCrash{key, crash, i, 1});
      } else {
        ++out.unique_crashes[it->second].occurrences;
      }
    }
  }
}

CampaignResult CampaignRunner::run(const std::vector<TestCaseSpec>& grid) {
  CampaignResult out;
  out.results.resize(grid.size());
  // Placeholder results of pending cells still carry their real spec,
  // so partial-run reporting can label them.
  for (std::size_t i = 0; i < grid.size(); ++i) out.results[i].spec = grid[i];
  if (grid.empty()) return out;

  const std::size_t workers =
      std::clamp<std::size_t>(config_.workers, 1, grid.size());
  out.workers_used = workers;

  StatusBoard board(config_, grid.size(), workers);

  // --- Recover completed cells from the checkpoint journal. A journal
  // that cannot be opened (foreign fingerprint, unreadable file) is
  // surfaced but never written to: the run proceeds in-memory.
  std::optional<campaign::CampaignCheckpoint> checkpoint;
  std::vector<char> done(grid.size(), 0);
  std::vector<char> poisoned(grid.size(), 0);
  std::vector<std::vector<std::pair<hv::BlockKey, std::uint8_t>>> cell_cov(
      grid.size());
  if (!config_.checkpoint_path.empty()) {
    auto opened = campaign::CampaignCheckpoint::open(
        config_.checkpoint_path, campaign::campaign_fingerprint(grid, config_));
    if (opened.ok()) {
      checkpoint = std::move(opened).take();
      for (const auto& cell : checkpoint->cells()) {
        if (cell.index >= grid.size() || done[cell.index] != 0) continue;
        done[cell.index] = 1;
        out.results[cell.index] = cell.result;
        cell_cov[cell.index] = cell.coverage;
        ++out.cells_resumed;
      }
      // Quarantined cells resume as quarantined: the journal says every
      // attempt faulted, so this run never re-executes them (a clean
      // journaled result for the same index — impossible from one
      // campaign, conceivable from a hand-merged journal — wins above).
      for (const auto& poison : checkpoint->poisons()) {
        if (poison.index >= grid.size() || done[poison.index] != 0 ||
            poisoned[poison.index] != 0) {
          continue;
        }
        poisoned[poison.index] = 1;
        out.poisoned_cells.push_back(PoisonedCell{
            poison.index, poison.attempts,
            HarnessFault{static_cast<HarnessFault::Kind>(poison.fault_kind),
                         poison.detail, poison.message}});
      }
      // Re-probe history: a re-poisoned round updated the quarantine's
      // attempt count and fault without a second poison record; fold
      // that in. Rehabilitated rounds need nothing — the clean cell
      // record that follows them already marked the cell done, so the
      // poison loop above skipped it.
      for (const auto& rp : checkpoint->reprobes()) {
        if (rp.index >= grid.size() || done[rp.index] != 0) continue;
        for (auto& cell : out.poisoned_cells) {
          if (cell.index != rp.index ||
              rp.outcome != campaign::kReprobeRepoisoned) {
            continue;
          }
          cell.attempts = std::max(cell.attempts, rp.attempts_total);
          cell.fault =
              HarnessFault{static_cast<HarnessFault::Kind>(rp.fault_kind),
                           rp.detail, rp.message};
        }
      }
    } else {
      out.persistence_error = opened.error().message;
    }
  }
  board.resumed(out.cells_resumed);

  // The first persistence failure (journal, forensics, crash archive)
  // wins. Worker threads call this under journal_mutex.
  auto keep_error = [&out](const Status& status) {
    if (!status.ok() && out.persistence_error.empty()) {
      out.persistence_error = status.error().message;
    }
  };
  // One append path for every journal record. After the first post-retry
  // (i.e. permanent: ENOSPC, EACCES, ...) append failure the journal is
  // degraded: the campaign completes in memory without hammering a
  // hopeless filesystem once per cell, and the recorded
  // persistence_error surfaces at campaign end. True iff the record
  // reached this shard's journal.
  std::mutex journal_mutex;
  bool journal_degraded = false;
  auto journal = [&](const auto& append) -> bool {
    const std::lock_guard<std::mutex> lock(journal_mutex);
    if (!checkpoint || journal_degraded) return false;
    const Status status = append(*checkpoint);
    if (status.ok()) return true;
    keep_error(status);
    journal_degraded = true;
    board.degrade(status.error().message);
    return false;
  };

  // --- Resolve the corpus-sync epoch. Priority: an epoch already in the
  // journal (a resumed run replays exactly the imports the first run
  // froze), then a pinned set from the distributed layer (all shards of
  // one grid share one epoch file), then a fresh snapshot of the shared
  // store in deterministic (sorted entry name) order. The epoch is
  // journaled *before* any cell, so even a run killed after one cell
  // leaves its import set on disk.
  std::vector<VmSeed> imports;
  std::uint32_t sync_epoch = 0;
  const bool sync_enabled =
      !config_.corpus_dir.empty() || config_.pinned_imports.has_value();
  if (sync_enabled) {
    if (checkpoint && !checkpoint->epochs().empty()) {
      imports = checkpoint->epochs().back().imports;
      sync_epoch = checkpoint->epochs().back().epoch;
    } else {
      if (config_.pinned_imports.has_value()) {
        imports = *config_.pinned_imports;
        if (imports.size() > config_.corpus_max_imports) {
          imports.resize(config_.corpus_max_imports);
        }
      } else {
        const campaign::CorpusStore store(config_.corpus_dir);
        for (const auto& name : store.list()) {
          if (imports.size() >= config_.corpus_max_imports) break;
          auto entry = store.read_entry(name);
          if (!entry.ok()) continue;  // corrupt entries never kill a run
          imports.push_back(std::move(entry).take().seed);
        }
      }
      sync_epoch = 1;
      journal([&](campaign::CampaignCheckpoint& c) {
        return c.append_epoch(campaign::SyncEpochRecord{sync_epoch, imports});
      });
    }
    board.sync_epoch(sync_epoch, imports.size());
  }

  // First status publication before any cell runs, so a fleet monitor
  // sees the shard the moment it starts (CI greps for this).
  board.publish_now();

  // Per-worker pooled VM stacks (the default): one Hypervisor/Manager
  // per worker for the whole grid, reset to the post-construction state
  // between cells. Slots are created lazily, so a fully-resumed run
  // builds none.
  std::optional<VmPool> pool;
  if (config_.reuse_vm_stacks) {
    pool.emplace(workers, config_.hv_seed, config_.async_noise_prob);
  }

  // Record each workload's behavior on first need, on the needing
  // worker's own stack (slot w belongs to worker w; the archive phase
  // below calls with worker 0 from the main thread after the join).
  // Recording is a pure function of (workload, config) — identical
  // bytes whichever worker records, a fact the pool's reset-fidelity
  // digest asserts — so laziness cannot change results; it only avoids
  // recording workloads whose cells this run never executes (fully
  // resumed grids, ranges denied by a distributed gate).
  std::mutex behaviors_mutex;
  std::map<guest::Workload, VmBehavior> behaviors;
  auto ensure_behavior = [&behaviors, &behaviors_mutex, &pool, this](
                             guest::Workload workload,
                             std::size_t worker_index) -> const VmBehavior& {
    const std::lock_guard<std::mutex> lock(behaviors_mutex);
    auto it = behaviors.find(workload);
    if (it == behaviors.end()) {
      // Record once, always on the BASELINE profile, whatever profile
      // the requesting cell fuzzes against: the capability matrix is
      // record-once/replay-everywhere, so every profile's cells mutate
      // the identical recorded behavior. (The cell body re-resets its
      // stack to the spec's profile before fuzzing, so this costs the
      // profiled cell nothing it wasn't already paying.)
      std::optional<CellVm> throwaway;
      Manager* recorder = nullptr;
      if (pool) {
        PooledVm& slot = pool->worker(worker_index);
        slot.reset();
        recorder = &slot.manager();
      } else {
        throwaway.emplace(config_);
        recorder = &throwaway->manager;
      }
      it = behaviors
               .emplace(workload,
                        recorder->record_workload(workload, config_.record_exits,
                                                  config_.record_seed))
               .first;
    }
    return it->second;  // map references stay valid across inserts
  };

  const auto started = std::chrono::steady_clock::now();

  // Cell budget: workers claim a slot before executing a new cell, so a
  // budgeted run completes exactly min(budget, remaining) cells. Which
  // cells land inside the budget depends on thread timing — harmless,
  // since every cell is an independent pure function and the final
  // merged result is a function of the full grid only.
  std::atomic<std::size_t> budget{config_.cell_budget == 0
                                      ? std::numeric_limits<std::size_t>::max()
                                      : config_.cell_budget};
  auto claim_budget = [&budget]() {
    std::size_t current = budget.load(std::memory_order_relaxed);
    while (current != 0) {
      if (budget.compare_exchange_weak(current, current - 1,
                                       std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  };

  // --- Postmortem flight recorders (PR 10). One crash-surviving ring
  // per worker, created BEFORE any fork so every sandbox child inherits
  // its worker's MAP_SHARED mapping; the parent resets it per attempt
  // and harvests it after any harness fault. Armed only when a harvest
  // can be published: sandboxed cells with a forensics directory.
  const bool recorder_enabled =
      config_.sandbox_cells && !config_.forensics_dir.empty();
  std::vector<std::unique_ptr<support::FlightRecorder>> recorders;
  if (recorder_enabled) {
    recorders.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      recorders.push_back(std::make_unique<support::FlightRecorder>());
    }
  }
  // Cells with a published forensic record. No synchronization needed:
  // cell i is touched only by the worker that owns it (fixed stride),
  // and the post-join phases read it from the main thread.
  std::vector<char> forensic_written(grid.size(), 0);
  /// Decode the (dead) child's ring and publish forensics-<cell>.json.
  /// Best-effort by the same contract as the status file: a sick
  /// forensic write surfaces in persistence_error but never fails or
  /// perturbs the campaign.
  auto publish_forensics = [&](std::size_t i, std::size_t attempt,
                               const HarnessFault& fault,
                               support::FlightRecorder* recorder) {
    if (recorder == nullptr || config_.forensics_dir.empty()) return;
    campaign::ForensicRecord record;
    record.cell = i;
    record.attempt = static_cast<std::uint32_t>(attempt);
    record.shard = config_.shard_label;
    record.fault = fault.describe();
    record.written_unix =
        static_cast<std::uint64_t>(campaign::wall_clock_unix());
    record.harvest = recorder->harvest();
    if (const auto status =
            campaign::write_forensics(config_.forensics_dir, record);
        !status.ok()) {
      const std::lock_guard<std::mutex> lock(journal_mutex);
      keep_error(status);
      return;
    }
    forensic_written[i] = 1;
    board.forensics(i, attempt, record.harvest.crumbs.size());
  };
  /// A journaled fault summary. It points triage at the cell's
  /// breadcrumbs when a forensic record exists; free text by design, so
  /// old readers show it verbatim.
  auto journaled_fault = [&](std::size_t i, const HarnessFault& fault) {
    std::string message = fault.describe();
    if (forensic_written[i] != 0) {
      message += " forensics=" + campaign::forensic_file_name(i);
    }
    return message;
  };

  auto journal_cell = [&](std::size_t index) -> bool {
    return journal([&](campaign::CampaignCheckpoint& c) {
      return c.append(campaign::CheckpointCell{index, sync_epoch,
                                               out.results[index],
                                               cell_cov[index]});
    });
  };
  /// Accounts the quarantine in the in-memory result whether or not its
  /// record reached the journal.
  auto journal_poison = [&](const PoisonedCell& poison) -> bool {
    const campaign::PoisonRecord record{
        poison.index, poison.attempts,
        static_cast<std::uint8_t>(poison.fault.kind), poison.fault.detail,
        journaled_fault(poison.index, poison.fault)};
    const bool journaled = journal([&](campaign::CampaignCheckpoint& c) {
      return c.append_poison(record);
    });
    const std::lock_guard<std::mutex> lock(journal_mutex);
    out.poisoned_cells.push_back(poison);
    return journaled;
  };
  // Defensive: re-establish a worker's pooled stack from scratch after
  // reaping a dead harness, and before each re-probe execution.
  auto rebuild_slot = [&](std::size_t worker) {
    if (!pool) return;
    pool->rebuild(worker);
    board.rebuild();
  };

  // Tell a distributed gate about every cell this shard's own journal
  // already covers — completed or quarantined — so it can finish (and
  // mark done) ranges a previous incarnation of this shard left
  // half-complete instead of reclaiming a poisoned range forever.
  if (config_.gate != nullptr) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (done[i] != 0 || poisoned[i] != 0) config_.gate->completed(i);
    }
  }

  std::atomic<bool> saw_stop{false};

  // Limits every ordinary sandboxed attempt runs under; the re-probe
  // pass derives its degraded variant from this.
  const SandboxLimits base_limits{config_.cell_deadline_seconds,
                                  config_.rlimit_cpu_seconds,
                                  config_.rlimit_as_mb, config_.rlimit_core_mb};

  // One cell body, two stack sources: a reset pooled slot or a
  // throwaway CellVm (provably equivalent — see PooledVm::reset).
  // Either stack is built for the cell's capability profile. Shared by
  // the in-process path and the sandboxed child, which is what makes
  // "clean sandboxed cell ≡ in-process cell" a serialization round-trip
  // property rather than a hope.
  auto run_cell_body = [&](const TestCaseSpec& spec, std::size_t worker_index,
                           const VmBehavior& behavior)
      -> std::pair<TestCaseResult,
                   std::vector<std::pair<hv::BlockKey, std::uint8_t>>> {
    const vtx::VmxCapabilityProfile& profile = vtx::profile_by_id(spec.profile);
    std::optional<CellVm> throwaway;
    hv::Hypervisor* cell_hv = nullptr;
    Manager* cell_manager = nullptr;
    if (pool) {
      PooledVm& slot = pool->worker(worker_index);
      slot.reset(profile);
      cell_hv = &slot.hv();
      cell_manager = &slot.manager();
    } else {
      throwaway.emplace(config_, profile);
      cell_hv = &throwaway->hv;
      cell_manager = &throwaway->manager;
    }
    Fuzzer fuzzer(*cell_manager, config_.fuzzer);
    TestCaseResult result =
        fuzzer.run_test_case(spec, behavior, imports,
                             sync_enabled ? config_.import_mutants : 0);
    auto cov = cell_coverage(cell_hv->coverage());
    return {std::move(result), std::move(cov)};
  };

  // Sandboxed execution: fork, run the cell body in the child, pipe the
  // serialized CheckpointCell back, supervise with a watchdog deadline.
  // Returns nullopt on success (result stored iff store_result — the
  // re-probe pass runs discarded canary probes through here), or the
  // fault.
  //
  // Fork safety: the behavior was recorded (and any cell_exec failpoint
  // evaluated) in the parent BEFORE forking, so the child never takes
  // behaviors_mutex, journal_mutex, or a metrics-registry lock — another
  // worker could be holding any of them at fork time.
  // support::note_forked_child() drops every child-side registry call for
  // the same reason, and the failpoint table itself is read lock-free.
  auto run_cell_sandboxed = [&](std::size_t i, const TestCaseSpec& spec,
                                std::size_t worker_index,
                                const VmBehavior& behavior,
                                const SandboxLimits& limits, bool store_result,
                                support::FlightRecorder* recorder)
      -> std::optional<HarnessFault> {
    std::optional<support::failpoints::Hit> injected;
    if (support::failpoints::active()) {
      injected = support::failpoints::evaluate("cell_exec", i);
    }
    // Fresh ring per attempt, cleared in the parent BEFORE the fork so
    // a harvest after this attempt's death never shows a predecessor's
    // crumbs.
    if (recorder != nullptr) recorder->reset();
    int fds[2];
    if (::pipe(fds) != 0) {
      return HarnessFault{HarnessFault::Kind::kProtocol, errno, {}};
    }
    const ::pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return HarnessFault{HarnessFault::Kind::kProtocol, errno, {}};
    }
    if (pid == 0) {
      // --- Child: run the cell, deliver the framed result, _exit.
      ::close(fds[0]);
      support::note_forked_child();
      support::modelfault::set_sink_fd(fds[1]);
      apply_child_rlimits(limits);
      // Arm the inherited MAP_SHARED ring: from here every breadcrumb
      // the child drops is visible to the parent with no flush, however
      // the child dies.
      if (recorder != nullptr) recorder->arm();
      // A cell_exec alloc= hit returns from execute_fatal and runs the
      // cell under the injected memory pressure — the rlimit kill (or
      // survival) is the behavior under test. Every other action dies
      // here.
      if (injected) support::failpoints::execute_fatal(*injected);
      const support::modelfault::CellScope cell_scope(i);
      auto [result, cov] = run_cell_body(spec, worker_index, behavior);
      campaign::CheckpointCell cell;
      cell.index = i;
      cell.sync_epoch = sync_epoch;
      cell.result = std::move(result);
      cell.coverage = std::move(cov);
      ByteWriter payload;
      campaign::serialize_checkpoint_cell(cell, payload);
      ByteWriter frame;
      frame.u32(kSandboxFrameMagic);
      frame.u32(static_cast<std::uint32_t>(payload.size()));
      frame.u64(fnv1a(payload.data()));
      frame.bytes(payload.data());
      const auto& bytes = frame.data();
      std::size_t off = 0;
      while (off < bytes.size()) {
        const ::ssize_t n =
            ::write(fds[1], bytes.data() + off, bytes.size() - off);
        if (n < 0) {
          if (errno == EINTR) continue;
          ::_exit(3);  // result undeliverable; parent records kExit
        }
        off += static_cast<std::size_t>(n);
      }
      ::_exit(0);
    }
    // --- Parent: drain the pipe under the deadline, then reap.
    ::close(fds[1]);
    std::vector<std::uint8_t> buf;
    bool deadline_hit = false;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(limits.deadline_seconds));
    for (;;) {
      int timeout_ms = -1;
      if (limits.deadline_seconds > 0 && !deadline_hit) {
        const auto remaining_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        timeout_ms = remaining_ms < 0
                         ? 0
                         : static_cast<int>(std::min<long long>(
                               remaining_ms, INT_MAX));
      }
      struct ::pollfd pfd{fds[0], POLLIN, 0};
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (rc == 0) {
        // Watchdog: the cell overran its deadline. Kill and keep
        // draining — EOF follows the death.
        deadline_hit = true;
        ::kill(pid, SIGKILL);
        continue;
      }
      std::uint8_t chunk[4096];
      const ::ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) break;  // EOF: child finished writing or died
      buf.insert(buf.end(), chunk, chunk + n);
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (deadline_hit) {
      return HarnessFault{HarnessFault::Kind::kDeadline, SIGKILL, {}};
    }
    if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      // RLIMIT_CPU kills with SIGXCPU at the soft limit — a resource
      // classification, not a crash.
      if (sig == SIGXCPU) {
        return HarnessFault{HarnessFault::Kind::kResourceExhausted, sig, {}};
      }
      return HarnessFault{HarnessFault::Kind::kSignal, sig, {}};
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      // The RLIMIT_AS new-handler and failpoints::execute_alloc both
      // exit through the dedicated resource-exhaustion code.
      if (code == support::failpoints::kResourceExhaustedExit) {
        return HarnessFault{HarnessFault::Kind::kResourceExhausted, code, {}};
      }
      return HarnessFault{HarnessFault::Kind::kExit, code, {}};
    }
    // Exit 0: the frame must parse, checksum, and name this cell. Two
    // frames share the pipe shape: a result ("IRSB") or a structured
    // model fault ("IRMF"), told apart by the magic alone.
    ByteReader r(buf);
    auto magic = r.u32();
    auto len = r.u32();
    auto checksum = r.u64();
    if (!magic.ok() ||
        (magic.value() != kSandboxFrameMagic &&
         magic.value() != support::modelfault::kModelFaultFrameMagic) ||
        !len.ok() || !checksum.ok() || len.value() != r.remaining()) {
      return HarnessFault{HarnessFault::Kind::kProtocol, 0, {}};
    }
    const std::span<const std::uint8_t> payload =
        std::span(buf).subspan(16);
    if (fnv1a(payload) != checksum.value()) {
      return HarnessFault{HarnessFault::Kind::kProtocol, 1, {}};
    }
    ByteReader pr(payload);
    if (magic.value() == support::modelfault::kModelFaultFrameMagic) {
      auto fault = support::modelfault::deserialize_model_fault(pr);
      if (!fault.ok() || !pr.exhausted()) {
        return HarnessFault{HarnessFault::Kind::kProtocol, 2, {}};
      }
      HarnessFault out_fault;
      out_fault.kind = HarnessFault::Kind::kModelFault;
      out_fault.detail = fault.value().code;
      out_fault.message = fault.value().describe();
      return out_fault;
    }
    auto cell = campaign::deserialize_checkpoint_cell(pr);
    if (!cell.ok() || !pr.exhausted() || cell.value().index != i) {
      return HarnessFault{HarnessFault::Kind::kProtocol, 2, {}};
    }
    if (store_result) {
      auto taken = std::move(cell).take();
      out.results[i] = std::move(taken.result);
      cell_cov[i] = std::move(taken.coverage);
    }
    return std::nullopt;
  };

  auto work = [&](std::size_t worker_index) {
    support::FlightRecorder* const recorder =
        recorder_enabled ? recorders[worker_index].get() : nullptr;
    for (std::size_t i = worker_index; i < grid.size(); i += workers) {
      if (done[i] != 0 || poisoned[i] != 0) continue;  // journaled already
      if (config_.stop != nullptr &&
          config_.stop->load(std::memory_order_relaxed)) {
        // Cooperative stop: the in-flight cell (if any) already
        // finished and journaled; just stop claiming new ones.
        saw_stop.store(true, std::memory_order_relaxed);
        return;
      }
      board.tick();
      if (config_.gate != nullptr) {
        config_.gate->heartbeat();
        if (!config_.gate->try_claim(i)) continue;  // another shard's range
      }
      if (!claim_budget()) return;
      const TestCaseSpec& spec = grid[i];
      const VmBehavior& behavior = ensure_behavior(spec.workload, worker_index);
      const auto cell_started = board.cell_start(i, worker_index);
      if (config_.sandbox_cells) {
        // Fault containment: each attempt runs in a fresh child; faults
        // are retried with jittered backoff, then quarantined.
        const std::size_t max_attempts = 1 + config_.cell_retries;
        std::optional<HarnessFault> fault;
        for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
          const auto attempt_started = std::chrono::steady_clock::now();
          fault = run_cell_sandboxed(i, spec, worker_index, behavior,
                                     base_limits, /*store_result=*/true,
                                     recorder);
          board.sandbox_attempt(attempt_started);
          if (!fault) break;
          board.fault(i, attempt, *fault);
          publish_forensics(i, attempt, *fault, recorder);
          rebuild_slot(worker_index);
          if (attempt < max_attempts) {
            support::RetryPolicy backoff;
            backoff.base_delay_ms = config_.retry_base_backoff_ms;
            backoff.multiplier = 2.0;
            backoff.max_delay_ms = 2000.0;
            backoff.jitter_seed =
                0x9E3779B97F4A7C15ULL ^ (i * 0x100000001B3ULL);
            const double backoff_ms = support::retry_delay_ms(backoff, attempt);
            board.retry(i, attempt, backoff_ms);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff_ms));
          }
        }
        if (fault) {
          poisoned[i] = 1;
          board.quarantine(i, worker_index, max_attempts, *fault);
          const bool journaled = journal_poison(PoisonedCell{
              i, static_cast<std::uint32_t>(max_attempts), *fault});
          // A journaled quarantine retires the range exactly like a
          // journaled result: the reducer will see and report it.
          if (config_.gate != nullptr && journaled) config_.gate->completed(i);
          continue;
        }
      } else {
        auto [result, cov] = run_cell_body(spec, worker_index, behavior);
        out.results[i] = std::move(result);
        cell_cov[i] = std::move(cov);
      }
      done[i] = 1;
      board.cell_done(i, worker_index, out.results[i], cell_started);
      const bool journaled = journal_cell(i);
      // Only journaled cells may retire toward a (final) done marker:
      // the reducer can only ever see journaled results, so a cell lost
      // to a persistence failure must leave its range claimable for a
      // shard whose journal works.
      if (config_.gate != nullptr && journaled) config_.gate->completed(i);
    }
  };

  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(work, w);
    for (auto& t : threads) t.join();
  }

  // --- Poison-aware re-probe: after the grid pass, each still-poisoned
  // cell (fresh quarantine or resumed) gets one more chance on a
  // degraded profile — a freshly rebuilt pool slot, a reduced mutant
  // budget, half the deadline and CPU budget. The probe result is
  // DISCARDED: a clean probe only earns a full-fidelity re-execution,
  // because journaling a reduced-budget result would hand the reducer
  // two conflicting records for one index. A clean full run
  // rehabilitates the cell (journaled like any clean cell —
  // clean-cell-wins does the rest on resume and reduce); a failed one
  // re-poisons with the updated attempt history. Main thread only, so
  // it borrows worker slot 0.
  if (config_.sandbox_cells && config_.reprobe_poisoned &&
      !out.poisoned_cells.empty() &&
      !(config_.stop != nullptr &&
        config_.stop->load(std::memory_order_relaxed))) {
    std::sort(out.poisoned_cells.begin(), out.poisoned_cells.end(),
              [](const PoisonedCell& a, const PoisonedCell& b) {
                return a.index < b.index;
              });
    std::vector<PoisonedCell> still_poisoned;
    // Main thread only (workers joined) — borrow worker 0's recorder
    // like it borrows worker slot 0.
    support::FlightRecorder* const reprobe_recorder =
        recorder_enabled ? recorders[0].get() : nullptr;
    for (PoisonedCell poison : out.poisoned_cells) {
      const std::size_t i = poison.index;
      if (i >= grid.size() || done[i] != 0) continue;
      const TestCaseSpec& spec = grid[i];
      const VmBehavior& behavior = ensure_behavior(spec.workload, 0);
      // Round number is per-journal history: earlier runs' re-probes of
      // this cell (loaded at open) come first.
      std::uint32_t round = 1;
      if (checkpoint) {
        for (const auto& rp : checkpoint->reprobes()) {
          if (rp.index == i) ++round;
        }
      }
      // Degraded canary probe on a fresh slot.
      rebuild_slot(0);
      TestCaseSpec probe_spec = spec;
      probe_spec.mutants = std::min(spec.mutants, kReprobeProbeMutants);
      SandboxLimits probe_limits = base_limits;
      if (probe_limits.deadline_seconds > 0) {
        probe_limits.deadline_seconds =
            std::max(1.0, probe_limits.deadline_seconds / 2);
      }
      if (probe_limits.cpu_seconds > 0) {
        probe_limits.cpu_seconds =
            std::max<std::uint64_t>(1, probe_limits.cpu_seconds / 2);
      }
      std::uint32_t attempts_spent = 1;
      auto fault = run_cell_sandboxed(i, probe_spec, 0, behavior, probe_limits,
                                      /*store_result=*/false,
                                      reprobe_recorder);
      if (!fault) {
        // Clean probe: full-fidelity re-execution, again on a fresh
        // slot, under the ordinary limits.
        rebuild_slot(0);
        ++attempts_spent;
        fault = run_cell_sandboxed(i, spec, 0, behavior, base_limits,
                                   /*store_result=*/true, reprobe_recorder);
      }
      const std::uint32_t attempts_total = poison.attempts + attempts_spent;
      campaign::ReprobeRecord record;
      record.index = i;
      record.round = round;
      record.attempts_total = attempts_total;
      if (fault) {
        board.fault(i, attempts_spent, *fault);
        publish_forensics(i, attempts_spent, *fault, reprobe_recorder);
        rebuild_slot(0);
        poison.attempts = attempts_total;
        poison.fault = *fault;
        record.outcome = campaign::kReprobeRepoisoned;
        record.fault_kind = static_cast<std::uint8_t>(fault->kind);
        record.detail = fault->detail;
        record.message = journaled_fault(i, *fault);
      }
      journal([&](campaign::CampaignCheckpoint& c) {
        return c.append_reprobe(record);
      });
      if (fault) {
        still_poisoned.push_back(poison);
      } else {
        done[i] = 1;
        poisoned[i] = 0;
        journal_cell(i);
      }
      board.reprobe(i, round, attempts_total, fault ? &*fault : nullptr,
                    out.results[i].executed);
    }
    out.poisoned_cells = std::move(still_poisoned);
    board.publish_now();
  }

  out.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  // A poisoned cell keeps done[i] == 0: the campaign outcome is
  // honestly partial (complete == false, the cell's result a
  // placeholder) even though the cell will never be re-run here.
  out.complete =
      std::all_of(done.begin(), done.end(), [](char d) { return d != 0; });
  out.cells_completed.assign(done.begin(), done.end());
  board.copy_tallies(out);
  out.interrupted = saw_stop.load(std::memory_order_relaxed);
  std::sort(out.poisoned_cells.begin(), out.poisoned_cells.end(),
            [](const PoisonedCell& a, const PoisonedCell& b) {
              return a.index < b.index;
            });

  // --- Merge phase, shared with the distributed reducer. ---
  finalize_campaign_result(cell_cov, out);

  // --- One replayable reproducer per crash bucket. ---
  if (!config_.crash_archive_dir.empty()) {
    campaign::CrashArchive archive(config_.crash_archive_dir);
    keep_error(archive.init());
    for (const DedupedCrash& bucket : out.unique_crashes) {
      const TestCaseResult& cell = out.results[bucket.spec_index];
      const VmBehavior& behavior = ensure_behavior(cell.spec.workload, 0);
      campaign::CrashReproducer repro;
      repro.key = bucket.key;
      repro.spec = cell.spec;
      repro.hv_seed = config_.hv_seed;
      repro.async_noise_prob = config_.async_noise_prob;
      repro.target_index = cell.target_index;
      repro.replay = config_.fuzzer.replay;
      // target_index may come from a checkpoint file; bound it by the
      // behavior length before reserving, exactly as the loop does.
      const std::size_t prefix_len =
          std::min(cell.target_index + 1, behavior.size());
      repro.prefix.reserve(prefix_len);
      for (std::size_t s = 0; s < prefix_len; ++s) {
        repro.prefix.push_back(behavior[s].seed);
      }
      repro.mutant = bucket.first.mutant;
      // If a forensic record exists for this bucket's cell (some attempt
      // faulted before the clean run that found the crash), attach its
      // name and copy the file beside the reproducer — the archive stays
      // self-contained for triage on another machine.
      if (!config_.forensics_dir.empty() &&
          bucket.spec_index < forensic_written.size() &&
          forensic_written[bucket.spec_index] != 0) {
        repro.forensics_name =
            campaign::forensic_file_name(bucket.spec_index);
        auto bytes = read_file_bytes(config_.forensics_dir + "/" +
                                     repro.forensics_name);
        if (bytes.ok()) {
          keep_error(write_file_atomic(config_.crash_archive_dir,
                                         repro.forensics_name,
                                         bytes.value()));
        }
      }
      keep_error(archive.write(repro));
    }
  }

  out.mutants_per_second =
      out.elapsed_seconds > 0.0
          ? static_cast<double>(out.executed) / out.elapsed_seconds
          : 0.0;
  // Final publication with the run's closing counts. Not a "finished"
  // status: a distributed shard runs several claim passes per shard
  // lifetime, and only the layer that knows the last pass ended (the
  // DistributedCampaign / the CLI) can say so.
  board.publish_now();
  return out;
}

}  // namespace iris::fuzz
