#include "fuzz/campaign.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <thread>
#include <type_traits>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/checkpoint.h"
#include "campaign/corpus_store.h"
#include "campaign/crash_archive.h"
#include "campaign/forensics.h"
#include "campaign/monitor.h"
#include "campaign/reducer.h"
#include "fuzz/vm_pool.h"
#include "support/failpoints.h"
#include "support/flight_recorder.h"
#include "support/fs_atomic.h"
#include "support/model_fault.h"
#include "support/retry.h"
#include "support/sandbox_frame.h"
#include "support/telemetry.h"

namespace iris::fuzz {
namespace {

/// Frame magics on a sandbox child's socket (support/sandbox_frame.h):
/// a cell command ("IRCC") from the parent, and a cell result ("IRSB")
/// from the child, whose payload is a serialized CheckpointCell.
/// Anything else the parent reads for a cell — a short read, a bad
/// checksum, a payload that does not parse — is a kProtocol harness
/// fault, never a crash.
constexpr std::uint32_t kSandboxCommandMagic = 0x49524343;
constexpr std::uint32_t kSandboxFrameMagic = 0x49525342;

/// One cell execution: the cell's journal record, or the harness fault
/// that ended the attempt.
using CellOutcome = std::variant<campaign::CheckpointCell, HarnessFault>;

/// The cell's coverage contribution: every non-IRIS block its
/// hypervisor registered, with LOC weights. The record/replay components
/// instrument themselves under kIris; filter them exactly as
/// ExitCoverage does, so the merged bitmap stays comparable to the
/// per-cell Table I numbers.
CellCoverage cell_coverage(const hv::CoverageMap& cov) {
  CellCoverage blocks;
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

/// The per-attempt limits of a sandboxed cell: the watchdog deadline and
/// the RLIMIT_CPU budget (0 = off). The re-probe pass degrades both
/// coherently (a probe gets half of each).
struct SandboxLimits {
  double deadline_seconds = 0.0;
  std::uint64_t cpu_seconds = 0;
};

/// Child-side address-space and core limits (CampaignConfig::rlimit_as_mb
/// and rlimit_core_mb), installed once when a sandbox child is forked.
/// Failures are deliberately ignored (a host that refuses a tighter limit
/// leaves the child exactly as contained as an unlimited one).
void apply_spawn_rlimits(const CampaignConfig& config) {
  if (config.rlimit_as_mb > 0 && rlimit_as_supported()) {
    const auto bytes = static_cast<rlim_t>(config.rlimit_as_mb) << 20;
    const ::rlimit r{bytes, bytes};
    (void)::setrlimit(RLIMIT_AS, &r);
    // Under RLIMIT_AS a clean allocation path dies as bad_alloc ->
    // std::terminate -> SIGABRT, indistinguishable from a model crash.
    // Exit through the dedicated code instead so the parent classifies
    // kResourceExhausted.
    std::set_new_handler(
        [] { ::_exit(support::failpoints::kResourceExhaustedExit); });
  }
  if (config.rlimit_core_mb >= 0) {
    const auto bytes = static_cast<rlim_t>(config.rlimit_core_mb) << 20;
    const ::rlimit r{bytes, bytes};
    (void)::setrlimit(RLIMIT_CORE, &r);
  }
}

/// Child-side CPU budget of one cell. Only RLIMIT_CPU's soft limit
/// moves: to the CPU the child has used so far, rounded up to a whole
/// second, plus `seconds`, so every cell gets at least its full budget
/// however much its predecessors in the child used. Past it the kernel
/// sends SIGXCPU, a classifiable resource kill. The hard limit stays as
/// inherited: an unprivileged process can never raise it again.
void arm_cell_cpu_limit(std::uint64_t seconds) {
  if (seconds == 0) return;
  ::rusage usage{};
  ::rlimit limit{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0 ||
      ::getrlimit(RLIMIT_CPU, &limit) != 0) {
    return;
  }
  const auto used_us =
      (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1000000LL +
      usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
  rlim_t soft = static_cast<rlim_t>((used_us + 999999) / 1000000) + seconds;
  if (limit.rlim_max != RLIM_INFINITY) soft = std::min(soft, limit.rlim_max);
  limit.rlim_cur = soft;
  (void)::setrlimit(RLIMIT_CPU, &limit);
}

/// Close every descriptor a sandbox child inherited except stdio and its
/// own socket end `keep`. A sibling child's socket end held here would
/// hide that sibling's death from the parent (no EOF while any copy is
/// open). Best effort: on a kernel without close_range they stay open,
/// and the parent still sees deaths through the pidfd.
void close_inherited_fds(int keep) {
  const auto fd = static_cast<unsigned>(keep);
  if (fd > 3) (void)::syscall(SYS_close_range, 3U, fd - 1, 0U);
  (void)::syscall(SYS_close_range, std::max(3U, fd + 1), ~0U, 0U);
}

/// One cell command from a worker to its sandbox child: the cell, its
/// spec, its CPU budget and the cell_exec failpoint hit the parent
/// evaluated for it. Both ends run one binary (the child is a fork), so
/// the command travels as its object bytes inside a checksummed frame.
struct CellCommand {
  std::size_t index = 0;
  TestCaseSpec spec;
  std::uint64_t cpu_seconds = 0;
  bool injected = false;
  support::failpoints::Hit hit;
};
static_assert(std::is_trivially_copyable_v<CellCommand>);

/// A worker's long-lived sandbox child, parent side: its pid, the
/// parent's end of the socket that carries cell commands down and one
/// result frame per cell back up, and a pidfd that turns readable when
/// the child dies.
class SandboxChild {
 public:
  enum class Answer { kFrame, kGone, kDeadline };

  SandboxChild() = default;
  SandboxChild(const SandboxChild&) = delete;
  SandboxChild& operator=(const SandboxChild&) = delete;
  ~SandboxChild() { retire(); }

  [[nodiscard]] bool alive() const noexcept { return pid_ > 0; }

  void adopt(::pid_t pid, int fd) {
    pid_ = pid;
    fd_ = fd;
    pidfd_ = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  }

  /// Send one cell command. False when the child is gone: the write
  /// fails with EPIPE, never SIGPIPE.
  bool send(const CellCommand& command) {
    return support::write_frame(
        fd_, kSandboxCommandMagic,
        {reinterpret_cast<const std::uint8_t*>(&command), sizeof command});
  }

  /// Read the child's answer to one command, exactly one frame, into
  /// frame(): kFrame once it is complete, or at a header with an unknown
  /// magic; kGone when the child died first, leaving in frame() whatever
  /// it sent; kDeadline when `deadline_seconds` (0 = none) ran out.
  /// Death is seen through the pidfd (without one, a waitid probe every
  /// 50 ms), not through EOF alone, which a copy of the child's socket
  /// end in another process would hold off.
  Answer receive(double deadline_seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(deadline_seconds));
    frame_.resize(support::kFrameHeaderBytes);
    std::size_t got = 0;
    bool exited = false;
    for (;;) {
      const ::ssize_t n =
          ::recv(fd_, frame_.data() + got, frame_.size() - got, MSG_DONTWAIT);
      if (n > 0) {
        got += static_cast<std::size_t>(n);
        if (got == support::kFrameHeaderBytes) {
          const std::uint32_t magic = support::frame_magic(frame_);
          if (magic != kSandboxFrameMagic &&
              magic != support::modelfault::kModelFaultFrameMagic) {
            return Answer::kFrame;
          }
          frame_.resize(support::frame_size(frame_));
        }
        if (got == frame_.size()) return Answer::kFrame;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK) || exited) break;
      int timeout_ms = -1;
      if (deadline_seconds > 0) {
        const auto remaining_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (remaining_ms <= 0) return Answer::kDeadline;
        timeout_ms = static_cast<int>(std::min<long long>(remaining_ms, INT_MAX));
      }
      if (pidfd_ < 0) timeout_ms = timeout_ms < 0 ? 50 : std::min(timeout_ms, 50);
      struct ::pollfd fds[2] = {{fd_, POLLIN, 0}, {pidfd_, POLLIN, 0}};
      const int rc = ::poll(fds, pidfd_ >= 0 ? 2 : 1, timeout_ms);
      if (rc < 0 && errno != EINTR) break;
      exited = pidfd_ >= 0 ? rc > 0 && fds[1].revents != 0 : waited_out();
    }
    frame_.resize(got);
    return Answer::kGone;
  }

  /// The bytes the last receive() read.
  [[nodiscard]] std::span<const std::uint8_t> frame() const noexcept {
    return frame_;
  }

  /// SIGKILL and reap the child, if there is one; its wait status. A
  /// child that already died keeps the status it died with.
  int retire() {
    if (pid_ <= 0) return 0;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    ::close(fd_);
    if (pidfd_ >= 0) ::close(pidfd_);
    pid_ = -1;
    fd_ = -1;
    pidfd_ = -1;
    return status;
  }

 private:
  /// The child has exited (not reaped yet).
  [[nodiscard]] bool waited_out() const {
    ::siginfo_t info{};
    return ::waitid(P_PID, static_cast<::id_t>(pid_), &info,
                    WEXITED | WNOHANG | WNOWAIT) == 0 &&
           info.si_pid == pid_;
  }

  ::pid_t pid_ = -1;
  int fd_ = -1;
  int pidfd_ = -1;
  std::vector<std::uint8_t> frame_;
};

/// What a dead child's wait status says about its cell. A clean exit
/// leaves the verdict to the frame bytes it sent (none, or a torn frame,
/// is a protocol fault).
CellOutcome classify_death(int status, std::span<const std::uint8_t> frame,
                           std::size_t index) {
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
  return decode_cell_frame(frame, index);
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

  /// One sandboxed attempt's latency, faulted or not: the command, the
  /// cell in the worker's child and its result frame, plus the fork when
  /// the attempt needed a new child (after a fault) and the reap when it
  /// ended one.
  void sandbox_attempt(Clock::time_point started) {
    reg_.observe(sandbox_cell_us_id_, us_since(started));
  }

  /// A sandbox child was forked for `worker`.
  void spawn(std::size_t worker) {
    reg_.add(spawns_id_);
    if (!support::trace_active()) return;
    support::TraceEvent event("sandbox_spawn");
    event.num("worker", static_cast<double>(worker));
    support::trace(std::move(event));
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

  /// The run's own tallies, read once at its end, after
  /// out.elapsed_seconds. Throughput divides only the mutants this run
  /// executed: resumed cells ran in an earlier run's time.
  void copy_tallies(CampaignResult& out) const {
    out.mutants_per_second =
        out.elapsed_seconds > 0.0
            ? static_cast<double>(executed_) / out.elapsed_seconds
            : 0.0;
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
  const support::MetricId spawns_id_ = reg_.counter_id("sandbox.spawns");
  const support::MetricId cell_us_id_ = reg_.histogram_id("campaign.cell_us");
};

/// The owner of every journal append, and of the run's first persistence
/// failure (journal, forensics or crash archive; later ones are
/// dropped). A journal that cannot be opened (foreign fingerprint,
/// unreadable file) is surfaced but never written to. After the first
/// post-retry (i.e. permanent: ENOSPC, EACCES, ...) append failure the
/// journal is degraded: the campaign completes in memory without
/// hammering a hopeless filesystem once per cell, and the error surfaces
/// at campaign end. Workers share it; appends are serialized.
class CampaignJournal {
 public:
  /// Open the journal at `path` (empty = none) and fold its records into
  /// `fold`. Resume reads its own journal leniently: records it cannot
  /// place (outside the grid, duplicate cells) are skipped, not fatal.
  CampaignJournal(const std::string& path, std::uint64_t fingerprint,
                  campaign::JournalFold& fold, StatusBoard& board)
      : board_(board) {
    if (path.empty()) return;
    auto opened = campaign::CampaignCheckpoint::open(path, fingerprint);
    if (!opened.ok()) {
      error_ = opened.error().message;
      return;
    }
    checkpoint_ = std::move(opened).take();
    (void)fold.apply(*checkpoint_);
  }

  /// The run's corpus-sync epoch; epoch 0 with no imports when sync is
  /// off. Priority: an epoch already in the journal (a resumed run
  /// replays exactly the imports the first run froze), then a pinned set
  /// from the distributed layer (all shards of one grid share one epoch
  /// file), then a fresh snapshot of the shared store. A new epoch is
  /// journaled before any cell, so even a run killed after one cell
  /// leaves its import set on disk.
  campaign::SyncEpochRecord sync_epoch(const CampaignConfig& config) {
    campaign::SyncEpochRecord epoch{0, {}};
    if (config.corpus_dir.empty() && !config.pinned_imports.has_value()) {
      return epoch;
    }
    if (checkpoint_ && !checkpoint_->epochs().empty()) {
      epoch = checkpoint_->epochs().back();
    } else {
      epoch.epoch = 1;
      epoch.imports = config.pinned_imports.has_value()
                          ? *config.pinned_imports
                          : campaign::CorpusStore(config.corpus_dir)
                                .snapshot(kCorpusMaxImports);
      if (epoch.imports.size() > kCorpusMaxImports) {
        epoch.imports.resize(kCorpusMaxImports);
      }
      append([&](campaign::CampaignCheckpoint& c) {
        return c.append_epoch(epoch);
      });
    }
    board_.sync_epoch(epoch.epoch, epoch.imports.size());
    return epoch;
  }

  /// Run one append against the journal. True iff the record reached it.
  template <typename Write>
  bool append(const Write& write) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!checkpoint_ || degraded_) return false;
    const Status status = write(*checkpoint_);
    if (status.ok()) return true;
    if (error_.empty()) error_ = status.error().message;
    degraded_ = true;
    board_.degrade(status.error().message);
    return false;
  }

  /// Record a persistence failure; the first one wins.
  void keep_error(const Status& status) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!status.ok() && error_.empty()) error_ = status.error().message;
  }

  /// The first persistence failure; empty while healthy. Read it once
  /// the workers have joined.
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  StatusBoard& board_;
  std::optional<campaign::CampaignCheckpoint> checkpoint_;
  std::mutex mutex_;
  bool degraded_ = false;
  std::string error_;
};

/// Record a clean cell in the run's grid state.
void mark_done(campaign::JournalFold& fold, campaign::CheckpointCell&& cell) {
  fold.done[cell.index] = 1;
  fold.result.results[cell.index] = std::move(cell.result);
  fold.coverage[cell.index] = std::move(cell.coverage);
}

/// Runs one grid cell on a worker's pooled VM stack: in process, or in
/// the worker's long-lived sandbox child, supervised by a watchdog
/// deadline, whose death becomes a HarnessFault instead of the shard's.
/// Both paths run the same cell body, which is what makes "clean
/// sandboxed cell == in-process cell" a serialization round-trip property
/// rather than a hope. Which cell runs next is the CellScheduler's call,
/// and what a fault costs the cell is the FaultPolicy's.
///
/// Behaviors are recorded only on CampaignRunner::run's own thread,
/// before the workers start or after they join, so workers and every
/// sandbox child only read them.
class CellExecutor {
 public:
  /// Cells fuzz `epoch`'s corpus imports too. Pooled stacks are built
  /// lazily, so a fully resumed run builds none.
  CellExecutor(const CampaignConfig& config, std::size_t workers,
               campaign::SyncEpochRecord epoch, StatusBoard& board)
      : config_(config),
        epoch_(std::move(epoch)),
        board_(board),
        pool_(workers, config.hv_seed, config.async_noise_prob),
        children_(config.sandbox_cells ? workers : 0) {
    // Postmortem flight recorders: one crash-surviving ring per worker,
    // created before any fork so every sandbox child inherits its
    // worker's MAP_SHARED mapping. Armed only when a harvest can be
    // published: sandboxed cells with a forensics directory.
    if (config.sandbox_cells && !config.forensics_dir.empty()) {
      for (std::size_t w = 0; w < workers; ++w) {
        recorders_.push_back(std::make_unique<support::FlightRecorder>());
      }
    }
  }

  /// `workload`'s recorded behavior, recorded now on worker 0's stack if
  /// no earlier call recorded it. Recording is a pure function of
  /// (workload, config), so where and when it runs cannot change results.
  /// Always on the BASELINE profile, whatever profile a cell fuzzes: the
  /// capability matrix is record-once/replay-everywhere. Only while no
  /// worker runs.
  const VmBehavior& behavior(guest::Workload workload) {
    auto it = behaviors_.find(workload);
    if (it == behaviors_.end()) {
      it = behaviors_
               .emplace(workload,
                        stack(0, vtx::baseline_profile())
                            .record_workload(workload, config_.record_exits,
                                             config_.record_seed))
               .first;
    }
    return it->second;  // map references stay valid across inserts
  }

  /// Fork the first sandbox child of workers [0, count), if cells are
  /// sandboxed. Called before the worker threads start, so no worker can
  /// hold a lock the child inherits. A worker whose fork failed here
  /// forks on its first cell instead.
  void spawn_children(std::size_t count) {
    for (std::size_t w = 0; w < std::min(count, children_.size()); ++w) {
      (void)spawn(w);
    }
  }

  /// Run cell `index` in process on `worker`'s stack, reset to the cell's
  /// capability profile.
  campaign::CheckpointCell run(std::size_t index, const TestCaseSpec& spec,
                               std::size_t worker) {
    Manager& manager = stack(worker, vtx::profile_by_id(spec.profile));
    Fuzzer fuzzer(manager, config_.fuzzer);
    campaign::CheckpointCell cell{
        index, epoch_.epoch,
        fuzzer.run_test_case(spec, behaviors_.at(spec.workload),
                             epoch_.imports, kImportMutants),
        {}};
    cell.coverage = cell_coverage(manager.hv().coverage());
    return cell;
  }

  /// Run cell `index` in `worker`'s sandbox child: send it the cell as a
  /// command, read back its one frame under the deadline, and classify.
  /// The child serves cell after cell on its own copy of the worker's
  /// stack, so a cell after the first pays no fork, no copy-on-write
  /// faults and no exit teardown. It is retired (SIGKILLed and reaped)
  /// after any fault, after a cell with an injected failpoint hit, after
  /// every cell while a model-site rule is armed, on rebuild() and when
  /// its worker stops; the next cell forks a new one.
  CellOutcome run_sandboxed(std::size_t index, const TestCaseSpec& spec,
                            std::size_t worker, const SandboxLimits& limits) {
    CellCommand command{index, spec, limits.cpu_seconds, false, {}};
    if (support::failpoints::active()) {
      if (const auto hit = support::failpoints::evaluate("cell_exec", index)) {
        command.injected = true;
        command.hit = *hit;
      }
    }
    SandboxChild& child = children_[worker];
    if (!child.alive()) {
      if (auto fault = spawn(worker)) return *fault;
    }
    SandboxChild::Answer answer = SandboxChild::Answer::kGone;
    if (child.send(command)) answer = child.receive(limits.deadline_seconds);
    if (answer == SandboxChild::Answer::kFrame) {
      CellOutcome outcome = decode_cell_frame(child.frame(), index);
      // A hit may have changed the child in ways no frame reports (an
      // alloc= runaway keeps its memory), and model-site hits fire
      // inside the child, out of the parent's sight.
      if (command.injected || support::failpoints::model_sites_armed() ||
          std::holds_alternative<HarnessFault>(outcome)) {
        child.retire();
      }
      return outcome;
    }
    const int status = child.retire();
    if (answer == SandboxChild::Answer::kDeadline) {
      return HarnessFault{HarnessFault::Kind::kDeadline, SIGKILL, {}};
    }
    return classify_death(status, child.frame(), index);
  }

  /// Defensive: retire `worker`'s sandbox child and re-establish its
  /// pooled stack from scratch, after a faulted attempt and before each
  /// re-probe execution, so the next attempt runs in a fresh child on a
  /// fresh slot.
  void rebuild(std::size_t worker) {
    retire(worker);
    pool_.rebuild(worker);
    board_.rebuild();
  }

  /// Kill and reap `worker`'s sandbox child, if it has one.
  void retire(std::size_t worker) {
    if (worker < children_.size()) children_[worker].retire();
  }

  /// `worker`'s flight recorder; null unless forensics are armed.
  [[nodiscard]] support::FlightRecorder* recorder(std::size_t worker) const {
    return worker < recorders_.size() ? recorders_[worker].get() : nullptr;
  }

 private:
  /// `worker`'s pooled stack, reset to `profile` (provably equal to a
  /// fresh stack; see PooledVm::reset).
  Manager& stack(std::size_t worker, const vtx::VmxCapabilityProfile& profile) {
    PooledVm& slot = pool_.worker(worker);
    slot.reset(profile);
    return slot.manager();
  }

  /// Fork `worker`'s sandbox child.
  std::optional<HarnessFault> spawn(std::size_t worker) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return HarnessFault{HarnessFault::Kind::kProtocol, errno, {}};
    }
    const ::pid_t parent = ::getpid();
    const ::pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return HarnessFault{HarnessFault::Kind::kProtocol, errno, {}};
    }
    if (pid == 0) {
      ::close(fds[0]);
      serve(fds[1], parent, worker);
    }
    ::close(fds[1]);
    children_[worker].adopt(pid, fds[0]);
    board_.spawn(worker);
    return std::nullopt;
  }

  /// The child's side: set up once, then run one cell per command on the
  /// inherited copy of `worker`'s stack until the parent goes away.
  ///
  /// Fork safety: each worker's first child is forked before any worker
  /// starts. A later child, forked after run_sandboxed retired the last
  /// one (a fault, an injected hit, or any cell while a model-site rule
  /// is armed), forks while other workers run, so the child takes no
  /// lock another thread may have held at the fork: it reads behaviors
  /// recorded before any worker started, the parent evaluates the
  /// cell_exec failpoint for it, it never touches the journal, and
  /// support::note_forked_child() drops every child-side registry call.
  /// The failpoint table itself is read lock-free. noexcept: an exception
  /// must end the child (SIGABRT), not unwind into the parent's code the
  /// child inherited.
  [[noreturn]] void serve(int fd, ::pid_t parent, std::size_t worker) noexcept {
    support::note_forked_child();
    // PR_SET_PDEATHSIG ties the child to the thread that forked it: the
    // thread that called CampaignRunner::run for a first child, the
    // worker thread for a later one. Both outlive the child's use, and a
    // long cell must not outlive a SIGKILLed shard.
    (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(0);
    close_inherited_fds(fd);
    support::modelfault::set_sink_fd(fd);
    apply_spawn_rlimits(config_);
    // Arm the inherited MAP_SHARED ring: from here every breadcrumb the
    // child drops is visible to the parent with no flush, however the
    // child dies.
    support::FlightRecorder* const ring = recorder(worker);
    if (ring != nullptr) ring->arm();
    std::vector<std::uint8_t> frame;
    CellCommand command;
    for (;;) {
      // The ring's write ordinal is the child's own, so the child clears
      // it between cells: a harvest shows only the cell that died.
      if (ring != nullptr) ring->reset();
      if (!support::read_frame(fd, frame)) ::_exit(0);  // the parent is gone
      const auto payload = support::decode_frame(frame, kSandboxCommandMagic);
      if (!payload.ok() || payload.value().size() != sizeof command) ::_exit(3);
      std::memcpy(&command, payload.value().data(), sizeof command);
      arm_cell_cpu_limit(command.cpu_seconds);
      // A cell_exec alloc= hit returns from execute_fatal and runs the
      // cell under the injected memory pressure — the rlimit kill (or
      // survival) is the behavior under test. Every other action dies
      // here.
      if (command.injected) support::failpoints::execute_fatal(command.hit);
      const support::modelfault::CellScope cell_scope(command.index);
      ByteWriter result;
      campaign::serialize_checkpoint_cell(
          run(command.index, command.spec, worker), result);
      if (!support::write_frame(fd, kSandboxFrameMagic, result.data())) {
        ::_exit(3);
      }
    }
  }

  const CampaignConfig& config_;
  const campaign::SyncEpochRecord epoch_;
  StatusBoard& board_;
  VmPool pool_;
  std::map<guest::Workload, VmBehavior> behaviors_;
  std::vector<std::unique_ptr<support::FlightRecorder>> recorders_;
  std::vector<SandboxChild> children_;  ///< per worker, when sandboxed
};

/// The claim order: workers take pending cells from one shared cursor
/// in grid order, each the next cell no worker has taken, so a worker
/// that finishes early takes more cells instead of idling. It skips cells
/// the journal already holds (done or quarantined), stops claiming once
/// the cooperative stop flag is up (the in-flight cell already finished
/// and journaled) or the cell budget is spent, publishes status between
/// cells, and asks a distributed gate for each cell it would run. Which
/// cells land on which worker, and inside a budget, depends on thread
/// timing — harmless, since every cell is an independent pure function
/// and the merged result is a function of the full grid only.
class CellScheduler {
 public:
  CellScheduler(const CampaignConfig& config, const campaign::JournalFold& fold,
                StatusBoard& board)
      : config_(config), fold_(fold), board_(board) {
    // Tell a distributed gate about every cell this shard's own journal
    // already covers — completed or quarantined — so it can finish (and
    // mark done) ranges a previous incarnation of this shard left
    // half-complete instead of reclaiming a poisoned range forever.
    if (config.gate == nullptr) return;
    for (std::size_t i = 0; i < fold.done.size(); ++i) {
      if (!fold.pending(i)) config.gate->completed(i);
    }
  }

  /// The next cell for the calling worker to run; nullopt once it should
  /// stop.
  std::optional<std::size_t> next() {
    for (;;) {
      const std::size_t cell = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (cell >= fold_.done.size()) return std::nullopt;
      if (!fold_.pending(cell)) continue;
      if (stop_requested()) {
        stopped_.store(true, std::memory_order_relaxed);
        return std::nullopt;
      }
      board_.tick();
      if (config_.gate != nullptr) {
        config_.gate->heartbeat();
        if (!config_.gate->try_claim(cell)) continue;  // another shard's
      }
      if (config_.cell_budget != 0 &&
          claimed_.fetch_add(1, std::memory_order_relaxed) >=
              config_.cell_budget) {
        return std::nullopt;
      }
      return cell;
    }
  }

  [[nodiscard]] bool stop_requested() const {
    return config_.stop != nullptr &&
           config_.stop->load(std::memory_order_relaxed);
  }
  /// A worker stopped claiming at the stop flag.
  [[nodiscard]] bool stopped() const {
    return stopped_.load(std::memory_order_relaxed);
  }

 private:
  const CampaignConfig& config_;
  const campaign::JournalFold& fold_;
  StatusBoard& board_;
  std::atomic<std::size_t> cursor_{0};   ///< the next cell no worker took
  std::atomic<std::size_t> claimed_{0};  ///< cells taken against the budget
  std::atomic<bool> stopped_{false};
};

/// Retry, quarantine and re-probe of sandboxed cells. Every faulted
/// attempt takes one path — the fault event, the dead child's forensic
/// record, a rebuilt slot — whether the grid pass or the end-of-run
/// re-probe made it. In-process cells cannot fault (a crash takes the
/// shard with it), so they pass straight through.
class FaultPolicy {
 public:
  FaultPolicy(const CampaignConfig& config, CellExecutor& executor,
              StatusBoard& board, CampaignJournal& journal,
              campaign::JournalFold& fold)
      : config_(config),
        executor_(executor),
        board_(board),
        journal_(journal),
        fold_(fold),
        limits_{config.cell_deadline_seconds, config.rlimit_cpu_seconds},
        forensics_(fold.done.size(), 0) {}

  /// Grid pass: run cell `i` on `worker`. Sandboxed, it gets
  /// 1 + cell_retries attempts, with jittered exponential backoff
  /// between them (a faulted attempt retires its child, so every retry
  /// runs in a fresh one); when every attempt faults the cell is
  /// quarantined and nullopt returned.
  std::optional<campaign::CheckpointCell> run(std::size_t i,
                                              const TestCaseSpec& spec,
                                              std::size_t worker) {
    if (!config_.sandbox_cells) return executor_.run(i, spec, worker);
    const std::size_t max_attempts = 1 + config_.cell_retries;
    for (std::size_t attempt = 1;; ++attempt) {
      const auto started = StatusBoard::Clock::now();
      CellOutcome outcome = executor_.run_sandboxed(i, spec, worker, limits_);
      board_.sandbox_attempt(started);
      if (auto* cell = std::get_if<campaign::CheckpointCell>(&outcome)) {
        return std::move(*cell);
      }
      const HarnessFault& fault = std::get<HarnessFault>(outcome);
      faulted(i, attempt, fault, worker);
      if (attempt == max_attempts) {
        quarantine(i, worker, max_attempts, fault);
        return std::nullopt;
      }
      support::RetryPolicy backoff;
      backoff.base_delay_ms = config_.retry_base_backoff_ms;
      backoff.multiplier = 2.0;
      backoff.max_delay_ms = 2000.0;
      backoff.jitter_seed = 0x9E3779B97F4A7C15ULL ^ (i * 0x100000001B3ULL);
      const double backoff_ms = support::retry_delay_ms(backoff, attempt);
      board_.retry(i, attempt, backoff_ms);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
  }

  /// One end-of-run re-probe round of quarantined cell `poison`, whose
  /// spec is `spec`, on worker 0's slot: the main thread runs it once the
  /// workers have joined. Rounds are numbered after the journal's
  /// history of the cell. First a degraded canary probe on a freshly
  /// rebuilt slot — a reduced mutant budget, half the deadline and CPU
  /// budget — whose result is DISCARDED: a clean probe only earns a
  /// full-fidelity re-execution under the ordinary limits, because
  /// journaling a reduced-budget result would hand the reducer two
  /// conflicting records for one index. The round is journaled. A clean
  /// re-execution rehabilitates the cell (journaled like any clean cell;
  /// clean-cell-wins does the rest on resume and reduce) and returns
  /// true; a fault re-poisons `poison` with the updated attempt history.
  /// A resumed quarantine's workload may have no pending cell, so the
  /// round records it before it forks the probe's child.
  bool reprobe(PoisonedCell& poison, const TestCaseSpec& spec) {
    const std::size_t i = poison.index;
    const std::uint32_t round = fold_.reprobe_rounds[i] + 1;
    (void)executor_.behavior(spec.workload);
    executor_.rebuild(0);
    TestCaseSpec probe_spec = spec;
    probe_spec.mutants = std::min(spec.mutants, kReprobeProbeMutants);
    SandboxLimits probe_limits = limits_;
    if (limits_.deadline_seconds > 0) {
      probe_limits.deadline_seconds =
          std::max(1.0, limits_.deadline_seconds / 2);
    }
    if (limits_.cpu_seconds > 0) {
      probe_limits.cpu_seconds =
          std::max<std::uint64_t>(1, limits_.cpu_seconds / 2);
    }
    std::uint32_t attempts_spent = 1;
    CellOutcome outcome =
        executor_.run_sandboxed(i, probe_spec, 0, probe_limits);
    if (std::holds_alternative<campaign::CheckpointCell>(outcome)) {
      executor_.rebuild(0);
      ++attempts_spent;
      outcome = executor_.run_sandboxed(i, spec, 0, limits_);
    }
    campaign::ReprobeRecord record;
    record.index = i;
    record.round = round;
    record.attempts_total = poison.attempts + attempts_spent;
    const HarnessFault* fault = std::get_if<HarnessFault>(&outcome);
    if (fault != nullptr) {
      faulted(i, attempts_spent, *fault, 0);
      poison.attempts = record.attempts_total;
      poison.fault = *fault;
      record.outcome = campaign::kReprobeRepoisoned;
      record.fault_kind = static_cast<std::uint8_t>(fault->kind);
      record.detail = fault->detail;
      record.message = journaled_fault(i, *fault);
    }
    journal_.append([&](campaign::CampaignCheckpoint& c) {
      return c.append_reprobe(record);
    });
    std::size_t executed = 0;
    if (fault == nullptr) {
      auto& cell = std::get<campaign::CheckpointCell>(outcome);
      journal_.append(
          [&](campaign::CampaignCheckpoint& c) { return c.append(cell); });
      executed = cell.result.executed;
      fold_.quarantined[i] = 0;
      mark_done(fold_, std::move(cell));
    }
    board_.reprobe(i, round, record.attempts_total, fault, executed);
    return fault == nullptr;
  }

  /// Cell `i` has a published forensic record.
  [[nodiscard]] bool has_forensics(std::size_t i) const {
    return forensics_[i] != 0;
  }

 private:
  /// Book one faulted attempt: the fault event, the dead child's
  /// forensic record, and a freshly rebuilt slot for whatever runs next.
  /// Publishing is best-effort by the same contract as the status file:
  /// a sick forensic write surfaces in persistence_error but never fails
  /// or perturbs the campaign.
  void faulted(std::size_t i, std::size_t attempt, const HarnessFault& fault,
               std::size_t worker) {
    board_.fault(i, attempt, fault);
    if (support::FlightRecorder* recorder = executor_.recorder(worker)) {
      campaign::ForensicRecord record;
      record.cell = i;
      record.attempt = static_cast<std::uint32_t>(attempt);
      record.shard = config_.shard_label;
      record.fault = fault.describe();
      record.written_unix =
          static_cast<std::uint64_t>(campaign::wall_clock_unix());
      record.harvest = recorder->harvest();
      const Status status =
          campaign::write_forensics(config_.forensics_dir, record);
      journal_.keep_error(status);
      if (status.ok()) {
        forensics_[i] = 1;
        board_.forensics(i, attempt, record.harvest.crumbs.size());
      }
    }
    executor_.rebuild(worker);
  }

  /// Quarantine cell `i`. The poison is accounted in the result whether
  /// or not its record reached the journal; a journaled quarantine
  /// retires the range exactly like a journaled result (the reducer will
  /// see and report it).
  void quarantine(std::size_t i, std::size_t worker, std::size_t attempts,
                  const HarnessFault& fault) {
    fold_.quarantined[i] = 1;
    board_.quarantine(i, worker, attempts, fault);
    const PoisonedCell poison{i, static_cast<std::uint32_t>(attempts), fault};
    const campaign::PoisonRecord record{
        i, poison.attempts, static_cast<std::uint8_t>(fault.kind),
        fault.detail, journaled_fault(i, fault)};
    const bool journaled = journal_.append(
        [&](campaign::CampaignCheckpoint& c) { return c.append_poison(record); });
    {
      const std::lock_guard<std::mutex> lock(quarantine_mutex_);
      fold_.result.poisoned_cells.push_back(poison);
    }
    if (config_.gate != nullptr && journaled) config_.gate->completed(i);
  }

  /// A journaled fault summary. It points triage at the cell's
  /// breadcrumbs when a forensic record exists; free text by design, so
  /// old readers show it verbatim.
  [[nodiscard]] std::string journaled_fault(std::size_t i,
                                            const HarnessFault& fault) const {
    std::string message = fault.describe();
    if (forensics_[i] != 0) {
      message += " forensics=" + campaign::forensic_file_name(i);
    }
    return message;
  }

  const CampaignConfig& config_;
  CellExecutor& executor_;
  StatusBoard& board_;
  CampaignJournal& journal_;
  campaign::JournalFold& fold_;
  /// Limits of every ordinary attempt; the re-probe degrades a copy.
  const SandboxLimits limits_;
  /// Cells with a published forensic record. Cell i is touched only by
  /// the worker that runs it, then by the main thread after the join.
  std::vector<std::uint8_t> forensics_;
  /// Guards fold_.result.poisoned_cells, which workers append to.
  std::mutex quarantine_mutex_;
};

/// One replayable reproducer per crash bucket. When the bucket's cell has
/// a forensic record (some attempt faulted before the clean run that
/// found the crash), the reproducer names it and the file is copied
/// beside it, so the archive stays self-contained for triage on another
/// machine. A fully resumed run records the buckets' workloads here.
void archive_crashes(const CampaignConfig& config, const CampaignResult& out,
                     CellExecutor& executor, const FaultPolicy& policy,
                     CampaignJournal& journal) {
  if (config.crash_archive_dir.empty()) return;
  campaign::CrashArchive archive(config.crash_archive_dir);
  journal.keep_error(archive.init());
  for (const DedupedCrash& bucket : out.unique_crashes) {
    const TestCaseResult& cell = out.results[bucket.spec_index];
    const VmBehavior& behavior = executor.behavior(cell.spec.workload);
    campaign::CrashReproducer repro;
    repro.key = bucket.key;
    repro.spec = cell.spec;
    repro.hv_seed = config.hv_seed;
    repro.async_noise_prob = config.async_noise_prob;
    repro.target_index = cell.target_index;
    repro.replay = config.fuzzer.replay;
    // target_index may come from a checkpoint file; bound it by the
    // behavior length before reserving, exactly as the loop does.
    const std::size_t prefix_len =
        std::min(cell.target_index + 1, behavior.size());
    repro.prefix.reserve(prefix_len);
    for (std::size_t s = 0; s < prefix_len; ++s) {
      repro.prefix.push_back(behavior[s].seed);
    }
    repro.mutant = bucket.first.mutant;
    if (policy.has_forensics(bucket.spec_index)) {
      repro.forensics_name = campaign::forensic_file_name(bucket.spec_index);
      auto bytes =
          read_file_bytes(config.forensics_dir + "/" + repro.forensics_name);
      if (bytes.ok()) {
        journal.keep_error(write_file_atomic(
            config.crash_archive_dir, repro.forensics_name, bytes.value()));
      }
    }
    journal.keep_error(archive.write(repro));
  }
}

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

std::variant<campaign::CheckpointCell, HarnessFault> decode_cell_frame(
    std::span<const std::uint8_t> bytes, std::size_t index) {
  // Two frames share the pipe, told apart by the magic alone.
  ByteReader peek(bytes);
  const auto magic = peek.u32();
  const bool model_fault =
      magic.ok() && magic.value() == support::modelfault::kModelFaultFrameMagic;
  const auto payload = support::decode_frame(
      bytes, model_fault ? support::modelfault::kModelFaultFrameMagic
                         : kSandboxFrameMagic);
  // A torn frame, else a payload that does not parse.
  const HarnessFault torn{
      HarnessFault::Kind::kProtocol,
      payload.ok() ? 2 : static_cast<int>(payload.error()), {}};
  if (!payload.ok()) return torn;
  ByteReader r(payload.value());
  if (model_fault) {
    auto fault = support::modelfault::deserialize_model_fault(r);
    if (!fault.ok() || !r.exhausted()) return torn;
    return HarnessFault{HarnessFault::Kind::kModelFault, fault.value().code,
                        fault.value().describe()};
  }
  auto cell = campaign::deserialize_checkpoint_cell(r);
  if (!cell.ok() || !r.exhausted() || cell.value().index != index) return torn;
  return std::move(cell).take();
}

void finalize_campaign_result(const std::vector<CellCoverage>& cell_coverage,
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
  // The run's grid state is the fold of its own journal, extended as
  // cells complete: resumed cells are done, resumed quarantines stay
  // quarantined, and every other result is a placeholder.
  campaign::JournalFold fold(grid);
  CampaignResult& out = fold.result;
  if (grid.empty()) return std::move(out);
  const std::size_t workers =
      std::clamp<std::size_t>(config_.workers, 1, grid.size());
  out.workers_used = workers;
  StatusBoard board(config_, grid.size(), workers);

  // --- Resume: recover completed and quarantined cells from the journal.
  CampaignJournal journal(config_.checkpoint_path,
                          campaign::campaign_fingerprint(grid, config_), fold,
                          board);
  out.cells_resumed = static_cast<std::size_t>(
      std::count(fold.done.begin(), fold.done.end(), 1));
  board.resumed(out.cells_resumed);

  // --- The corpus-sync epoch, journaled before any cell runs.
  campaign::SyncEpochRecord epoch = journal.sync_epoch(config_);
  // First status publication before any cell runs, so a fleet monitor
  // sees the shard the moment it starts (CI greps for this).
  board.publish_now();

  // --- Grid pass: workers claim cells in the scheduler's order and run
  // each under the fault policy. The calling thread claims the first
  // cell. Only if it got one does it record every workload a pending
  // cell fuzzes and fork the first sandbox children, all before any
  // worker thread exists. So a pass that can claim nothing (its pending
  // cells all behind peers' leases, or a stop) records, forks and starts
  // nothing.
  const auto started = std::chrono::steady_clock::now();
  CellExecutor executor(config_, workers, std::move(epoch), board);
  FaultPolicy policy(config_, executor, board, journal, fold);
  CellScheduler scheduler(config_, fold, board);
  const std::optional<std::size_t> first = scheduler.next();
  std::size_t pending = 0;
  if (first) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!fold.pending(i)) continue;
      (void)executor.behavior(grid[i].workload);
      ++pending;
    }
  }
  // One thread, and one first child, per worker that may get a cell.
  const std::size_t threads = std::min(workers, pending);
  executor.spawn_children(threads);
  auto work = [&](std::size_t worker) {
    for (auto next = worker == 0 ? first : scheduler.next(); next;
         next = scheduler.next()) {
      const std::size_t i = *next;
      const auto cell_started = board.cell_start(i, worker);
      auto cell = policy.run(i, grid[i], worker);
      if (!cell) continue;  // quarantined
      board.cell_done(i, worker, cell->result, cell_started);
      // Only journaled cells may retire toward a (final) done marker:
      // the reducer can only ever see journaled results, so a cell lost
      // to a persistence failure must leave its range claimable for a
      // shard whose journal works.
      const bool journaled = journal.append(
          [&](campaign::CampaignCheckpoint& c) { return c.append(*cell); });
      if (journaled && config_.gate != nullptr) config_.gate->completed(i);
      mark_done(fold, std::move(*cell));
    }
    executor.retire(worker);
  };
  if (threads == 1) {
    work(0);
  } else if (threads > 1) {
    std::vector<std::thread> running;
    running.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) running.emplace_back(work, w);
    for (auto& t : running) t.join();
  }
  std::sort(out.poisoned_cells.begin(), out.poisoned_cells.end(),
            [](const PoisonedCell& a, const PoisonedCell& b) {
              return a.index < b.index;
            });

  // --- Re-probe: every still-poisoned cell, fresh or resumed, gets one
  // more round.
  if (config_.sandbox_cells && config_.reprobe_poisoned &&
      !out.poisoned_cells.empty() && !scheduler.stop_requested()) {
    std::vector<PoisonedCell> still_poisoned;
    for (PoisonedCell poison : out.poisoned_cells) {
      if (fold.done[poison.index] != 0) continue;
      if (!policy.reprobe(poison, grid[poison.index])) {
        still_poisoned.push_back(poison);
      }
    }
    out.poisoned_cells = std::move(still_poisoned);
    board.publish_now();
  }

  // --- Finalize. A poisoned cell is not done: the campaign outcome is
  // honestly partial (complete == false, the cell's result a
  // placeholder) even though this run will never re-run it.
  out.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  out.complete = std::all_of(fold.done.begin(), fold.done.end(),
                             [](std::uint8_t d) { return d != 0; });
  out.cells_completed = fold.done;
  board.copy_tallies(out);
  out.interrupted = scheduler.stopped();
  // The merge phase, shared with the distributed reducer.
  finalize_campaign_result(fold.coverage, out);

  // --- Archive one replayable reproducer per crash bucket.
  archive_crashes(config_, out, executor, policy, journal);
  out.persistence_error = journal.error();
  // Final publication with the run's closing counts. Not a "finished"
  // status: a distributed shard runs several claim passes per shard
  // lifetime, and only the layer that knows the last pass ended (the
  // DistributedCampaign / the CLI) can say so.
  board.publish_now();
  return std::move(out);
}

}  // namespace iris::fuzz
