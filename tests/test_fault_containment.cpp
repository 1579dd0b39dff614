// Tests for the fault-containment layer (PR 7): deterministic
// failpoints, the shared filesystem retry policy, the sandbox result
// frame's decode-and-classify table, sandboxed cell execution proven
// byte-identical to in-process runs, transient-fault recovery and
// persistent-fault quarantine (poisoned cells) through the checkpoint
// journal and the reducer, graceful ENOSPC degradation, and grid-lease
// loss detection.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/checkpoint.h"
#include "campaign/grid_lease.h"
#include "campaign/monitor.h"
#include "campaign/reducer.h"
#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "support/failpoints.h"
#include "support/model_fault.h"
#include "support/retry.h"
#include "support/telemetry.h"

namespace iris::campaign {
namespace {

namespace fs = std::filesystem;
namespace failpoints = support::failpoints;
using fuzz::CampaignConfig;
using fuzz::CampaignRunner;
using fuzz::HarnessFault;
using guest::Workload;

/// Fresh scratch directory per test, wiped up front so reruns start
/// clean.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("iris-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Failpoints are process-global; every test that arms them must disarm
/// on every exit path, or the next test inherits its faults.
struct FailpointGuard {
  explicit FailpointGuard(const std::string& spec) {
    const auto status = failpoints::configure(spec);
    EXPECT_TRUE(status.ok()) << status.error().message;
  }
  ~FailpointGuard() { failpoints::clear(); }
};

CampaignConfig small_config(std::size_t workers) {
  CampaignConfig config;
  config.workers = workers;
  config.hv_seed = 17;
  config.record_exits = 150;
  config.record_seed = 3;
  return config;
}

/// Sandbox knobs tuned for tests: fast retries, one retry.
CampaignConfig sandbox_config(std::size_t workers) {
  CampaignConfig config = small_config(workers);
  config.sandbox_cells = true;
  config.cell_retries = 1;
  config.retry_base_backoff_ms = 0.1;
  return config;
}

std::vector<fuzz::TestCaseSpec> small_grid(std::size_t mutants = 40) {
  return fuzz::make_table1_grid({Workload::kCpuBound}, mutants, 7);
}

// --- Failpoint rule parsing and evaluation ---

TEST(Failpoints, RejectsMalformedRules) {
  // Every malformed spec is error 91 and leaves nothing armed.
  for (const char* bad : {
           "checkpoint_append",                    // no action
           "checkpoint_append:errno=EWHATEVER",    // unknown errno
           "cell_exec:signal=HUP",                 // unsupported signal
           "cell_exec:signal=KILL:after=x",        // non-numeric filter
           "cell_exec:bogus=1",                    // unknown clause
           ":errno=EIO",                           // rule without a site
       }) {
    const auto status = failpoints::configure(bad);
    ASSERT_FALSE(status.ok()) << bad;
    EXPECT_EQ(status.error().code, 91) << bad;
  }
  EXPECT_FALSE(failpoints::active());
}

TEST(Failpoints, AfterFilterOpensAnUnboundedWindow) {
  // Regression: `after=N` with the default (unbounded) count must fire
  // on every hit past N — the window must not arithmetic-wrap shut.
  const FailpointGuard guard("probe:errno=EIO:after=2");
  EXPECT_FALSE(failpoints::evaluate("probe").has_value());
  EXPECT_FALSE(failpoints::evaluate("probe").has_value());
  for (int i = 0; i < 4; ++i) {
    const auto hit = failpoints::evaluate("probe");
    ASSERT_TRUE(hit.has_value()) << "hit " << (3 + i);
    EXPECT_EQ(hit->action, failpoints::Hit::Action::kErrno);
    EXPECT_EQ(hit->detail, EIO);
  }
}

TEST(Failpoints, CountFilterDisarmsAfterFiring) {
  const FailpointGuard guard("probe:errno=EAGAIN:count=2");
  EXPECT_TRUE(failpoints::evaluate("probe").has_value());
  EXPECT_TRUE(failpoints::evaluate("probe").has_value());
  EXPECT_FALSE(failpoints::evaluate("probe").has_value());
}

TEST(Failpoints, CellFilterMatchesOnlyThatIndex) {
  const FailpointGuard guard("cell_exec:signal=KILL:cell=5");
  EXPECT_FALSE(failpoints::evaluate("cell_exec", 4).has_value());
  const auto hit = failpoints::evaluate("cell_exec", 5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->action, failpoints::Hit::Action::kSignal);
  EXPECT_EQ(hit->detail, SIGKILL);
  // Unrelated sites never match.
  EXPECT_FALSE(failpoints::evaluate("corpus_write", 5).has_value());
}

TEST(Failpoints, FsErrorCarriesTheInjectedErrno) {
  const FailpointGuard guard("checkpoint_append:errno=ENOSPC");
  const auto injected = failpoints::fs_error("checkpoint_append");
  ASSERT_TRUE(injected.has_value());
  EXPECT_EQ(injected->code, 90);
  EXPECT_EQ(injected->sys_errno, ENOSPC);
  EXPECT_NE(injected->message.find("checkpoint_append"), std::string::npos);
  EXPECT_NE(injected->message.find("ENOSPC"), std::string::npos);
}

TEST(Failpoints, ClearDisarmsEverything) {
  ASSERT_TRUE(failpoints::configure("probe:errno=EIO").ok());
  EXPECT_TRUE(failpoints::active());
  failpoints::clear();
  EXPECT_FALSE(failpoints::active());
  EXPECT_FALSE(failpoints::evaluate("probe").has_value());
}

// --- Retry policy ---

TEST(RetryPolicy, ClassifiesTransientVersusPermanentErrnos) {
  for (const int err : {EINTR, EAGAIN, ESTALE, EBUSY, ETIMEDOUT}) {
    EXPECT_TRUE(support::transient_errno(err)) << err;
  }
  for (const int err : {0, ENOSPC, EACCES, EROFS, EIO, ENOENT}) {
    EXPECT_FALSE(support::transient_errno(err)) << err;
  }
}

TEST(RetryPolicy, DelayIsExponentialJitteredAndCapped) {
  support::RetryPolicy policy;
  policy.base_delay_ms = 2.0;
  policy.multiplier = 4.0;
  policy.max_delay_ms = 250.0;
  double uncapped = policy.base_delay_ms;
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    const double delay = support::retry_delay_ms(policy, attempt);
    const double full = std::min(uncapped, policy.max_delay_ms);
    EXPECT_GE(delay, 0.5 * full) << attempt;
    EXPECT_LE(delay, full) << attempt;
    // Deterministic: same policy and attempt, same delay.
    EXPECT_EQ(delay, support::retry_delay_ms(policy, attempt));
    uncapped *= policy.multiplier;
  }
  // Distinct jitter seeds de-synchronize two shards' schedules.
  support::RetryPolicy other = policy;
  other.jitter_seed ^= 0xDEADBEEF;
  EXPECT_NE(support::retry_delay_ms(policy, 1),
            support::retry_delay_ms(other, 1));
}

TEST(RetryPolicy, RetriesTransientFailuresUntilSuccess) {
  support::RetryPolicy policy;
  policy.base_delay_ms = 0.01;
  int calls = 0;
  const auto status = support::retry_io(policy, [&]() -> Status {
    if (++calls < 3) return Error{90, "transient", EINTR};
    return {};
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicy, ReturnsPermanentFailuresImmediately) {
  support::RetryPolicy policy;
  policy.base_delay_ms = 0.01;
  int calls = 0;
  const auto status = support::retry_io(policy, [&]() -> Status {
    ++calls;
    return Error{90, "disk full", ENOSPC};
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().sys_errno, ENOSPC);
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicy, ExhaustsTheAttemptBudgetOnPersistentTransients) {
  support::RetryPolicy policy;
  policy.base_delay_ms = 0.01;
  policy.max_attempts = 4;
  int calls = 0;
  const auto status = support::retry_io(policy, [&]() -> Status {
    ++calls;
    return Error{90, "still busy", EBUSY};
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(calls, 4);
}

// --- Poison record wire format ---

TEST(PoisonRecord, RoundTripsThroughTheWireFormat) {
  PoisonRecord record;
  record.index = 17;
  record.attempts = 3;
  record.fault_kind = static_cast<std::uint8_t>(HarnessFault::Kind::kDeadline);
  record.detail = SIGKILL;
  record.message = "harness overran the cell deadline (SIGKILLed)";

  ByteWriter w;
  serialize_poison(record, w);
  ByteReader r(w.data());
  auto parsed = deserialize_poison(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(parsed.value().index, record.index);
  EXPECT_EQ(parsed.value().attempts, record.attempts);
  EXPECT_EQ(parsed.value().fault_kind, record.fault_kind);
  EXPECT_EQ(parsed.value().detail, record.detail);
  EXPECT_EQ(parsed.value().message, record.message);
}

TEST(PoisonRecord, RejectsTruncationAndBadKinds) {
  PoisonRecord record;
  record.fault_kind = static_cast<std::uint8_t>(HarnessFault::Kind::kSignal);
  record.message = "x";
  ByteWriter w;
  serialize_poison(record, w);

  auto bytes = w.data();
  bytes.pop_back();
  ByteReader truncated(bytes);
  auto short_parse = deserialize_poison(truncated);
  ASSERT_FALSE(short_parse.ok());
  EXPECT_EQ(short_parse.error().code, 82);

  PoisonRecord bad = record;
  bad.fault_kind = 200;
  ByteWriter w2;
  serialize_poison(bad, w2);
  ByteReader r2(w2.data());
  auto bad_parse = deserialize_poison(r2);
  ASSERT_FALSE(bad_parse.ok());
  EXPECT_EQ(bad_parse.error().code, 83);
}

TEST(CampaignCheckpoint, PoisonRecordsSurviveReopen) {
  const auto dir = scratch_dir("ckpt-poison-reopen");
  const std::string path = (dir / "campaign.ckpt").string();

  PoisonRecord record;
  record.index = 9;
  record.attempts = 2;
  record.fault_kind = static_cast<std::uint8_t>(HarnessFault::Kind::kSignal);
  record.detail = SIGKILL;
  record.message = "harness killed by signal 9";
  {
    auto ckpt = CampaignCheckpoint::open(path, 0xBEEF);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt.value().append_poison(record).ok());
  }
  auto reopened = CampaignCheckpoint::open(path, 0xBEEF);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened.value().poisons().size(), 1u);
  EXPECT_EQ(reopened.value().poisons()[0].index, 9u);
  EXPECT_EQ(reopened.value().poisons()[0].message, record.message);
}

// --- The sandbox result pipe frame ---

/// One frame exactly as a sandbox child writes it: magic u32, payload
/// length u32, fnv1a(payload) u64, payload (little-endian).
std::vector<std::uint8_t> pipe_frame(std::uint32_t magic,
                                     const std::vector<std::uint8_t>& payload) {
  ByteWriter w;
  w.u32(magic);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(fnv1a(payload));
  w.bytes(payload);
  return std::move(w).take();
}

TEST(SandboxFrame, DecodeClassifiesEveryFrameShape) {
  constexpr std::uint32_t kResultMagic = 0x49525342;  // "IRSB"
  constexpr std::uint32_t kModelMagic = 0x49524D46;   // "IRMF"
  ASSERT_EQ(support::modelfault::kModelFaultFrameMagic, kModelMagic);

  CheckpointCell cell;
  cell.index = 5;
  cell.result.spec = small_grid().front();
  cell.result.ran = true;
  cell.result.executed = 40;
  cell.coverage = {{hv::pack_block(hv::Component::kVmx, 3), 7}};
  ByteWriter cell_bytes;
  serialize_checkpoint_cell(cell, cell_bytes);
  const auto result_frame = pipe_frame(kResultMagic, cell_bytes.data());

  const support::modelfault::ModelFault model{
      support::modelfault::Layer::kEptWalk, 17, "walk of an unmapped GPA"};
  ByteWriter model_bytes;
  support::modelfault::serialize_model_fault(model, model_bytes);
  const auto model_frame = pipe_frame(kModelMagic, model_bytes.data());

  // An intact result frame naming the cell decodes to the cell.
  const auto decoded = fuzz::decode_cell_frame(result_frame, 5);
  ASSERT_TRUE(std::holds_alternative<CheckpointCell>(decoded));
  ByteWriter round_trip;
  serialize_checkpoint_cell(std::get<CheckpointCell>(decoded), round_trip);
  EXPECT_EQ(round_trip.data(), cell_bytes.data());

  // An intact model-fault frame is a structured model fault.
  const auto faulted = fuzz::decode_cell_frame(model_frame, 5);
  ASSERT_TRUE(std::holds_alternative<HarnessFault>(faulted));
  EXPECT_EQ(std::get<HarnessFault>(faulted).kind,
            HarnessFault::Kind::kModelFault);
  EXPECT_EQ(std::get<HarnessFault>(faulted).detail, 17);
  EXPECT_EQ(std::get<HarnessFault>(faulted).message, model.describe());

  // Everything else is a protocol fault: 0 torn, 1 checksum, 2 payload.
  struct Case {
    std::string what;
    std::vector<std::uint8_t> bytes;
    std::size_t cell;
    int detail;
  };
  std::vector<Case> cases;
  for (const auto* frame : {&result_frame, &model_frame}) {
    const std::string name = frame == &result_frame ? "result" : "model";
    for (std::size_t n = 0; n < frame->size(); ++n) {
      cases.push_back({name + " truncated to " + std::to_string(n),
                       {frame->begin(), frame->begin() + n}, 5, 0});
    }
    auto flipped = *frame;
    flipped[8] ^= 0x01;  // first checksum byte
    cases.push_back({name + " with a flipped checksum byte", flipped, 5, 1});
    auto trailing = *frame;
    trailing.push_back(0);
    cases.push_back({name + " with a trailing byte", trailing, 5, 0});
  }
  auto wrong_magic = result_frame;
  wrong_magic[0] ^= 0x20;
  cases.push_back({"wrong magic", wrong_magic, 5, 0});
  cases.push_back({"a frame naming another cell", result_frame, 6, 2});
  cases.push_back({"a result payload that does not parse",
                   pipe_frame(kResultMagic, {1, 2, 3}), 5, 2});
  cases.push_back({"a model-fault payload that does not parse",
                   pipe_frame(kModelMagic, {9}), 5, 2});
  for (const Case& c : cases) {
    const auto outcome = fuzz::decode_cell_frame(c.bytes, c.cell);
    ASSERT_TRUE(std::holds_alternative<HarnessFault>(outcome)) << c.what;
    EXPECT_EQ(std::get<HarnessFault>(outcome).kind,
              HarnessFault::Kind::kProtocol)
        << c.what;
    EXPECT_EQ(std::get<HarnessFault>(outcome).detail, c.detail) << c.what;
  }
}

// --- Sandboxed cell execution ---

TEST(SandboxedCampaign, CleanCellsAreByteIdenticalToInProcess) {
  const auto grid = small_grid();
  const auto in_process = CampaignRunner(small_config(1)).run(grid);
  ASSERT_TRUE(in_process.complete);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    const auto sandboxed = CampaignRunner(sandbox_config(workers)).run(grid);
    ASSERT_TRUE(sandboxed.complete) << workers;
    EXPECT_EQ(sandboxed.harness_faults, 0u);
    EXPECT_EQ(canonical_result_bytes(sandboxed),
              canonical_result_bytes(in_process))
        << workers;
  }
}

/// Sandbox children forked so far in this process.
std::uint64_t sandbox_spawns() {
  return support::metrics().snapshot().counter("sandbox.spawns");
}

TEST(SandboxedCampaign, CleanRunsSpawnOneChildPerWorker) {
  // Every workload is recorded before the workers start, so a worker's
  // first child holds every behavior and serves the worker's whole clean
  // run, across all three workloads.
  const auto grid = fuzz::make_table1_grid(
      {Workload::kCpuBound, Workload::kIoBound, Workload::kIdle}, 20, 7);
  const auto reference = CampaignRunner(small_config(1)).run(grid);
  ASSERT_TRUE(reference.complete);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    const std::uint64_t before = sandbox_spawns();
    const auto result = CampaignRunner(sandbox_config(workers)).run(grid);
    ASSERT_TRUE(result.complete) << workers;
    EXPECT_EQ(result.harness_faults, 0u) << workers;
    EXPECT_EQ(sandbox_spawns() - before, workers);
    EXPECT_EQ(canonical_result_bytes(result),
              canonical_result_bytes(reference))
        << workers;
  }
}

/// Pooled-stack resets in this process: one per recorded workload and
/// per in-process cell (a sandbox child's own resets stay in the child).
std::uint64_t pool_resets() {
  return support::metrics().snapshot().counter("pool.resets");
}

/// The gate of a shard whose peers hold every range.
struct PeersHoldEveryCell final : fuzz::CellGate {
  bool try_claim(std::size_t) override { return false; }
  void completed(std::size_t) override {}
  void heartbeat() override {}
};

TEST(SandboxedCampaign, ForksOnlyForWorkersThatCanGetACell) {
  const auto grid = small_grid();
  // A distributed shard's last pass finds every pending cell behind a
  // peer's lease: it must record no behavior and fork no child.
  PeersHoldEveryCell peers;
  CampaignConfig config = sandbox_config(2);
  config.gate = &peers;
  std::uint64_t spawns = sandbox_spawns();
  const std::uint64_t resets = pool_resets();
  const auto idle = CampaignRunner(config).run(grid);
  EXPECT_EQ(idle.executed, 0u);
  EXPECT_EQ(sandbox_spawns() - spawns, 0u);
  EXPECT_EQ(pool_resets() - resets, 0u);

  // A resumed run with one cell left forks one child, not one per worker.
  const auto dir = scratch_dir("sandbox-one-cell-left");
  config = sandbox_config(2);
  config.checkpoint_path = (dir / "campaign.ckpt").string();
  config.cell_budget = grid.size() - 1;
  ASSERT_FALSE(CampaignRunner(config).run(grid).complete);
  config.cell_budget = 0;
  spawns = sandbox_spawns();
  const auto resumed = CampaignRunner(config).run(grid);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.cells_resumed, grid.size() - 1);
  EXPECT_EQ(sandbox_spawns() - spawns, 1u);
}

/// Pids of the calling thread's child processes.
std::vector<pid_t> thread_children() {
  std::ifstream in("/proc/self/task/" + std::to_string(::gettid()) +
                   "/children");
  std::vector<pid_t> pids;
  for (pid_t pid = 0; in >> pid;) pids.push_back(pid);
  return pids;
}

TEST(SandboxedCampaign, ChildThatDiesIdleFaultsOnlyTheNextAttempt) {
  if (!fs::exists("/proc/self/task/" + std::to_string(::gettid()) +
                  "/children")) {
    GTEST_SKIP() << "the kernel does not list a thread's children";
  }
  const auto grid = small_grid();
  const auto reference = CampaignRunner(small_config(1)).run(grid);
  ASSERT_TRUE(reference.complete);

  // One worker publishes status before each claim, on this thread, while
  // its sandbox child waits idle for the next command: kill the child
  // there. The next command then meets a dead child, which must cost
  // that attempt alone — never the shard (no SIGPIPE), never the bytes.
  CampaignConfig config = sandbox_config(1);
  config.status_interval_seconds = 0.0;
  std::size_t ticks = 0;
  std::size_t killed = 0;
  config.on_progress = [&](const ShardStatus&) {
    if (++ticks % 4 != 0) return;
    for (const pid_t child : thread_children()) {
      if (::kill(child, SIGKILL) != 0) continue;
      ++killed;
      // Wait until it is dead, socket closed, but leave the reaping to
      // the campaign: the next command write must fail with EPIPE.
      ::siginfo_t info{};
      ::waitid(P_PID, static_cast<::id_t>(child), &info, WEXITED | WNOWAIT);
    }
  };
  const auto result = CampaignRunner(config).run(grid);
  ASSERT_GT(killed, 0u);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.harness_faults, killed);
  EXPECT_EQ(canonical_result_bytes(result), canonical_result_bytes(reference));
}

TEST(SandboxedCampaign, TransientKillIsRetriedToAnIdenticalResult) {
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 2;
  const auto reference = CampaignRunner(small_config(1)).run(grid);

  // One SIGKILL, spent on the first attempt (the shared hit counter
  // survives the fork); the retry must reproduce the cell exactly.
  const FailpointGuard guard("cell_exec:signal=KILL:cell=" +
                             std::to_string(victim) + ":count=1");
  const auto recovered = CampaignRunner(sandbox_config(1)).run(grid);
  ASSERT_TRUE(recovered.complete);
  EXPECT_EQ(recovered.harness_faults, 1u);
  EXPECT_TRUE(recovered.poisoned_cells.empty());
  EXPECT_EQ(canonical_result_bytes(recovered),
            canonical_result_bytes(reference));
}

TEST(SandboxedCampaign, PersistentKillQuarantinesTheCell) {
  const auto dir = scratch_dir("sandbox-poison");
  const std::string journal = (dir / "campaign.ckpt").string();
  const std::string clean = (dir / "clean.ckpt").string();
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 2;

  CampaignConfig config = sandbox_config(1);
  config.checkpoint_path = journal;
  CampaignConfig clean_config = config;
  clean_config.checkpoint_path = clean;
  const auto reference = CampaignRunner(clean_config).run(grid);
  ASSERT_TRUE(reference.complete);

  const FailpointGuard guard("cell_exec:signal=KILL:cell=" +
                             std::to_string(victim));
  const auto result = CampaignRunner(config).run(grid);

  // Initial attempt + one retry, then quarantine; the shard survives.
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.harness_faults, 2u);
  ASSERT_EQ(result.poisoned_cells.size(), 1u);
  EXPECT_EQ(result.poisoned_cells[0].index, victim);
  EXPECT_EQ(result.poisoned_cells[0].attempts, 2u);
  EXPECT_EQ(result.poisoned_cells[0].fault.kind, HarnessFault::Kind::kSignal);
  EXPECT_EQ(result.poisoned_cells[0].fault.detail, SIGKILL);
  // Every other cell matches the fault-free run; the victim holds a
  // never-ran placeholder.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(result.results[i].ran,
              i == victim ? false : reference.results[i].ran)
        << i;
  }

  // The quarantine is journaled and honored on resume: with the
  // fault cleared the resumed run must NOT retry the poisoned cell.
  failpoints::clear();
  const auto resumed = CampaignRunner(config).run(grid);
  EXPECT_FALSE(resumed.complete);
  EXPECT_EQ(resumed.cells_resumed, grid.size() - 1);
  EXPECT_EQ(resumed.harness_faults, 0u);
  ASSERT_EQ(resumed.poisoned_cells.size(), 1u);
  EXPECT_EQ(resumed.poisoned_cells[0].index, victim);

  // The reducer reports the quarantine instead of listing the cell as
  // missing...
  auto report = reduce_journals({journal}, grid, config);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().result.complete);
  EXPECT_TRUE(report.value().missing.empty());
  ASSERT_EQ(report.value().poisoned.size(), 1u);
  EXPECT_EQ(report.value().poisoned[0].index, victim);

  // ...and a clean journal covering the cell overrides the poison: the
  // merged campaign is complete and byte-identical to a fault-free run.
  auto merged = reduce_journals({journal, clean}, grid, config);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged.value().result.complete);
  EXPECT_TRUE(merged.value().poisoned.empty());
  EXPECT_EQ(merged.value().overridden_poisons, 1u);
  EXPECT_EQ(canonical_result_bytes(merged.value().result),
            canonical_result_bytes(reference));
}

TEST(SandboxedCampaign, HungCellIsKilledAtTheDeadlineAndQuarantined) {
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 3;

  const FailpointGuard guard("cell_exec:hang:cell=" + std::to_string(victim));
  CampaignConfig config = sandbox_config(1);
  config.cell_retries = 0;  // one ~1s watchdog window, not two
  config.cell_deadline_seconds = 1.0;
  const auto result = CampaignRunner(config).run(grid);

  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.harness_faults, 1u);
  ASSERT_EQ(result.poisoned_cells.size(), 1u);
  EXPECT_EQ(result.poisoned_cells[0].index, victim);
  EXPECT_EQ(result.poisoned_cells[0].fault.kind, HarnessFault::Kind::kDeadline);
}

TEST(SandboxedCampaign, StopFlagInterruptsBeforeNewCells) {
  const auto grid = small_grid();
  std::atomic<bool> stop{true};
  CampaignConfig config = sandbox_config(1);
  config.stop = &stop;
  const auto result = CampaignRunner(config).run(grid);
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.harness_faults, 0u);
}

// --- Graceful persistence degradation ---

TEST(CampaignPersistence, JournalEnospcDegradesToInMemoryCompletion) {
  const auto dir = scratch_dir("ckpt-enospc");
  const std::string journal = (dir / "campaign.ckpt").string();
  const auto grid = small_grid();
  const auto reference = CampaignRunner(small_config(1)).run(grid);

  // First cell append succeeds, the second hits ENOSPC (permanent: no
  // retry). The campaign must finish every cell in memory, surface the
  // persistence error once, and stop hammering the journal.
  const FailpointGuard guard("checkpoint_append:errno=ENOSPC:after=1");
  CampaignConfig config = small_config(1);
  config.checkpoint_path = journal;
  const auto degraded = CampaignRunner(config).run(grid);

  EXPECT_TRUE(degraded.complete);
  EXPECT_NE(degraded.persistence_error.find("checkpoint_append"),
            std::string::npos);
  EXPECT_EQ(canonical_result_bytes(degraded),
            canonical_result_bytes(reference));

  // The journal holds exactly the one append that succeeded — and is
  // still a valid resume point once space returns.
  failpoints::clear();
  auto reopened = CampaignRunner(config).run(grid);
  EXPECT_TRUE(reopened.complete);
  EXPECT_EQ(reopened.cells_resumed, 1u);
  EXPECT_TRUE(reopened.persistence_error.empty());
  EXPECT_EQ(canonical_result_bytes(reopened),
            canonical_result_bytes(reference));
}

// --- Grid-lease loss detection ---

GridLeaseConfig lease_config(const fs::path& dir, const std::string& shard,
                             std::size_t cells, std::size_t range_size,
                             double ttl = 30.0) {
  GridLeaseConfig config;
  config.dir = dir.string();
  config.shard_id = shard;
  config.total_cells = cells;
  config.range_size = range_size;
  config.ttl_seconds = ttl;
  config.fingerprint = 0x5EED;
  return config;
}

/// heartbeat() throttles itself to ttl/4 since the last refresh; with
/// the test ttl of 2s, waiting 0.6s makes the next call actually sweep
/// (while freshly-written lease files, well under 2s old, stay live
/// for staleness purposes).
void outwait_heartbeat_throttle() {
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
}

TEST(GridLease, HeartbeatDetectsAStolenLeaseAndAbandonsTheRange) {
  const auto dir = scratch_dir("lease-stolen");
  auto gate = GridLease::open(lease_config(dir, "a", 8, 4, 2.0));
  ASSERT_TRUE(gate.ok());
  ASSERT_TRUE(gate.value()->try_claim(0));
  ASSERT_TRUE(gate.value()->holds(0));

  // A peer reclaimed the lease after a stall: the file now names them.
  {
    std::ofstream out(gate.value()->lease_path(0), std::ios::trunc);
    out << "thief";
  }
  outwait_heartbeat_throttle();
  gate.value()->heartbeat();
  EXPECT_EQ(gate.value()->stats().lost_leases, 1u);
  EXPECT_FALSE(gate.value()->holds(0));
  // The shard no longer claims inside the lost range (the thief's
  // lease is fresh, so it is not reclaimable either).
  EXPECT_FALSE(gate.value()->try_claim(1));
}

TEST(GridLease, HeartbeatTreatsAnUnwritableLeaseAsLost) {
  const auto dir = scratch_dir("lease-unwritable");
  auto gate = GridLease::open(lease_config(dir, "a", 8, 4, 2.0));
  ASSERT_TRUE(gate.ok());
  ASSERT_TRUE(gate.value()->try_claim(0));

  const FailpointGuard guard("lease_heartbeat:errno=EACCES");
  outwait_heartbeat_throttle();
  gate.value()->heartbeat();
  EXPECT_EQ(gate.value()->stats().lost_leases, 1u);
  EXPECT_FALSE(gate.value()->holds(0));
}

TEST(GridLease, ReleaseHeldFreesLeasesButKeepsDoneMarkers) {
  const auto dir = scratch_dir("lease-release");
  auto gate = GridLease::open(lease_config(dir, "a", 8, 4));
  ASSERT_TRUE(gate.ok());
  ASSERT_TRUE(gate.value()->try_claim(0));  // range 0, kept in-flight
  ASSERT_TRUE(gate.value()->try_claim(4));  // range 1, completed below
  // Completing range 1 publishes its done marker and releases its lease
  // eagerly, so only the in-flight range is left to hand off.
  for (std::size_t i = 4; i < 8; ++i) gate.value()->completed(i);

  EXPECT_EQ(gate.value()->release_held(), 1u);
  EXPECT_FALSE(fs::exists(gate.value()->lease_path(0)));
  EXPECT_FALSE(gate.value()->holds(0));
  // Done markers are final: a peer adopting the directory skips range 1
  // and can immediately claim range 0.
  auto peer = GridLease::open(lease_config(dir, "b", 8, 4));
  ASSERT_TRUE(peer.ok());
  EXPECT_TRUE(peer.value()->try_claim(0));
  EXPECT_FALSE(peer.value()->try_claim(4));
}

}  // namespace
}  // namespace iris::campaign
