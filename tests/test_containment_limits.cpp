// Tests for containment beyond the cell boundary (PR 9): per-cell
// resource limits (rlimit kills classified as ResourceExhausted, never
// shard death), structured model-layer faults delivered over the
// sandbox result pipe, and the poison-aware re-probe scheduler with its
// journal records — all proven deterministic across kill/resume and
// multi-journal reduce.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/reducer.h"
#include "fuzz/campaign.h"
#include "support/failpoints.h"
#include "support/model_fault.h"
#include "support/telemetry.h"

namespace iris::campaign {
namespace {

namespace fs = std::filesystem;
namespace failpoints = support::failpoints;
namespace modelfault = support::modelfault;
using fuzz::CampaignConfig;
using fuzz::CampaignRunner;
using fuzz::HarnessFault;
using guest::Workload;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("iris-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

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

// --- New failpoint actions ---

TEST(FailpointActions, AllocActionCarriesTheByteAmount) {
  const FailpointGuard guard("probe:alloc=268435456");
  const auto hit = failpoints::evaluate("probe");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->action, failpoints::Hit::Action::kAlloc);
  EXPECT_EQ(hit->amount, 268435456u);
}

TEST(FailpointActions, ModelSitesArmOnlyForModelPrefixedRules) {
  EXPECT_FALSE(failpoints::model_sites_armed());
  {
    const FailpointGuard guard("cell_exec:signal=KILL");
    EXPECT_FALSE(failpoints::model_sites_armed());
  }
  {
    const FailpointGuard guard("model_vmentry:modelfault:cell=3");
    EXPECT_TRUE(failpoints::model_sites_armed());
    const auto miss = failpoints::evaluate("model_vmentry", 2);
    EXPECT_FALSE(miss.has_value());
    const auto hit = failpoints::evaluate("model_vmentry", 3);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->action, failpoints::Hit::Action::kModelFault);
  }
  EXPECT_FALSE(failpoints::model_sites_armed());
}

TEST(FailpointActions, MalformedAllocAmountIsRejected) {
  const auto status = failpoints::configure("probe:alloc=lots");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, 91);
  EXPECT_FALSE(failpoints::active());
}

/// Sets IRIS_FAILPOINTS for the death tests of one test body. The
/// "threadsafe" style re-executes this binary for each death test, so
/// the statement runs in a process that held the variable from its
/// first instruction, the way a tool launched with it does.
class EnvFailpoints {
 public:
  explicit EnvFailpoints(const char* spec)
      : style_(::testing::GTEST_FLAG(death_test_style)) {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ::setenv("IRIS_FAILPOINTS", spec, 1);
  }
  ~EnvFailpoints() {
    ::unsetenv("IRIS_FAILPOINTS");
    ::testing::GTEST_FLAG(death_test_style) = style_;
  }
  EnvFailpoints(const EnvFailpoints&) = delete;
  EnvFailpoints& operator=(const EnvFailpoints&) = delete;

 private:
  std::string style_;
};

TEST(FailpointActions, EnvironmentArmsModelSitesBeforeTheFirstGate) {
  // A model site's inline gate is the first failpoint read of this
  // process: the environment's rule must already be armed behind it.
  const EnvFailpoints env("model_vmentry:modelfault:count=1");
  EXPECT_DEATH(
      modelfault::check_site("model_vmentry", modelfault::Layer::kVmEntry),
      "fatal uncontained model fault in vmentry");
}

TEST(FailpointActions, ExplicitConfigureReplacesTheEnvironmentRules) {
  // A tool's --failpoints flag configures after startup; the first gate
  // read afterwards must see that table, not the environment's.
  const EnvFailpoints env("corpus_read:errno=EIO");
  EXPECT_EXIT(
      {
        const bool configured =
            failpoints::configure("cell_exec:signal=KILL:cell=4:count=1").ok();
        const bool cell_fires = failpoints::active() &&
                                failpoints::evaluate("cell_exec", 4).has_value();
        const bool env_fires = failpoints::evaluate("corpus_read").has_value();
        std::_Exit(configured && cell_fires && !env_fires ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// --- RLIMIT_AS support gate ---

TEST(RlimitSupport, MatchesTheSanitizerBuildConfiguration) {
  // ASan and TSan builds reserve terabytes of shadow address space; an
  // RLIMIT_AS cap would kill every cell at startup, so the runner must
  // report the cap unusable there and usable everywhere else.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  EXPECT_FALSE(fuzz::rlimit_as_supported());
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  EXPECT_FALSE(fuzz::rlimit_as_supported());
#else
  EXPECT_TRUE(fuzz::rlimit_as_supported());
#endif
#else
  EXPECT_TRUE(fuzz::rlimit_as_supported());
#endif
}

// --- Model fault wire format ---

TEST(ModelFaultRecord, RoundTripsThroughTheWireFormat) {
  modelfault::ModelFault fault;
  fault.layer = modelfault::Layer::kEptWalk;
  fault.code = 42;
  fault.message = "EPT walk reached an unmapped PML4 slot";

  ByteWriter w;
  modelfault::serialize_model_fault(fault, w);
  ByteReader r(w.data());
  auto parsed = modelfault::deserialize_model_fault(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(parsed.value().layer, fault.layer);
  EXPECT_EQ(parsed.value().code, fault.code);
  EXPECT_EQ(parsed.value().message, fault.message);
  EXPECT_NE(parsed.value().describe().find("ept_walk"), std::string::npos);
}

TEST(ModelFaultRecord, RejectsTruncationAndBadLayers) {
  modelfault::ModelFault fault;
  fault.message = "x";
  ByteWriter w;
  modelfault::serialize_model_fault(fault, w);

  auto bytes = w.data();
  bytes.pop_back();
  ByteReader truncated(bytes);
  auto short_parse = modelfault::deserialize_model_fault(truncated);
  ASSERT_FALSE(short_parse.ok());
  EXPECT_EQ(short_parse.error().code, 88);

  ByteWriter w2;
  w2.u8(modelfault::kNumLayers);  // first invalid layer value
  w2.u32(0);
  w2.str("");
  ByteReader r2(w2.data());
  auto bad_parse = modelfault::deserialize_model_fault(r2);
  ASSERT_FALSE(bad_parse.ok());
  EXPECT_EQ(bad_parse.error().code, 89);
}

// --- Re-probe record wire format ---

TEST(ReprobeRecord, RoundTripsThroughTheWireFormat) {
  ReprobeRecord record;
  record.index = 11;
  record.round = 2;
  record.outcome = kReprobeRepoisoned;
  record.fault_kind =
      static_cast<std::uint8_t>(HarnessFault::Kind::kResourceExhausted);
  record.detail = failpoints::kResourceExhaustedExit;
  record.attempts_total = 5;
  record.message = "harness exceeded its memory resource limit (exit 9)";

  ByteWriter w;
  serialize_reprobe(record, w);
  ByteReader r(w.data());
  auto parsed = deserialize_reprobe(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(parsed.value().index, record.index);
  EXPECT_EQ(parsed.value().round, record.round);
  EXPECT_EQ(parsed.value().outcome, record.outcome);
  EXPECT_EQ(parsed.value().fault_kind, record.fault_kind);
  EXPECT_EQ(parsed.value().detail, record.detail);
  EXPECT_EQ(parsed.value().attempts_total, record.attempts_total);
  EXPECT_EQ(parsed.value().message, record.message);
}

TEST(ReprobeRecord, RejectsTruncationAndBadFields) {
  ReprobeRecord record;
  record.outcome = kReprobeRehabilitated;
  record.message = "x";
  ByteWriter w;
  serialize_reprobe(record, w);

  auto bytes = w.data();
  bytes.pop_back();
  ByteReader truncated(bytes);
  auto short_parse = deserialize_reprobe(truncated);
  ASSERT_FALSE(short_parse.ok());
  EXPECT_EQ(short_parse.error().code, 86);

  ReprobeRecord bad_outcome = record;
  bad_outcome.outcome = 7;
  ByteWriter w2;
  serialize_reprobe(bad_outcome, w2);
  ByteReader r2(w2.data());
  auto bad_parse = deserialize_reprobe(r2);
  ASSERT_FALSE(bad_parse.ok());
  EXPECT_EQ(bad_parse.error().code, 87);

  ReprobeRecord bad_kind = record;
  bad_kind.fault_kind = 200;
  ByteWriter w3;
  serialize_reprobe(bad_kind, w3);
  ByteReader r3(w3.data());
  auto kind_parse = deserialize_reprobe(r3);
  ASSERT_FALSE(kind_parse.ok());
  EXPECT_EQ(kind_parse.error().code, 87);
}

TEST(CampaignCheckpoint, ReprobeRecordsSurviveReopen) {
  const auto dir = scratch_dir("ckpt-reprobe-reopen");
  const std::string path = (dir / "campaign.ckpt").string();

  ReprobeRecord record;
  record.index = 4;
  record.round = 1;
  record.outcome = kReprobeRepoisoned;
  record.fault_kind = static_cast<std::uint8_t>(HarnessFault::Kind::kSignal);
  record.detail = SIGKILL;
  record.attempts_total = 3;
  record.message = "harness killed by signal 9";
  {
    auto ckpt = CampaignCheckpoint::open(path, 0xBEEF);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt.value().append_reprobe(record).ok());
  }
  auto reopened = CampaignCheckpoint::open(path, 0xBEEF);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened.value().reprobes().size(), 1u);
  EXPECT_EQ(reopened.value().reprobes()[0].index, 4u);
  EXPECT_EQ(reopened.value().reprobes()[0].attempts_total, 3u);
  EXPECT_EQ(reopened.value().reprobes()[0].message, record.message);
}

// --- Per-cell resource limits ---

TEST(ResourceLimits, MemoryBombIsKilledByRlimitAndQuarantined) {
  if (!fuzz::rlimit_as_supported()) {
    GTEST_SKIP() << "RLIMIT_AS unusable under a sanitizer build";
  }
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 2;
  const auto reference = CampaignRunner(small_config(1)).run(grid);

  // The victim cell allocates 8 GiB under a 2 GiB address-space cap:
  // the kernel (or the new-handler) kills the child, the fault is
  // classified as resource exhaustion, and the shard itself survives.
  const FailpointGuard guard("cell_exec:alloc=8589934592:cell=" +
                             std::to_string(victim));
  CampaignConfig config = sandbox_config(1);
  config.rlimit_as_mb = 2048;
  const auto result = CampaignRunner(config).run(grid);

  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.harness_faults, 2u);  // initial attempt + one retry
  EXPECT_EQ(result.rlimit_kills, 2u);
  ASSERT_EQ(result.poisoned_cells.size(), 1u);
  EXPECT_EQ(result.poisoned_cells[0].index, victim);
  EXPECT_EQ(result.poisoned_cells[0].fault.kind,
            HarnessFault::Kind::kResourceExhausted);
  EXPECT_EQ(result.poisoned_cells[0].fault.detail,
            failpoints::kResourceExhaustedExit);
  EXPECT_NE(result.poisoned_cells[0].fault.describe().find("resource limit"),
            std::string::npos);
  // Every other cell is byte-identical to the fault-free run.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i == victim) continue;
    EXPECT_EQ(result.results[i].ran, reference.results[i].ran) << i;
  }
}

TEST(ResourceLimits, GenerousLimitsKeepCleanCellsByteIdentical) {
  const auto grid = small_grid();
  const auto reference = CampaignRunner(small_config(1)).run(grid);
  ASSERT_TRUE(reference.complete);

  // Limits generous enough to never fire must be invisible: identical
  // bytes, zero faults — the knobs sit outside the fingerprint.
  CampaignConfig config = sandbox_config(1);
  config.rlimit_cpu_seconds = 300;
  if (fuzz::rlimit_as_supported()) config.rlimit_as_mb = 8192;
  config.rlimit_core_mb = 0;
  const auto limited = CampaignRunner(config).run(grid);
  ASSERT_TRUE(limited.complete);
  EXPECT_EQ(limited.harness_faults, 0u);
  EXPECT_EQ(limited.rlimit_kills, 0u);
  EXPECT_EQ(canonical_result_bytes(limited),
            canonical_result_bytes(reference));
}

/// CPU seconds the calling thread has used.
double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

TEST(ResourceLimits, CpuLimitIsPerCellNotPerChild) {
  if (!fuzz::rlimit_as_supported()) {
    GTEST_SKIP() << "a sanitizer build can spend a CPU-second on one cell";
  }
  // Each cell needs well under a CPU-second, but the grid as a whole
  // needs more than two, so a limit charged against a child that runs
  // several cells would SIGXCPU a clean cell.
  const auto grid = small_grid(350000);
  const double cpu_before = thread_cpu_seconds();
  const auto reference = CampaignRunner(small_config(1)).run(grid);
  const double reference_cpu = thread_cpu_seconds() - cpu_before;
  ASSERT_TRUE(reference.complete);
  ASSERT_GT(reference_cpu, 2.0) << "the grid no longer outlasts two limits";

  CampaignConfig config = sandbox_config(1);
  config.rlimit_cpu_seconds = 1;
  const auto limited = CampaignRunner(config).run(grid);
  EXPECT_EQ(limited.harness_faults, 0u);
  EXPECT_EQ(limited.rlimit_kills, 0u);
  ASSERT_TRUE(limited.complete);
  EXPECT_EQ(canonical_result_bytes(limited),
            canonical_result_bytes(reference));
}

// --- Model-layer fault injection ---

TEST(ModelFaults, RoundTripOverTheSandboxPipeQuarantinesTheCell) {
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 3;

  // A model-site failpoint fires inside the forked child on every
  // attempt; the structured fault must arrive in the parent with layer
  // and site intact, classified apart from harness deaths.
  const FailpointGuard guard("model_vmentry:modelfault:cell=" +
                             std::to_string(victim));
  const auto result = CampaignRunner(sandbox_config(1)).run(grid);

  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.harness_faults, 2u);
  EXPECT_EQ(result.model_faults, 2u);
  EXPECT_EQ(result.rlimit_kills, 0u);
  ASSERT_EQ(result.poisoned_cells.size(), 1u);
  EXPECT_EQ(result.poisoned_cells[0].index, victim);
  const HarnessFault& fault = result.poisoned_cells[0].fault;
  EXPECT_EQ(fault.kind, HarnessFault::Kind::kModelFault);
  EXPECT_NE(fault.describe().find("vmentry"), std::string::npos);
  EXPECT_NE(fault.describe().find("model_vmentry"), std::string::npos);
}

// --- Poison-aware re-probe scheduling ---

TEST(Reprobe, TransientPoisonIsRehabilitatedToIdenticalBytes) {
  const auto dir = scratch_dir("reprobe-rehab");
  const std::string journal = (dir / "campaign.ckpt").string();
  const std::string clean = (dir / "clean.ckpt").string();
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 2;
  const auto reference = CampaignRunner(small_config(1)).run(grid);
  ASSERT_TRUE(reference.complete);

  CampaignConfig config = sandbox_config(1);
  config.checkpoint_path = journal;
  config.reprobe_poisoned = true;

  // Both quarantine attempts are killed; the count-limited rule is then
  // spent, so the end-of-run re-probe's canary succeeds, the cell is
  // re-run at full fidelity, and the campaign completes byte-identical
  // to a fault-free run.
  {
    const FailpointGuard guard("cell_exec:signal=KILL:cell=" +
                               std::to_string(victim) + ":count=2");
    const auto result = CampaignRunner(config).run(grid);
    EXPECT_TRUE(result.complete);
    EXPECT_TRUE(result.poisoned_cells.empty());
    EXPECT_EQ(result.harness_faults, 2u);
    EXPECT_EQ(result.cells_reprobed, 1u);
    EXPECT_EQ(result.cells_rehabilitated, 1u);
    EXPECT_EQ(canonical_result_bytes(result),
              canonical_result_bytes(reference));
  }

  // Kill/resume determinism: a resumed run adopts the rehabilitated
  // cell from the journal like any clean cell.
  const auto resumed = CampaignRunner(config).run(grid);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.cells_resumed, grid.size());
  EXPECT_EQ(resumed.harness_faults, 0u);
  EXPECT_EQ(canonical_result_bytes(resumed),
            canonical_result_bytes(reference));

  // Reduce determinism: the rehabilitated journal alone, and alongside
  // an independent clean shard (exercising duplicate-cell checksums
  // against the full-fidelity re-run), both reduce byte-identical.
  auto report = reduce_journals({journal}, grid, config);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report.value().result.complete);
  EXPECT_EQ(report.value().reprobe_records, 1u);
  EXPECT_EQ(report.value().rehabilitated, 1u);
  EXPECT_TRUE(report.value().poisoned.empty());
  EXPECT_EQ(canonical_result_bytes(report.value().result),
            canonical_result_bytes(reference));

  CampaignConfig clean_config = sandbox_config(1);
  clean_config.checkpoint_path = clean;
  const auto clean_run = CampaignRunner(clean_config).run(grid);
  ASSERT_TRUE(clean_run.complete);
  auto merged = reduce_journals({journal, clean}, grid, config);
  ASSERT_TRUE(merged.ok()) << merged.error().message;
  EXPECT_TRUE(merged.value().result.complete);
  EXPECT_EQ(merged.value().duplicate_cells, grid.size());
  EXPECT_EQ(canonical_result_bytes(merged.value().result),
            canonical_result_bytes(reference));
}

TEST(Reprobe, PersistentPoisonIsRepoisonedWithAttemptHistory) {
  const auto dir = scratch_dir("reprobe-repoison");
  const std::string journal = (dir / "campaign.ckpt").string();
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 2;
  const auto reference = CampaignRunner(small_config(1)).run(grid);

  CampaignConfig config = sandbox_config(1);
  config.checkpoint_path = journal;
  config.reprobe_poisoned = true;

  // The fault never clears: quarantine (2 attempts), then a failed
  // re-probe canary re-poisons with the cumulative attempt count.
  {
    const FailpointGuard guard("cell_exec:signal=KILL:cell=" +
                               std::to_string(victim));
    const auto result = CampaignRunner(config).run(grid);
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.cells_reprobed, 1u);
    EXPECT_EQ(result.cells_rehabilitated, 0u);
    ASSERT_EQ(result.poisoned_cells.size(), 1u);
    EXPECT_EQ(result.poisoned_cells[0].index, victim);
    EXPECT_EQ(result.poisoned_cells[0].attempts, 3u);

    // A resumed run under the same fault re-probes again (round 2) and
    // extends the journaled history.
    const auto again = CampaignRunner(config).run(grid);
    EXPECT_FALSE(again.complete);
    EXPECT_EQ(again.cells_reprobed, 1u);
    ASSERT_EQ(again.poisoned_cells.size(), 1u);
    EXPECT_EQ(again.poisoned_cells[0].attempts, 4u);

    // The reducer folds the re-probe history into the surviving
    // quarantine instead of resurrecting the original attempt count.
    auto report = reduce_journals({journal}, grid, config);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_EQ(report.value().reprobe_records, 2u);
    EXPECT_EQ(report.value().rehabilitated, 0u);
    ASSERT_EQ(report.value().poisoned.size(), 1u);
    EXPECT_EQ(report.value().poisoned[0].attempts, 4u);
  }

  // Once the fault clears, the next resume's re-probe rehabilitates and
  // the campaign converges on the fault-free bytes.
  const auto healed = CampaignRunner(config).run(grid);
  EXPECT_TRUE(healed.complete);
  EXPECT_EQ(healed.cells_reprobed, 1u);
  EXPECT_EQ(healed.cells_rehabilitated, 1u);
  EXPECT_TRUE(healed.poisoned_cells.empty());
  EXPECT_EQ(canonical_result_bytes(healed),
            canonical_result_bytes(reference));
}

TEST(Reprobe, ResumedRunsNumberRoundsAfterTheJournaledHistory) {
  const auto dir = scratch_dir("reprobe-rounds");
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 2;
  CampaignConfig config = sandbox_config(1);
  config.checkpoint_path = (dir / "campaign.ckpt").string();
  config.reprobe_poisoned = true;

  // Every run re-probes the journaled quarantine once more and fails.
  const FailpointGuard guard("cell_exec:signal=KILL:cell=" +
                             std::to_string(victim));
  for (int run = 0; run < 3; ++run) (void)CampaignRunner(config).run(grid);
  auto journal = CampaignCheckpoint::open(config.checkpoint_path,
                                          campaign_fingerprint(grid, config));
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  ASSERT_EQ(journal.value().reprobes().size(), 3u);
  for (std::uint32_t k = 0; k < 3; ++k) {
    const ReprobeRecord& round = journal.value().reprobes()[k];
    EXPECT_EQ(round.index, victim);
    EXPECT_EQ(round.round, k + 1);
    EXPECT_EQ(round.attempts_total, 3 + k);
    EXPECT_EQ(round.outcome, kReprobeRepoisoned);
  }
}

TEST(Reprobe, EnospcOnTheReprobeRecordDegradesTheJournalOnce) {
  const auto dir = scratch_dir("reprobe-enospc");
  const std::string trace_path = (dir / "trace.jsonl").string();
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 2;
  const auto reference = CampaignRunner(small_config(1)).run(grid);

  CampaignConfig config = sandbox_config(1);
  config.checkpoint_path = (dir / "campaign.ckpt").string();
  config.reprobe_poisoned = true;

  // Every clean cell and the quarantine append first; the next append is
  // the re-probe record, and it hits ENOSPC. The rehabilitated cell's
  // record after it finds the journal already degraded.
  {
    const FailpointGuard guard(
        "cell_exec:signal=KILL:count=2:cell=" + std::to_string(victim) +
        ";checkpoint_append:errno=ENOSPC:after=" + std::to_string(grid.size()));
    ASSERT_TRUE(support::set_trace_path(trace_path, "enospc").ok());
    const auto result = CampaignRunner(config).run(grid);
    ASSERT_TRUE(support::set_trace_path("").ok());
    EXPECT_EQ(result.cells_rehabilitated, 1u);
    EXPECT_NE(result.persistence_error.find("checkpoint_append"),
              std::string::npos)
        << result.persistence_error;
    EXPECT_EQ(canonical_result_bytes(result),
              canonical_result_bytes(reference));
  }
  auto traced = support::read_trace(trace_path);
  ASSERT_TRUE(traced.ok()) << traced.error().message;
  std::size_t degrades = 0;
  for (const auto& event : traced.value().events) {
    if (event.event == "degrade") ++degrades;
  }
  EXPECT_EQ(degrades, 1u);

  auto journal = CampaignCheckpoint::open_readonly(
      config.checkpoint_path, campaign_fingerprint(grid, config));
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  EXPECT_EQ(journal.value().poisons().size(), 1u);
  EXPECT_TRUE(journal.value().reprobes().empty());
}

// --- One journal format ---

/// Journal of a sandboxed, re-probing campaign whose `victim` cell is
/// quarantined and then re-poisoned by its re-probe: it holds clean
/// cell, poison and re-probe records.
std::string write_reprobe_journal(const fs::path& dir,
                                  const std::vector<fuzz::TestCaseSpec>& grid,
                                  std::size_t victim) {
  const std::string path = (dir / "source.ckpt").string();
  CampaignConfig config = sandbox_config(1);
  config.checkpoint_path = path;
  config.reprobe_poisoned = true;
  const FailpointGuard guard("cell_exec:signal=KILL:cell=" +
                             std::to_string(victim));
  const auto result = CampaignRunner(config).run(grid);
  EXPECT_TRUE(result.persistence_error.empty()) << result.persistence_error;
  EXPECT_EQ(result.cells_reprobed, 1u);
  EXPECT_EQ(result.poisoned_cells.size(), 1u);
  return path;
}

/// Overwrite the journal header's version field (u16 after the magic).
void set_header_version(const std::string& path, std::uint16_t version) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(4);
  const char bytes[2] = {static_cast<char>(version & 0xFF),
                         static_cast<char>(version >> 8)};
  file.write(bytes, sizeof(bytes));
  ASSERT_TRUE(file.good());
}

TEST(OneJournalFormat, SandboxReprobeJournalResumesPlainAndReduces) {
  const auto dir = scratch_dir("journal-plain-resume");
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 2;
  const std::string journal = write_reprobe_journal(dir, grid, victim);

  CampaignConfig plain = small_config(1);
  auto opened = CampaignCheckpoint::open_readonly(
      journal, campaign_fingerprint(grid, plain));
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  EXPECT_EQ(opened.value().cells().size(), grid.size() - 1);
  EXPECT_EQ(opened.value().poisons().size(), 1u);
  EXPECT_EQ(opened.value().reprobes().size(), 1u);

  // An in-process writer resumes it with the quarantine intact: the
  // victim keeps its re-probe attempt history and is never re-executed.
  plain.checkpoint_path = journal;
  const auto resumed = CampaignRunner(plain).run(grid);
  EXPECT_TRUE(resumed.persistence_error.empty()) << resumed.persistence_error;
  EXPECT_FALSE(resumed.complete);
  EXPECT_EQ(resumed.cells_resumed, grid.size() - 1);
  ASSERT_EQ(resumed.poisoned_cells.size(), 1u);
  EXPECT_EQ(resumed.poisoned_cells[0].index, victim);
  EXPECT_EQ(resumed.poisoned_cells[0].attempts, 3u);

  plain.checkpoint_path.clear();
  auto report = reduce_journals({journal}, grid, plain);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().reprobe_records, 1u);
  ASSERT_EQ(report.value().poisoned.size(), 1u);
  EXPECT_EQ(report.value().poisoned[0].attempts, 3u);
  EXPECT_EQ(canonical_result_bytes(report.value().result),
            canonical_result_bytes(resumed));
}

TEST(OneJournalFormat, EveryWriterOpensHeaderVersionsTwoThroughFive) {
  const auto dir = scratch_dir("journal-versions");
  const auto grid = small_grid();
  const std::size_t victim = grid.size() / 2;
  const std::string source = write_reprobe_journal(dir, grid, victim);
  const auto reference = CampaignRunner(small_config(1)).run(grid);
  const auto fingerprint = campaign_fingerprint(grid, small_config(1));

  auto copy_as = [&](std::uint16_t version, const std::string& tag) {
    const std::string path =
        (dir / ("v" + std::to_string(version) + tag + ".ckpt")).string();
    fs::copy_file(source, path, fs::copy_options::overwrite_existing);
    set_header_version(path, version);
    return path;
  };

  CampaignConfig contained = sandbox_config(1);
  contained.reprobe_poisoned = true;
  for (const std::uint16_t version : {2, 3, 4, 5}) {
    for (const bool sandboxed : {false, true}) {
      SCOPED_TRACE("version=" + std::to_string(version) +
                   " sandboxed=" + std::to_string(sandboxed));
      const std::string path = copy_as(version, sandboxed ? "s" : "p");
      auto opened = CampaignCheckpoint::open(path, fingerprint);
      ASSERT_TRUE(opened.ok()) << opened.error().message;
      EXPECT_EQ(opened.value().poisons().size(), 1u);
      EXPECT_EQ(opened.value().reprobes().size(), 1u);

      // The plain writer keeps the quarantine; the sandbox+reprobe
      // writer re-probes it with the fault gone and rehabilitates it to
      // the fault-free bytes.
      CampaignConfig config = sandboxed ? contained : small_config(1);
      config.checkpoint_path = path;
      const auto result = CampaignRunner(config).run(grid);
      EXPECT_TRUE(result.persistence_error.empty())
          << result.persistence_error;
      EXPECT_EQ(result.cells_resumed, grid.size() - 1);
      EXPECT_EQ(result.complete, sandboxed);
      if (sandboxed) {
        EXPECT_EQ(canonical_result_bytes(result),
                  canonical_result_bytes(reference));
      }
    }
  }
  for (const std::uint16_t version : {1, 6}) {
    auto opened = CampaignCheckpoint::open(copy_as(version, ""), fingerprint);
    ASSERT_FALSE(opened.ok()) << "version " << version;
    EXPECT_EQ(opened.error().code, 64);
  }
}

}  // namespace
}  // namespace iris::campaign
