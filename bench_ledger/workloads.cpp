#include "workloads.h"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#include "campaign/distributed.h"
#include "campaign/monitor.h"
#include "campaign/reducer.h"
#include "fuzz/vm_pool.h"
#include "iris/analysis.h"
#include "iris/manager.h"
#include "replica.h"
#include "support/fs_atomic.h"
#include "support/serialize.h"
#include "support/telemetry.h"

namespace ledger {

void RunContext::mismatch(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

namespace {

namespace fs = std::filesystem;
using namespace iris;

// Input sizes (README.md, "Workloads"): fixed, so any two commits do
// identical work per round.
constexpr std::size_t kHotMutants = 100'000;
constexpr std::uint64_t kHotRecordExits = 500;
constexpr std::size_t kContainedMutants = 5'000;
constexpr std::uint64_t kContainedRecordExits = 2'000;
constexpr std::size_t kContainedWorkers = 2;
constexpr double kContainedStatusSeconds = 0.25;
constexpr std::uint64_t kPipelineExits = 20'000;
/// The paper's modeled asynchronous-event noise (Fig 7) for the
/// record/replay pipeline; deterministic for a given seed.
constexpr double kPipelineNoise = 0.02;

constexpr guest::Workload kContainedWorkloads[] = {
    guest::Workload::kOsBoot, guest::Workload::kCpuBound, guest::Workload::kIdle};
constexpr guest::Workload kAllWorkloads[] = {
    guest::Workload::kOsBoot, guest::Workload::kCpuBound, guest::Workload::kMemBound,
    guest::Workload::kIoBound, guest::Workload::kIdle};

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Exits a campaign handled: every recorded behavior plus, per cell that
/// reached s1, its walk, its baseline seed and its mutants.
double campaign_exits(const fuzz::CampaignResult& result, double recorded) {
  double exits = recorded;
  for (const auto& cell : result.results) {
    if (cell.ran) exits += static_cast<double>(cell.target_index + 1 + cell.executed);
  }
  return exits;
}

/// Harness faults, quarantined cells, persistence errors, incomplete
/// results. Crashing mutants are findings, not failures.
std::size_t campaign_failures(const fuzz::CampaignResult& result) {
  std::size_t failed = result.harness_faults + result.poisoned_cells.size();
  if (!result.persistence_error.empty()) ++failed;
  if (!result.complete) ++failed;
  return failed;
}

void fill_campaign(RoundOutcome& out, const fuzz::CampaignResult& result,
                   double recorded_exits) {
  out.hash = result_hash(result);
  out.exits = campaign_exits(result, recorded_exits);
  out.attempted = result.results.size();
  out.failed = campaign_failures(result);
  out.extra["mutants_per_s|1/s"] = static_cast<double>(result.executed) / out.wall_s;
  out.extra["cells_per_s|1/s"] = static_cast<double>(result.results.size()) / out.wall_s;
  out.oracle["result_fnv"] = hex64(out.hash);
}

/// A pass-through cell gate that timestamps every claim. With one
/// in-process worker, consecutive claims bracket consecutive cells, so
/// the dark runner's per-cell latency is observable without lighting any
/// of its telemetry.
class CellClock final : public fuzz::CellGate {
 public:
  bool try_claim(std::size_t) override {
    claims_.push_back(now_ns());
    return true;
  }
  void completed(std::size_t) override {}
  void heartbeat() override {}

  [[nodiscard]] std::vector<double> cell_ms(std::int64_t run_end_ns) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < claims_.size(); ++i) {
      const std::int64_t end = i + 1 < claims_.size() ? claims_[i + 1] : run_end_ns;
      out.push_back(ms_between(claims_[i], end));
    }
    return out;
  }

 private:
  std::vector<std::int64_t> claims_;
};

// --- table1-hot -----------------------------------------------------------

class Table1Hot final : public Workload {
 public:
  explicit Table1Hot(RunContext& ctx)
      : grid_(fuzz::make_table1_grid({guest::Workload::kCpuBound}, kHotMutants,
                                     ctx.seed)) {
    config_.workers = 1;
    config_.hv_seed = ctx.seed;
    config_.record_exits = kHotRecordExits;
    config_.record_seed = ctx.seed;
  }

  [[nodiscard]] std::size_t fixed_rounds() const override { return 12; }

  double setup() override {
    const std::int64_t started = now_ns();
    fuzz::PooledVm vm(config_.hv_seed, config_.async_noise_prob);
    (void)vm.manager().dummy_vm();
    (void)vm.manager().record_workload(guest::Workload::kCpuBound, config_.record_exits,
                                       config_.record_seed);
    return seconds_between(started, now_ns());
  }

  RoundOutcome round() override {
    CellClock clock;
    fuzz::CampaignConfig config = config_;
    config.gate = &clock;
    const std::int64_t started = now_ns();
    const auto result = fuzz::CampaignRunner(config).run(grid_);
    const std::int64_t done = now_ns();
    RoundOutcome out;
    out.wall_s = seconds_between(started, done);
    out.cell_ms = clock.cell_ms(done);
    fill_campaign(out, result, static_cast<double>(config_.record_exits));
    return out;
  }

  RoundOutcome traced_round(Tracer& tracer) override {
    tracer.open("round", kResidual);
    const auto result = traced_campaign(grid_, config_, tracer);
    const std::int64_t hashing = ticks();
    const std::uint64_t hash = result_hash(result);
    tracer.add(kCanonical, ticks() - hashing);
    RoundOutcome out;
    out.wall_s = static_cast<double>(tracer.close()) * tick_ns() / 1e9;
    fill_campaign(out, result, static_cast<double>(config_.record_exits));
    out.hash = hash;
    return out;
  }

 private:
  fuzz::CampaignConfig config_;
  std::vector<fuzz::TestCaseSpec> grid_;
};

// --- campaign-contained ---------------------------------------------------

/// Per-round deltas of the process-wide metrics registry.
struct RegistryDelta {
  support::MetricsSnapshot before = support::metrics().snapshot();

  struct Histogram {
    double count = 0.0;
    double sum = 0.0;
  };
  [[nodiscard]] Histogram histogram(const support::MetricsSnapshot& after,
                                    std::string_view name) const {
    Histogram h;
    for (const auto& hist : after.histograms) {
      if (hist.name == name) {
        h.count += static_cast<double>(hist.count);
        h.sum += hist.sum;
      }
    }
    for (const auto& hist : before.histograms) {
      if (hist.name == name) {
        h.count -= static_cast<double>(hist.count);
        h.sum -= hist.sum;
      }
    }
    return h;
  }
  [[nodiscard]] double counter(const support::MetricsSnapshot& after,
                               std::string_view name) const {
    return static_cast<double>(after.counter(name)) -
           static_cast<double>(before.counter(name));
  }
};

/// Cell latencies (the product's cell_done.wall_ms events) and the share
/// of worker time spent outside any cell, from a campaign trace stream.
void read_cell_trace(const std::string& path, std::size_t workers, RoundOutcome& out,
                     RunContext& ctx) {
  auto trace = support::read_trace(path);
  if (!trace.ok()) {
    ctx.mismatch("cannot read campaign trace " + path);
    ++out.failed;
    return;
  }
  std::map<double, double> started_at;  // cell -> cell_start timestamp
  double first_start = 0.0, last_done = 0.0, busy_us = 0.0;
  for (const auto& event : trace.value().events) {
    const auto cell = event.num("cell");
    if (!cell) continue;
    if (event.event == "cell_start") {
      if (started_at.empty() || event.ts_us < first_start) first_start = event.ts_us;
      started_at[*cell] = event.ts_us;
    } else if (event.event == "cell_done") {
      if (const auto wall = event.num("wall_ms")) out.cell_ms.push_back(*wall);
      if (const auto it = started_at.find(*cell); it != started_at.end()) {
        busy_us += event.ts_us - it->second;
      }
      last_done = std::max(last_done, event.ts_us);
    }
  }
  const double window_us = (last_done - first_start) * static_cast<double>(workers);
  out.layer["campaign.worker_idle_frac|ratio"] =
      window_us > 0.0 ? 1.0 - busy_us / window_us : 0.0;
}

class CampaignContained final : public Workload {
 public:
  explicit CampaignContained(RunContext& ctx)
      : ctx_(ctx),
        grid_(fuzz::make_table1_grid(
            {std::begin(kContainedWorkloads), std::end(kContainedWorkloads)},
            kContainedMutants, ctx.seed)) {
    config_.workers = kContainedWorkers;
    config_.hv_seed = ctx.seed;
    config_.record_exits = kContainedRecordExits;
    config_.record_seed = ctx.seed;
  }

  [[nodiscard]] std::size_t fixed_rounds() const override { return 30; }

  double setup() override {
    const std::int64_t started = now_ns();
    fuzz::PooledVm vm(config_.hv_seed, config_.async_noise_prob);
    (void)vm.manager().dummy_vm();
    for (const auto workload : kContainedWorkloads) {
      vm.reset();
      (void)vm.manager().record_workload(workload, config_.record_exits,
                                         config_.record_seed);
    }
    return seconds_between(started, now_ns());
  }

  /// One sandboxed, journaled, telemetry-on shard run in a fresh lease
  /// directory, then the reducer over its journal.
  RoundOutcome round() override {
    RoundOutcome out;
    const fs::path dir = fs::path(ctx_.dir) / ("round-" + std::to_string(rounds_++));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);

    fuzz::CampaignConfig config = config_;
    config.sandbox_cells = true;
    config.crash_archive_dir = (dir / "crashes").string();
    config.forensics_dir = (dir / "forensics").string();
    config.status_interval_seconds = kContainedStatusSeconds;
    campaign::ShardConfig shard;
    shard.lease_dir = (dir / "lease").string();
    shard.shard_id = "ledger";
    const std::string trace_path = (dir / "trace.jsonl").string();
    if (!support::set_trace_path(trace_path, shard.shard_id).ok()) {
      ctx_.mismatch("cannot open the trace stream " + trace_path);
    }

    const RegistryDelta registry;
    const std::int64_t started = now_ns();
    auto run = campaign::DistributedCampaign(shard, config).run(grid_);
    const std::int64_t done = now_ns();
    (void)support::set_trace_path("");
    const auto after = support::metrics().snapshot();
    out.wall_s = seconds_between(started, done);
    if (!run.ok()) {
      ctx_.mismatch("shard run failed: " + run.error().message);
      out.attempted = grid_.size();
      out.failed = grid_.size();
      fs::remove_all(dir, ec);
      return out;
    }
    const fuzz::CampaignResult& result = run.value().result;
    fill_campaign(out, result, static_cast<double>(kContainedRecordExits * 3));

    // The reducer over the shard journal must rebuild the same campaign.
    const std::int64_t reducing = now_ns();
    auto reduced = campaign::reduce_journals(
        campaign::DistributedCampaign::shard_journals(shard.lease_dir), grid_, config_);
    const std::int64_t reduced_at = now_ns();
    const std::uint64_t reduced_hash =
        reduced.ok() ? result_hash(reduced.value().result) : 0;
    if (!reduced.ok() || !reduced.value().result.complete || reduced_hash != out.hash) {
      ctx_.mismatch("reduce_journals does not rebuild the shard's result");
      ++out.failed;
    }
    out.oracle["reduce_fnv"] = hex64(reduced_hash);
    if (!campaign::read_status_file(
             (fs::path(shard.lease_dir) / campaign::status_file_name(shard.shard_id))
                 .string())
             .ok()) {
      ctx_.mismatch("the shard published no readable status file");
      ++out.failed;
    }

    read_cell_trace(trace_path, kContainedWorkers, out, ctx_);
    const auto sandbox = registry.histogram(after, "sandbox.cell_us");
    const auto append = registry.histogram(after, "checkpoint.append_us");
    out.layer["campaign.sandbox_cell.calls|count"] = sandbox.count;
    out.layer["campaign.sandbox_cell.mean_us|us"] =
        sandbox.count > 0 ? sandbox.sum / sandbox.count : 0.0;
    out.layer["campaign.checkpoint_append.calls|count"] = append.count;
    out.layer["campaign.checkpoint_append.mean_us|us"] =
        append.count > 0 ? append.sum / append.count : 0.0;
    out.layer["campaign.reduce.self_us|us"] = static_cast<double>(reduced_at - reducing) / 1e3;
    out.layer["campaign.lease_claims|count"] =
        static_cast<double>(run.value().lease.claims);
    out.layer["support.trace_events|count"] = registry.counter(after, "trace.events");
    out.layer["support.trace_dropped|count"] = registry.counter(after, "trace.dropped");
    fs::remove_all(dir, ec);
    return out;
  }

  /// The same grid through the in-process runner (one worker, dark): what
  /// the traced replica reproduces, call for call.
  RoundOutcome reference_round() override {
    const std::int64_t started = now_ns();
    const auto result = fuzz::CampaignRunner(in_process_config()).run(grid_);
    RoundOutcome out;
    out.wall_s = seconds_between(started, now_ns());
    fill_campaign(out, result, static_cast<double>(kContainedRecordExits * 3));
    return out;
  }

  RoundOutcome traced_round(Tracer& tracer) override {
    RoundOutcome out = round();
    tracer.open("round", kResidual);
    const auto result = traced_campaign(grid_, in_process_config(), tracer);
    const std::int64_t hashing = ticks();
    const std::uint64_t hash = result_hash(result);
    tracer.add(kCanonical, ticks() - hashing);
    out.wall_s = static_cast<double>(tracer.close()) * tick_ns() / 1e9;
    if (hash != out.hash) {
      ctx_.mismatch("in-process replica differs from the sandboxed shard run");
    }
    const Tally& body = tracer.phases()[kCellBody];
    const double body_mean_us = body.calls > 0 ? static_cast<double>(body.ticks) * tick_ns() /
                                                     1e3 / static_cast<double>(body.calls)
                                               : 0.0;
    out.layer["campaign.sandbox_overhead_us|us"] =
        out.layer["campaign.sandbox_cell.mean_us|us"] - body_mean_us;
    return out;
  }

 private:
  [[nodiscard]] fuzz::CampaignConfig in_process_config() const {
    fuzz::CampaignConfig config = config_;
    config.workers = 1;
    return config;
  }

  RunContext& ctx_;
  fuzz::CampaignConfig config_;
  std::vector<fuzz::TestCaseSpec> grid_;
  std::size_t rounds_ = 0;
};

// --- record-replay --------------------------------------------------------

class RecordReplay final : public Workload {
 public:
  explicit RecordReplay(RunContext& ctx) : ctx_(ctx) {}

  [[nodiscard]] std::size_t fixed_rounds() const override { return 20; }

  /// One stack per guest workload: hypervisor, manager, launched test VM
  /// with its start-of-recording snapshot, launched dummy VM.
  double setup() override {
    stacks_.clear();
    const std::int64_t started = now_ns();
    for (const auto workload : kAllWorkloads) {
      Stack stack;
      stack.workload = workload;
      stack.hv = std::make_unique<hv::Hypervisor>(ctx_.seed, kPipelineNoise);
      stack.manager = std::make_unique<Manager>(*stack.hv);
      stack.manager->save_test_snapshot();
      (void)stack.manager->dummy_vm();
      stacks_.push_back(std::move(stack));
    }
    return seconds_between(started, now_ns());
  }

  RoundOutcome round() override {
    if (stacks_.empty()) (void)setup();
    RoundOutcome out;
    Totals totals;
    std::vector<Pipeline> pipelines;
    for (Stack& stack : stacks_) {
      const std::string name(guest::to_string(stack.workload));
      const std::string path = (fs::path(ctx_.dir) / (name + ".seeddb")).string();
      Pipeline p;
      const std::int64_t started = now_ns();
      {
        Manager& manager = *stack.manager;
        std::int64_t t = started;
        std::uint64_t cycles = stack.hv->clock().rdtsc();
        const VmBehavior& recorded =
            manager.record_workload(stack.workload, kPipelineExits, ctx_.seed);
        p.record_cycles = stack.hv->clock().rdtsc() - cycles;
        std::int64_t next = now_ns();
        totals.record_s += seconds_between(t, next);
        const Status saved = manager.db().save_file(path);
        t = now_ns();
        totals.save_s += seconds_between(next, t);
        auto loaded = SeedDb::load_file(path);
        next = now_ns();
        totals.load_s += seconds_between(t, next);
        const VmBehavior* reloaded = loaded.ok() ? loaded.value().behavior(name) : nullptr;
        ReplayedBehavior replayed;
        replayed.aborted = true;
        cycles = stack.hv->clock().rdtsc();
        if (reloaded != nullptr) {
          manager.revert_dummy_to_test_snapshot();
          replayed = manager.replay_and_record(*reloaded);
        }
        p.replay_cycles = stack.hv->clock().rdtsc() - cycles;
        totals.replay_s += seconds_between(next, now_ns());
        const auto report =
            analyze_accuracy(stack.hv->coverage(), recorded, replayed.behavior);
        p.fit_pct = report.coverage_fit_pct;
        p.record_exits = recorded.size();
        p.replay_exits = replayed.outcomes.size();
        p.ok = saved.ok() && reloaded != nullptr && !replayed.aborted &&
               p.replay_exits == p.record_exits;
      }  // the pipeline's temporaries are freed inside the timed span
      const std::int64_t done = now_ns();
      out.cell_ms.push_back(ms_between(started, done));
      out.wall_s += seconds_between(started, done);
      totals.record_exits += static_cast<double>(p.record_exits);
      totals.replay_exits += static_cast<double>(p.replay_exits);
      // The round digest covers the bytes the product saved.
      const auto saved_bytes = read_file_bytes(path);
      p.ok = p.ok && saved_bytes.ok();
      p.db_hash = saved_bytes.ok() ? fnv1a(saved_bytes.value()) : 0;
      pipelines.push_back(p);
    }
    stacks_.clear();
    finish(out, pipelines);
    out.extra["record_exits_per_s|1/s"] = totals.record_exits / totals.record_s;
    out.extra["replay_exits_per_s|1/s"] = totals.replay_exits / totals.replay_s;
    out.extra["pipeline_exits_per_s|1/s"] =
        out.exits / (totals.record_s + totals.save_s + totals.load_s + totals.replay_s);
    return out;
  }

  RoundOutcome traced_round(Tracer& tracer) override {
    if (stacks_.empty()) (void)setup();
    RoundOutcome out;
    std::vector<Pipeline> pipelines;
    std::vector<std::vector<std::uint8_t>> saved_bytes;
    double load_bytes = 0.0;
    tracer.open("round", kResidual);
    for (Stack& stack : stacks_) {
      const std::string name(guest::to_string(stack.workload));
      const std::string file = name + ".seeddb";
      Pipeline p;
      std::vector<std::uint8_t> bytes;
      tracer.open("pipeline", kPipelineOther);
      {
        Manager& manager = *stack.manager;
        std::uint64_t cycles = stack.hv->clock().rdtsc();
        const VmBehavior& recorded = traced_record_workload(
            manager, stack.workload, kPipelineExits, ctx_.seed, tracer);
        p.record_cycles = stack.hv->clock().rdtsc() - cycles;

        // SeedDb::save_file = serialize + atomic publish.
        std::int64_t t = ticks();
        bytes = manager.db().serialize();
        std::int64_t next = ticks();
        tracer.add(kDbSerialize, next - t);
        const Status saved = write_file_atomic(ctx_.dir, file, bytes);
        const std::int64_t written = ticks();
        tracer.add(kDbWrite, written - next);
        tracer.add_phase(kDbSave, written - t);

        // SeedDb::load_file = read the file + deserialize.
        auto raw = read_file_bytes(fs::path(ctx_.dir) / file);
        next = ticks();
        tracer.add(kDbRead, next - written);
        std::optional<Result<SeedDb>> loaded;
        if (raw.ok()) loaded.emplace(SeedDb::deserialize(raw.value()));
        t = ticks();
        tracer.add(kDbDeserialize, t - next);
        tracer.add_phase(kDbLoad, t - written);
        if (raw.ok()) load_bytes += static_cast<double>(raw.value().size());

        const VmBehavior* reloaded =
            loaded && loaded->ok() ? loaded->value().behavior(name) : nullptr;
        ReplayedBehavior replayed;
        replayed.aborted = true;
        cycles = stack.hv->clock().rdtsc();
        if (reloaded != nullptr) {
          manager.revert_dummy_to_test_snapshot();
          tracer.add(kRevertDummy, ticks() - t);
          replayed = traced_replay_and_record(manager, *reloaded, tracer);
        }
        p.replay_cycles = stack.hv->clock().rdtsc() - cycles;
        t = ticks();
        const auto report =
            analyze_accuracy(stack.hv->coverage(), recorded, replayed.behavior);
        tracer.add(kAnalyze, ticks() - t);
        p.fit_pct = report.coverage_fit_pct;
        p.record_exits = recorded.size();
        p.replay_exits = replayed.outcomes.size();
        p.ok = saved.ok() && reloaded != nullptr && !replayed.aborted &&
               p.replay_exits == p.record_exits;
      }
      out.cell_ms.push_back(static_cast<double>(tracer.close()) * tick_ns() / 1e6);
      pipelines.push_back(p);
      saved_bytes.push_back(std::move(bytes));
    }
    out.wall_s = static_cast<double>(tracer.close()) * tick_ns() / 1e9;
    stacks_.clear();
    double save_bytes = 0.0;
    for (std::size_t i = 0; i < pipelines.size(); ++i) {
      pipelines[i].db_hash = fnv1a(saved_bytes[i]);
      save_bytes += static_cast<double>(saved_bytes[i].size());
    }
    finish(out, pipelines);
    const double save_s =
        static_cast<double>(tracer.phases()[kDbSave].ticks) * tick_ns() / 1e9;
    const double load_s =
        static_cast<double>(tracer.phases()[kDbLoad].ticks) * tick_ns() / 1e9;
    out.layer["iris.seed_db_save.bytes|bytes"] = save_bytes;
    out.layer["iris.seed_db_save.mb_per_s|MB/s"] = save_s > 0 ? save_bytes / 1e6 / save_s : 0;
    out.layer["iris.seed_db_load.bytes|bytes"] = load_bytes;
    out.layer["iris.seed_db_load.mb_per_s|MB/s"] = load_s > 0 ? load_bytes / 1e6 / load_s : 0;
    return out;
  }

 private:
  struct Stack {
    guest::Workload workload = guest::Workload::kOsBoot;
    std::unique_ptr<hv::Hypervisor> hv;
    std::unique_ptr<Manager> manager;
  };
  struct Pipeline {
    std::uint64_t record_cycles = 0;
    std::uint64_t replay_cycles = 0;
    double fit_pct = 0.0;
    std::size_t record_exits = 0;
    std::size_t replay_exits = 0;
    std::uint64_t db_hash = 0;
    bool ok = true;
  };
  /// Per-stage wall time and exits of the product round's pipelines.
  struct Totals {
    double record_s = 0.0, save_s = 0.0, load_s = 0.0, replay_s = 0.0;
    double record_exits = 0.0, replay_exits = 0.0;
  };

  /// Round accounting shared by the product and traced rounds: exits,
  /// failures, the digest every round must reproduce, pinned oracles.
  void finish(RoundOutcome& out, const std::vector<Pipeline>& pipelines) {
    ByteWriter digest;
    for (std::size_t i = 0; i < pipelines.size(); ++i) {
      const Pipeline& p = pipelines[i];
      const std::string name(guest::to_string(kAllWorkloads[i]));
      digest.u64(p.db_hash);
      digest.u64(p.record_cycles);
      digest.u64(p.replay_cycles);
      digest.u64(std::bit_cast<std::uint64_t>(p.fit_pct));
      out.exits += static_cast<double>(p.record_exits + p.replay_exits);
      ++out.attempted;
      if (!p.ok) {
        ++out.failed;
        ctx_.mismatch(name + ": record/save/load/replay pipeline did not complete");
      }
      char fit[32];
      std::snprintf(fit, sizeof(fit), "%.6f", p.fit_pct);
      out.oracle["seed_db_fnv." + name] = hex64(p.db_hash);
      out.oracle["record_cycles." + name] = std::to_string(p.record_cycles);
      out.oracle["replay_cycles." + name] = std::to_string(p.replay_cycles);
      out.oracle["coverage_fit_pct." + name] = fit;
    }
    out.hash = fnv1a(digest.data());
  }

  RunContext& ctx_;
  std::vector<Stack> stacks_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, RunContext& ctx) {
  if (name == kWorkloadNames[0]) return std::make_unique<Table1Hot>(ctx);
  if (name == kWorkloadNames[1]) return std::make_unique<CampaignContained>(ctx);
  if (name == kWorkloadNames[2]) return std::make_unique<RecordReplay>(ctx);
  return nullptr;
}

}  // namespace ledger
