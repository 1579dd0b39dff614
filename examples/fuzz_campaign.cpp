// Fuzz campaign example: the paper's §VII experiment as a program.
//
// Runs the Table I grid for a chosen workload through the sharded
// CampaignRunner — the runner records the workload once before its
// workers start; each worker thread then replays it to VMseed_R on its
// own pooled hypervisor and submits M single-bit-flip mutants; the
// orchestrator merges coverage, dedups crashes, and reports throughput.
// With the default async noise (0) the results are identical for any
// worker count.
//
// The persistence flags make the campaign survivable: with a
// checkpoint path, a killed run resumes where it stopped (to the same
// byte-identical result); with a cell budget, the run stops cleanly
// after N cells (exit code 3 = "more to do — run me again"); with an
// archive dir, every crash bucket gets a replayable reproducer for
// crash_triage. A persistence failure never poisons the in-memory
// results, but it is never silent either: the report still prints and
// the process exits 4.
//
// Distributed mode splits one grid across *processes*: every shard
// claims cell ranges through lease files in --lease-dir (grid-lease
// protocol, see src/campaign/grid_lease.h), journals its cells to its
// own checkpoint there, and `reduce` folds all shard journals into the
// single-process-identical campaign result. Kill a shard and relaunch
// it with the same --shard-of: it adopts its own leases and journal;
// leave it dead and its unfinished ranges expire after --lease-ttl for
// the surviving shards (or a later relaunch) to reclaim.
//
// Profile-matrix mode (--profiles baseline,strict-fixed-crs,...) runs
// the same Table I grid once per named VMX capability profile —
// identical mutant streams, divergent results where the modeled CPU's
// capabilities actually matter — and prints a per-profile result hash
// next to the campaign hash.
//
// Sandbox mode (--sandbox) runs each worker's cells in one long-lived,
// watchdog-supervised child forked for it: a harness death (SIGSEGV,
// deadline overrun, torn result frame) becomes a retried-then-quarantined
// *poisoned cell* instead of shard death, and clean cells stay
// byte-identical to in-process execution.
// --failpoints (or IRIS_FAILPOINTS) injects deterministic faults for
// testing — see src/support/failpoints.h for the rule grammar.
//
// Resource limits harden the sandbox wall: --rlimit-cpu and
// --rlimit-as cap each sandboxed cell's CPU seconds and each child's
// address space (the kernel kills a runaway before it starves the shard;
// the kill is classified as a ResourceExhausted fault, distinct from
// crashes and hangs), and --rlimit-core caps core dumps so a crashing
// grid does not fill the disk. --reprobe re-examines every quarantined
// cell at the end of the run with a degraded probe (fresh VM pool slot,
// reduced mutant budget, tighter limits): a clean probe triggers a
// full-fidelity re-run that rehabilitates the cell, a faulting probe
// re-poisons it with its attempt history journaled.
//
// Telemetry (all off the determinism path — results are bit-identical
// with or without it): --trace appends structured JSONL events
// (--trace auto picks trace-<shard>.jsonl in the lease dir, or
// trace-local.jsonl); --status-interval <sec> sets the live-status
// publish cadence and prints a one-line progress report on each beat
// (silenced by --quiet). Distributed shards always publish
// status-<shard>.json into the lease dir for campaign_monitor.
//
// Postmortem forensics (--forensics-dir <dir|auto>, sandbox only): each
// sandboxed cell runs with an armed crash-surviving flight recorder; on
// any harness fault the parent decodes the dead child's breadcrumb
// ring and publishes forensics-<cell>.json (see campaign/forensics.h)
// for crash_triage --forensics and the fleet monitor. `auto` puts the
// records in the lease dir (or the working directory).
//
//   $ ./fuzz_campaign [workload] [mutants] [seed] [workers]
//                     [checkpoint-file] [cell-budget] [crash-archive-dir]
//                     [--corpus <dir>] [--profiles <name,...>]
//                     [--lease-dir <dir>] [--shard-of <k>/<n>]
//                     [--lease-ttl <sec>] [--range-size <cells>]
//                     [--sandbox] [--cell-deadline <sec>]
//                     [--cell-retries <n>] [--failpoints <spec>]
//                     [--rlimit-cpu <sec>] [--rlimit-as <MiB>]
//                     [--rlimit-core <MiB>] [--reprobe]
//                     [--forensics-dir <dir|auto>]
//                     [--trace <path|auto>] [--status-interval <sec>]
//                     [--quiet]
//   $ ./fuzz_campaign reduce <lease-dir> [workload] [mutants] [seed]
//                     [--corpus <dir>] [--profiles <name,...>]
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/distributed.h"
#include "campaign/monitor.h"
#include "campaign/reducer.h"
#include "fuzz/campaign.h"
#include "support/failpoints.h"
#include "support/telemetry.h"

namespace {

using namespace iris;

// Exit codes: 0 = complete, 1 = usage or reduce error, 3 = cells still
// pending (budget stop / reduce of a part-done campaign), 4 =
// persistence error (results printed, but the journal or archive is not
// to be trusted), 5 = interrupted by SIGTERM/SIGINT (in-flight cell
// finished and journaled; resume with the same checkpoint), 6 = every
// remaining cell is quarantined (poisoned) — the campaign is as done as
// it will ever get, with holes honestly reported.
constexpr int kExitUsage = 1;
constexpr int kExitPending = 3;
constexpr int kExitPersistence = 4;
constexpr int kExitInterrupted = 5;
constexpr int kExitPoisoned = 6;

/// Raised by SIGTERM/SIGINT; polled by workers between cells.
std::atomic<bool> g_stop{false};

void on_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void install_stop_handlers() {
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);
}

void print_poisoned(const fuzz::CampaignResult& campaign) {
  if (campaign.poisoned_cells.empty()) return;
  std::printf("\n%zu poisoned cell(s) — every sandboxed attempt faulted:\n",
              campaign.poisoned_cells.size());
  for (const auto& poison : campaign.poisoned_cells) {
    std::printf("  cell %zu after %u attempt(s): %s\n", poison.index,
                poison.attempts, poison.fault.describe().c_str());
  }
}

void print_result(const fuzz::CampaignResult& campaign,
                  bool archive_enabled) {
  std::vector<std::uint8_t> poisoned(campaign.results.size(), 0);
  for (const auto& poison : campaign.poisoned_cells) {
    if (poison.index < poisoned.size()) poisoned[poison.index] = 1;
  }
  std::printf("%-12s %-6s %10s %10s %8s %8s %8s\n", "reason", "area", "base LOC",
              "new LOC", "gain%", "VM-crash", "HV-crash");
  for (std::size_t i = 0; i < campaign.results.size(); ++i) {
    const auto& r = campaign.results[i];
    if (poisoned[i] != 0) {
      std::printf("%-12s %-6s %10s\n",
                  std::string(vtx::to_string(r.spec.reason)).c_str(),
                  std::string(fuzz::to_string(r.spec.area)).c_str(), "POISONED");
      continue;
    }
    if (i < campaign.cells_completed.size() && campaign.cells_completed[i] == 0) {
      std::printf("%-12s %-6s %10s\n",
                  std::string(vtx::to_string(r.spec.reason)).c_str(),
                  std::string(fuzz::to_string(r.spec.area)).c_str(), "pending");
      continue;
    }
    if (!r.ran) {
      std::printf("%-12s %-6s %10s\n",
                  std::string(vtx::to_string(r.spec.reason)).c_str(),
                  std::string(fuzz::to_string(r.spec.area)).c_str(), "-");
      continue;
    }
    std::printf("%-12s %-6s %10u %10u %7.1f%% %8zu %8zu\n",
                std::string(vtx::to_string(r.spec.reason)).c_str(),
                std::string(fuzz::to_string(r.spec.area)).c_str(), r.baseline_loc,
                r.new_loc, r.coverage_increase_pct, r.vm_crashes, r.hv_crashes);
  }

  // The mutant total includes resumed cells, which ran in an earlier
  // run; the time and the rate are this run's alone.
  std::printf(
      "\ncampaign: %zu/%zu cells ran, %zu mutants; this run %.2fs "
      "(%.0f mutants/sec, %zu workers)\n",
      campaign.cells_ran, campaign.results.size(), campaign.executed,
      campaign.elapsed_seconds, campaign.mutants_per_second,
      campaign.workers_used);
  std::printf("merged hypervisor coverage: %zu blocks, %u LOC\n",
              campaign.merged_coverage.size(), campaign.merged_loc);
  std::printf("crashes: %zu archived -> %zu unique buckets%s\n",
              campaign.total_crashes, campaign.unique_crashes.size(),
              archive_enabled ? " (reproducers written)" : "");
  for (const auto& bucket : campaign.unique_crashes) {
    std::printf("  [%zux] %s on %s mutating %s item %u\n    %s\n",
                bucket.occurrences,
                std::string(hv::to_string(bucket.key.kind)).c_str(),
                std::string(vtx::to_string(bucket.key.reason)).c_str(),
                bucket.key.item_kind == SeedItemKind::kGpr ? "GPR" : "VMCS",
                bucket.key.encoding, bucket.first.log_line.c_str());
  }
}

void print_result_hash(const fuzz::CampaignResult& campaign) {
  const auto bytes = campaign::canonical_result_bytes(campaign);
  std::printf("result hash: %016llx\n",
              static_cast<unsigned long long>(fnv1a(bytes)));
}

struct Cli {
  std::vector<std::string> positional;
  std::string corpus_dir;
  std::string lease_dir;
  std::string shard_of;  // "<k>/<n>"
  double lease_ttl = 30.0;
  std::size_t range_size = 0;
  std::vector<vtx::ProfileId> profiles;  // empty = baseline-only grid
  bool sandbox = false;
  double cell_deadline = 120.0;
  std::size_t cell_retries = 2;
  std::uint64_t rlimit_cpu = 0;   // 0 = no per-cell CPU-seconds cap
  std::uint64_t rlimit_as = 0;    // MiB; 0 = no address-space cap
  std::int64_t rlimit_core = -1;  // MiB; -1 = inherit the process limit
  bool reprobe = false;           // re-probe quarantined cells at end of run
  std::string forensics_dir;      // "auto" = lease dir (or "."); empty = off
  std::string trace_path;       // "auto" = trace-<shard>.jsonl
  double status_interval = 0.0; // 0 = keep the config default
  bool quiet = false;           // silence the periodic progress line
  bool ok = true;
};

/// Parse a comma-separated profile list; an unknown name is a usage
/// error that lists every available profile.
std::vector<vtx::ProfileId> parse_profiles(const std::string& list, bool& ok) {
  std::vector<vtx::ProfileId> profiles;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string name = list.substr(start, comma - start);
    start = comma + 1;
    if (name.empty()) continue;
    const auto id = vtx::profile_id_from_string(name);
    if (!id) {
      std::fprintf(stderr, "unknown capability profile '%s'; available:\n",
                   name.c_str());
      for (const auto& profile : vtx::profile_library()) {
        std::fprintf(stderr, "  %-24s %s\n",
                     std::string(profile.name).c_str(),
                     std::string(profile.summary).c_str());
      }
      ok = false;
      return {};
    }
    profiles.push_back(*id);
  }
  if (profiles.empty()) {
    std::fprintf(stderr, "--profiles needs at least one profile name\n");
    ok = false;
  }
  return profiles;
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        cli.ok = false;
        return "";
      }
      return argv[++i];
    };
    if (arg == "--corpus") {
      cli.corpus_dir = value();
    } else if (arg == "--lease-dir") {
      cli.lease_dir = value();
    } else if (arg == "--shard-of") {
      cli.shard_of = value();
    } else if (arg == "--lease-ttl") {
      cli.lease_ttl = std::strtod(value(), nullptr);
    } else if (arg == "--range-size") {
      cli.range_size = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--profiles") {
      cli.profiles = parse_profiles(value(), cli.ok);
    } else if (arg == "--sandbox") {
      cli.sandbox = true;
    } else if (arg == "--cell-deadline") {
      cli.cell_deadline = std::strtod(value(), nullptr);
    } else if (arg == "--cell-retries") {
      cli.cell_retries = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--rlimit-cpu") {
      cli.rlimit_cpu = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--rlimit-as") {
      cli.rlimit_as = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--rlimit-core") {
      cli.rlimit_core = std::strtoll(value(), nullptr, 10);
    } else if (arg == "--reprobe") {
      cli.reprobe = true;
    } else if (arg == "--forensics-dir") {
      cli.forensics_dir = value();
    } else if (arg == "--trace") {
      cli.trace_path = value();
    } else if (arg == "--status-interval") {
      cli.status_interval = std::strtod(value(), nullptr);
      if (cli.status_interval <= 0) {
        std::fprintf(stderr, "--status-interval wants a positive number of "
                             "seconds\n");
        cli.ok = false;
      }
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else if (arg == "--failpoints") {
      if (const auto status = support::failpoints::configure(value());
          !status.ok()) {
        std::fprintf(stderr, "%s\n", status.error().message.c_str());
        cli.ok = false;
      }
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      cli.ok = false;
    } else {
      cli.positional.push_back(arg);
    }
  }
  return cli;
}

/// The grid and config every mode (run, shard, reduce) must agree on.
/// `args` are the positional arguments after any subcommand.
struct Campaign {
  fuzz::CampaignConfig config;
  std::vector<fuzz::TestCaseSpec> grid;
  std::string workload_name;
  std::size_t mutants = 0;
  bool ok = false;
};

Campaign build_campaign(const std::vector<std::string>& args, std::size_t base,
                        const Cli& cli) {
  Campaign c;
  auto at = [&](std::size_t i) -> const char* {
    return base + i < args.size() ? args[base + i].c_str() : nullptr;
  };
  c.workload_name = at(0) != nullptr ? at(0) : "CPU-bound";
  c.mutants = at(1) != nullptr ? std::strtoull(at(1), nullptr, 10) : 1000;
  const std::uint64_t seed =
      at(2) != nullptr ? std::strtoull(at(2), nullptr, 10) : 7;

  const auto workload = guest::workload_from_string(c.workload_name);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", c.workload_name.c_str());
    return c;
  }
  c.config.hv_seed = seed;
  c.config.record_exits = 2000;
  c.config.record_seed = seed;
  c.config.corpus_dir = cli.corpus_dir;
  c.config.sandbox_cells = cli.sandbox;
  c.config.cell_deadline_seconds = cli.cell_deadline;
  c.config.cell_retries = cli.cell_retries;
  c.config.rlimit_cpu_seconds = cli.rlimit_cpu;
  c.config.rlimit_as_mb = cli.rlimit_as;
  c.config.rlimit_core_mb = cli.rlimit_core;
  c.config.reprobe_poisoned = cli.reprobe;
  if ((cli.rlimit_cpu != 0 || cli.rlimit_as != 0 || cli.rlimit_core >= 0 ||
       cli.reprobe) &&
      !cli.sandbox) {
    std::fprintf(stderr, "--rlimit-* and --reprobe need --sandbox: resource "
                         "limits and re-probes apply to sandboxed cells only\n");
    return c;
  }
  if (!cli.forensics_dir.empty()) {
    if (!cli.sandbox) {
      std::fprintf(stderr, "--forensics-dir needs --sandbox: forensic records "
                           "are harvested from dead sandbox children\n");
      return c;
    }
    std::string dir = cli.forensics_dir;
    if (dir == "auto") dir = cli.lease_dir.empty() ? "." : cli.lease_dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    c.config.forensics_dir = dir;
  }
  if (cli.rlimit_as != 0 && !fuzz::rlimit_as_supported()) {
    // Sanitizer builds reserve terabytes of shadow address space; an
    // RLIMIT_AS cap would kill every cell at startup, so the runner
    // ignores it there. Say so instead of silently running uncapped.
    std::fprintf(stderr, "note: --rlimit-as ignored (sanitizer build reserves "
                         "shadow address space)\n");
  }
  c.config.stop = &g_stop;
  c.grid = cli.profiles.empty()
               ? fuzz::make_table1_grid({*workload}, c.mutants, seed)
               : fuzz::make_profile_grid({*workload}, c.mutants, seed,
                                         cli.profiles);
  c.ok = true;
  return c;
}

/// Per-profile result hashes: fnv1a over the canonical cell-result
/// bytes of each profile's slice of the grid, in grid order. Lets the
/// profile-matrix CI job assert "strict-fixed-crs diverged from
/// baseline" without re-deriving grid offsets.
void print_profile_hashes(const fuzz::CampaignResult& campaign) {
  std::vector<vtx::ProfileId> order;
  for (const auto& r : campaign.results) {
    bool seen = false;
    for (const auto id : order) seen = seen || id == r.spec.profile;
    if (!seen) order.push_back(r.spec.profile);
  }
  if (order.size() < 2) return;
  for (const auto id : order) {
    ByteWriter bytes;
    for (const auto& r : campaign.results) {
      if (r.spec.profile == id) campaign::serialize_cell_result(r, bytes);
    }
    std::printf("profile %s hash: %016llx\n",
                std::string(vtx::to_string(id)).c_str(),
                static_cast<unsigned long long>(fnv1a(bytes.data())));
  }
}

/// Shard label stamped on telemetry: "k-of-n" distributed, "local" else.
std::string telemetry_label(const Cli& cli) {
  if (!cli.shard_of.empty()) {
    const std::size_t slash = cli.shard_of.find('/');
    if (slash != std::string::npos) {
      return cli.shard_of.substr(0, slash) + "-of-" +
             cli.shard_of.substr(slash + 1);
    }
  }
  return "local";
}

/// Wire --trace / --status-interval / the progress line into the
/// campaign config. False = the requested trace sink cannot be opened.
bool setup_telemetry(const Cli& cli, fuzz::CampaignConfig& config) {
  const std::string label = telemetry_label(cli);
  config.shard_label = label;
  if (cli.status_interval > 0) {
    config.status_interval_seconds = cli.status_interval;
  }
  if (cli.status_interval > 0 && !cli.quiet) {
    // stderr, so the parseable campaign report on stdout stays clean.
    config.on_progress = [](const campaign::ShardStatus& s) {
      std::fprintf(stderr,
                   "progress [%s]: %zu/%zu cells, %.0f mutants/s, "
                   "%llu retries, %zu poisoned\n",
                   s.shard_id.c_str(), s.cells_done, s.cells_total,
                   s.mutants_per_second,
                   static_cast<unsigned long long>(
                       s.counter("campaign.cell_retries")),
                   s.cells_poisoned);
    };
  }
  if (cli.trace_path.empty()) return true;
  std::string path = cli.trace_path;
  if (path == "auto") {
    const std::string name = "trace-" + label + ".jsonl";
    path = cli.lease_dir.empty()
               ? name
               : (std::filesystem::path(cli.lease_dir) / name).string();
  }
  if (!cli.lease_dir.empty()) {
    // The sink may precede the shard layer's own create_directories.
    std::error_code ec;
    std::filesystem::create_directories(cli.lease_dir, ec);
  }
  if (const auto status = support::set_trace_path(path, label); !status.ok()) {
    std::fprintf(stderr, "cannot open trace stream: %s\n",
                 status.error().message.c_str());
    return false;
  }
  return true;
}

int cmd_reduce(const Cli& cli) {
  if (cli.positional.size() < 2) {
    std::fprintf(stderr, "reduce needs a lease directory\n");
    return kExitUsage;
  }
  const std::string& lease_dir = cli.positional[1];
  Campaign c = build_campaign(cli.positional, 2, cli);
  if (!c.ok) return kExitUsage;

  const auto journals = campaign::DistributedCampaign::shard_journals(lease_dir);
  if (journals.empty()) {
    std::fprintf(stderr, "no shard journals in %s\n", lease_dir.c_str());
    return kExitUsage;
  }
  auto reduced = campaign::reduce_journals(journals, c.grid, c.config);
  if (!reduced.ok()) {
    std::fprintf(stderr, "reduce failed: %s\n",
                 reduced.error().message.c_str());
    return kExitUsage;
  }
  const auto& report = reduced.value();
  std::printf("reduced %zu shard journal(s): %zu cell records, "
              "%zu duplicate(s) deduplicated\n",
              report.journals, report.cells_loaded, report.duplicate_cells);
  if (report.poison_records > 0) {
    std::printf("poison records: %zu read, %zu overridden by a clean "
                "completion\n",
                report.poison_records, report.overridden_poisons);
  }
  if (report.reprobe_records > 0) {
    std::printf("re-probe records: %zu read, %zu rehabilitated\n",
                report.reprobe_records, report.rehabilitated);
  }
  std::printf("\n");
  print_result(report.result, false);
  print_poisoned(report.result);
  if (!report.missing.empty()) {
    std::printf("\n%zu cell(s) still pending — shards still running, or a "
                "dead shard's ranges await reclaim\n",
                report.missing.size());
    return kExitPending;
  }
  // Every cell is accounted for (clean or quarantined): the result hash
  // is final and deterministic, so print it either way; the exit code
  // still refuses to call a holed campaign a success.
  print_result_hash(report.result);
  print_profile_hashes(report.result);
  return report.poisoned.empty() ? 0 : kExitPoisoned;
}

int cmd_shard(const Cli& cli, Campaign& c) {
  std::size_t shard_index = 0, shard_count = 1;
  const char* slash = std::strchr(cli.shard_of.c_str(), '/');
  if (slash == nullptr) {
    std::fprintf(stderr, "--shard-of wants <k>/<n>, e.g. 0/3\n");
    return kExitUsage;
  }
  shard_index = std::strtoull(cli.shard_of.c_str(), nullptr, 10);
  shard_count = std::strtoull(slash + 1, nullptr, 10);
  if (shard_count == 0 || shard_index >= shard_count) {
    std::fprintf(stderr, "--shard-of %s: need k < n\n", cli.shard_of.c_str());
    return kExitUsage;
  }

  campaign::ShardConfig shard;
  shard.lease_dir = cli.lease_dir;
  shard.shard_id = std::to_string(shard_index) + "-of-" +
                   std::to_string(shard_count);
  shard.range_size = cli.range_size;
  shard.advisory_shards = shard_count;
  shard.lease_ttl_seconds = cli.lease_ttl;

  std::printf("shard %s on %s: %zu grid cells, M=%zu per cell\n",
              shard.shard_id.c_str(), shard.lease_dir.c_str(), c.grid.size(),
              c.mutants);
  auto run = campaign::DistributedCampaign(shard, c.config).run(c.grid);
  if (!run.ok()) {
    std::fprintf(stderr, "shard failed: %s\n", run.error().message.c_str());
    return kExitUsage;
  }
  const auto& result = run.value().result;
  const auto& lease = run.value().lease;
  std::size_t journaled = 0;
  for (const auto flag : result.cells_completed) journaled += flag != 0 ? 1 : 0;
  std::printf("shard %s done: %zu cell(s) journaled (%zu resumed) in %zu "
              "pass(es); leases: %zu claimed, %zu adopted, %zu reclaimed, "
              "%zu denied, %zu ranges finished\n",
              shard.shard_id.c_str(), journaled, result.cells_resumed,
              run.value().passes, lease.claims, lease.adoptions,
              lease.reclaims, lease.denials, lease.completed_ranges);
  if (lease.lost_leases > 0) {
    std::printf("lost %zu lease(s) to peers (stalled past the TTL)\n",
                lease.lost_leases);
  }
  print_poisoned(result);
  if (result.cells_reprobed > 0) {
    std::printf("re-probed %zu poisoned cell(s): %zu rehabilitated\n",
                result.cells_reprobed, result.cells_rehabilitated);
  }
  if (result.forensics_written > 0) {
    std::printf("forensic dumps: %zu written to %s\n",
                result.forensics_written, c.config.forensics_dir.c_str());
  }
  std::printf("journal: %s\nrun `%s reduce %s ...` once all shards are done\n",
              run.value().journal_path.c_str(), "fuzz_campaign",
              shard.lease_dir.c_str());
  if (result.interrupted) {
    std::fprintf(stderr, "interrupted: in-flight cells journaled, held "
                         "leases released; relaunch this shard to resume\n");
    return kExitInterrupted;
  }
  if (!result.persistence_error.empty()) {
    std::fprintf(stderr, "persistence error: %s\n",
                 result.persistence_error.c_str());
    return kExitPersistence;
  }
  return result.poisoned_cells.empty() ? 0 : kExitPoisoned;
}

}  // namespace

int main(int argc, char** argv) {
  install_stop_handlers();
  Cli cli = parse_cli(argc, argv);
  if (!cli.ok) return kExitUsage;

  if (!cli.positional.empty() && cli.positional[0] == "reduce") {
    return cmd_reduce(cli);
  }

  Campaign c = build_campaign(cli.positional, 0, cli);
  if (!c.ok) return kExitUsage;
  auto pos = [&](std::size_t i) -> const char* {
    return i < cli.positional.size() ? cli.positional[i].c_str() : nullptr;
  };
  c.config.workers = pos(3) != nullptr ? std::strtoull(pos(3), nullptr, 10) : 1;
  if (pos(4) != nullptr) c.config.checkpoint_path = pos(4);
  if (pos(5) != nullptr) c.config.cell_budget = std::strtoull(pos(5), nullptr, 10);
  if (pos(6) != nullptr) c.config.crash_archive_dir = pos(6);
  if (!setup_telemetry(cli, c.config)) return kExitPersistence;

  if (!cli.lease_dir.empty() || !cli.shard_of.empty()) {
    if (cli.lease_dir.empty() || cli.shard_of.empty()) {
      std::fprintf(stderr, "distributed mode needs both --lease-dir and "
                           "--shard-of\n");
      return kExitUsage;
    }
    // The shard journals into the lease directory; a positional
    // checkpoint path would silently go unused, so reject it.
    if (!c.config.checkpoint_path.empty()) {
      std::fprintf(stderr, "drop the checkpoint-file argument in distributed "
                           "mode: each shard journals into --lease-dir\n");
      return kExitUsage;
    }
    return cmd_shard(cli, c);
  }

  std::printf("fuzzing %s: %zu grid cells, M=%zu per cell, %zu worker(s)\n",
              c.workload_name.c_str(), c.grid.size(), c.mutants,
              c.config.workers);
  if (!c.config.checkpoint_path.empty()) {
    std::printf("checkpoint: %s%s\n", c.config.checkpoint_path.c_str(),
                c.config.cell_budget != 0 ? " (budgeted)" : "");
  }
  if (!c.config.corpus_dir.empty()) {
    std::printf("corpus sync: %s (<= %zu imports, %zu mutants each)\n",
                c.config.corpus_dir.c_str(), fuzz::kCorpusMaxImports,
                fuzz::kImportMutants);
  }
  if (c.config.sandbox_cells) {
    std::string limits;
    if (c.config.rlimit_cpu_seconds != 0) {
      limits += ", cpu<=" + std::to_string(c.config.rlimit_cpu_seconds) + "s";
    }
    if (c.config.rlimit_as_mb != 0 && fuzz::rlimit_as_supported()) {
      limits += ", as<=" + std::to_string(c.config.rlimit_as_mb) + "MiB";
    }
    if (c.config.rlimit_core_mb >= 0) {
      limits += ", core<=" + std::to_string(c.config.rlimit_core_mb) + "MiB";
    }
    std::printf("sandbox: one child per worker, %.0fs deadline, %zu retr%s%s%s\n",
                c.config.cell_deadline_seconds, c.config.cell_retries,
                c.config.cell_retries == 1 ? "y" : "ies", limits.c_str(),
                c.config.reprobe_poisoned ? ", re-probe on" : "");
    if (!c.config.forensics_dir.empty()) {
      std::printf("forensics: flight recorder armed, records to %s\n",
                  c.config.forensics_dir.c_str());
    }
  }
  std::printf("\n");

  fuzz::CampaignRunner runner(c.config);
  const auto campaign = runner.run(c.grid);

  if (campaign.cells_resumed > 0) {
    std::printf("resumed %zu cell(s) from the checkpoint\n",
                campaign.cells_resumed);
  }
  std::size_t journaled = 0;
  for (const auto flag : campaign.cells_completed) {
    journaled += flag != 0 ? 1 : 0;
  }
  // All cells accounted for = completed or quarantined; only then is
  // the result hash final.
  const bool all_accounted =
      journaled + campaign.poisoned_cells.size() == campaign.results.size();
  if (campaign.interrupted) {
    std::printf("interrupted — in-flight cells finished and journaled; "
                "rerun with the same checkpoint to resume\n");
  } else if (!campaign.complete && !all_accounted) {
    std::printf("cell budget exhausted with cells still pending — "
                "rerun with the same checkpoint to resume\n");
  }

  print_result(campaign, !c.config.crash_archive_dir.empty());
  print_poisoned(campaign);
  if (campaign.harness_faults > 0) {
    std::printf("harness faults: %zu (retried or quarantined; %zu rlimit "
                "kills, %zu model faults)\n",
                campaign.harness_faults, campaign.rlimit_kills,
                campaign.model_faults);
  }
  if (campaign.cells_reprobed > 0) {
    std::printf("re-probed %zu poisoned cell(s): %zu rehabilitated\n",
                campaign.cells_reprobed, campaign.cells_rehabilitated);
  }
  if (campaign.forensics_written > 0) {
    std::printf("forensic dumps: %zu written to %s\n",
                campaign.forensics_written, c.config.forensics_dir.c_str());
  }
  if (all_accounted && !campaign.interrupted) {
    print_result_hash(campaign);
    print_profile_hashes(campaign);
  }

  // Exit-code priority: an interruption first (the operator asked for
  // it and will resume), then a persistence failure (nothing on disk is
  // to be trusted), then pending cells, then quarantined cells — a
  // fully-accounted campaign with holes is as done as it gets, but it
  // is not a success.
  if (campaign.interrupted) return kExitInterrupted;
  // A persistence failure does not invalidate the (in-memory) results
  // above, but the checkpoint/archive cannot be trusted — make that a
  // loud, distinct exit instead of reporting a healthy run.
  if (!campaign.persistence_error.empty()) {
    std::fprintf(stderr, "persistence error: %s\n",
                 campaign.persistence_error.c_str());
    return kExitPersistence;
  }
  if (!all_accounted) return kExitPending;
  return campaign.poisoned_cells.empty() ? 0 : kExitPoisoned;
}
