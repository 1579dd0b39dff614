// Seed-corpus tool: record workloads into a seed DB file, inspect it,
// replay a stored behavior, and exchange seeds with the on-disk
// CorpusStore directories that campaign workers sync through — the CLI
// face of the Fig 3 "VM seed DB" plus the src/campaign/ corpus layer.
//
//   $ ./seed_corpus_tool record <file> <workload> <exits> [seed]
//                        [--profile <name>]
//   $ ./seed_corpus_tool info   <file>
//   $ ./seed_corpus_tool replay <file> <workload>
//   $ ./seed_corpus_tool export <file> <corpus-dir>
//   $ ./seed_corpus_tool merge  <dst-corpus-dir> <src-corpus-dir>...
//   $ ./seed_corpus_tool minimize <corpus-dir> [--dry-run] [workload] [hv-seed]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <unordered_set>
#include <vector>

#include "campaign/corpus_store.h"
#include "fuzz/vm_pool.h"
#include "iris/manager.h"

namespace {

int cmd_record(const char* path, const char* workload_name, std::uint64_t exits,
               std::uint64_t seed, const iris::vtx::VmxCapabilityProfile& profile) {
  using namespace iris;
  const auto workload = guest::workload_from_string(workload_name);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name);
    return 1;
  }
  // Record against the chosen modeled CPU: every captured seed carries
  // the profile id, so a later replay knows which capability profile
  // produced it. Campaigns record on baseline regardless — this knob is
  // for standalone corpus experiments.
  hv::Hypervisor hypervisor(seed, 0.02, profile);
  Manager manager(hypervisor);
  // Merge into an existing corpus when present. A file that exists but
  // does not parse is surfaced, never silently overwritten — it may be
  // a corpus someone cares about (or a typo'd path to one).
  if (std::filesystem::exists(path)) {
    auto existing = SeedDb::load_file(path);
    if (!existing.ok()) {
      std::fprintf(stderr,
                   "%s exists but is not a readable seed db (%s); refusing to "
                   "overwrite it\n",
                   path, existing.error().message.c_str());
      return 1;
    }
    manager.db() = std::move(existing).take();
  }
  manager.record_workload(*workload, exits, seed);
  // save_file is atomic (temp + rename), so a kill mid-save leaves the
  // previous corpus intact.
  if (const auto status = manager.db().save_file(path); !status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.error().message.c_str());
    return 1;
  }
  std::printf("recorded %llu exits of %s into %s\n",
              static_cast<unsigned long long>(exits), workload_name, path);
  return 0;
}

int cmd_export(const char* path, const char* dir) {
  using namespace iris;
  auto db = SeedDb::load_file(path);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.error().message.c_str());
    return 1;
  }
  campaign::CorpusStore store(dir);
  if (const auto status = store.init(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  std::size_t written = 0, present = 0;
  for (const auto& name : db.value().names()) {
    for (const auto& rec : *db.value().behavior(name)) {
      if (store.contains(rec.seed)) {
        ++present;
        continue;
      }
      campaign::CorpusEntry entry;
      entry.seed = rec.seed;
      if (const auto status = store.write_entry(entry); !status.ok()) {
        std::fprintf(stderr, "%s\n", status.error().message.c_str());
        return 1;
      }
      ++written;
    }
  }
  std::printf("exported %zu seed(s) from %s into %s (%zu already present)\n",
              written, path, dir, present);
  return 0;
}

int cmd_merge(int count, char** dirs) {
  using namespace iris;
  campaign::CorpusStore dst(dirs[0]);
  if (const auto status = dst.init(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  std::size_t total = 0;
  for (int i = 1; i < count; ++i) {
    campaign::CorpusStore src(dirs[i]);
    auto imported = dst.sync_from(src);
    if (!imported.ok()) {
      std::fprintf(stderr, "merge of %s failed: %s\n", dirs[i],
                   imported.error().message.c_str());
      return 1;
    }
    std::printf("  %-40s +%zu entries\n", dirs[i], imported.value());
    total += imported.value();
  }
  std::printf("merged %zu new entries into %s (%zu total)\n", total, dirs[0],
              dst.size());
  return 0;
}

// A CorpusStore only ever grows: every synced worker publishes its
// discoveries and nothing retires them, so mature corpora carry many
// entries whose hypervisor blocks are fully dominated by other entries.
// Minimization replays every entry the way campaign corpus sync uses
// it: walk a recorded behavior to the first exit with the entry's
// reason (the linked state s1) and submit the entry there — submitting
// out-of-context from s0 would make every entry fail the same entry
// checks and measure nothing. The per-entry coverage then feeds a
// greedy set cover (largest uncovered-LOC gain first, ties broken by
// entry name so the result is deterministic); the dominated rest is
// deleted — or only reported, with --dry-run.
int cmd_minimize(const char* dir, bool dry_run, const char* workload_name,
                 std::uint64_t hv_seed) {
  using namespace iris;
  const auto workload = guest::workload_from_string(workload_name);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name);
    return 1;
  }
  campaign::CorpusStore store(dir);
  const auto names = store.list();
  if (names.empty()) {
    std::fprintf(stderr, "%s has no corpus entries\n", dir);
    return 1;
  }

  // One pooled stack: the context behavior is recorded once, and every
  // entry is measured from an identically reset state (the order
  // entries are measured in cannot change what they cover).
  fuzz::VmPool pool(1, hv_seed, 0.0);
  pool.worker(0).reset();
  const VmBehavior behavior =
      pool.worker(0).manager().record_workload(*workload, 500, hv_seed);
  std::map<vtx::ExitReason, std::size_t> target_of;
  for (std::size_t i = 0; i < behavior.size(); ++i) {
    target_of.emplace(behavior[i].seed.reason, i);
  }

  struct Measured {
    std::string name;
    /// Blocks the entry's submission hit, with LOC weights captured at
    /// measurement time (vm.reset() wipes the map's registry, so the
    /// weights must travel with the blocks).
    std::vector<std::pair<hv::BlockKey, std::uint8_t>> blocks;
  };
  std::vector<Measured> entries;
  std::size_t skipped = 0;
  for (const auto& name : names) {
    auto entry = store.read_entry(name);
    if (!entry.ok()) {
      ++skipped;
      continue;
    }
    fuzz::PooledVm& vm = pool.worker(0);
    vm.reset();
    Manager& manager = vm.manager();
    manager.reset_dummy_vm();
    if (!manager.enable_replay()) {
      std::fprintf(stderr, "cannot arm the replayer\n");
      return 1;
    }
    // Walk to the linked state for the entry's exit reason (s0 if the
    // context behavior never exits with it), then measure the entry.
    const auto target = target_of.find(entry.value().seed.reason);
    const std::size_t prefix = target != target_of.end() ? target->second : 0;
    bool walked = true;
    for (std::size_t i = 0; i < prefix && walked; ++i) {
      walked = manager.submit_seed(behavior[i].seed).failure ==
               hv::FailureKind::kNone;
    }
    if (!walked) {
      ++skipped;
      continue;
    }
    const auto outcome = manager.submit_seed(entry.value().seed);
    Measured measured;
    measured.name = name;
    measured.blocks.reserve(outcome.coverage.blocks.size());
    const hv::CoverageMap& cov = vm.hv().coverage();
    for (const hv::BlockKey block : outcome.coverage.blocks) {
      measured.blocks.emplace_back(block, cov.loc_of(block));
    }
    entries.push_back(std::move(measured));
  }

  // Greedy set cover over the merged per-entry coverage, LOC-weighted.
  auto gain_of = [](const Measured& m,
                    const std::unordered_set<hv::BlockKey>& covered) {
    std::uint32_t gain = 0;
    for (const auto& [block, loc] : m.blocks) {
      if (!covered.contains(block)) gain += loc;
    }
    return gain;
  };
  std::unordered_set<hv::BlockKey> covered;
  std::vector<char> kept(entries.size(), 0);
  std::uint32_t kept_loc = 0;
  for (;;) {
    std::size_t best = entries.size();
    std::uint32_t best_gain = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (kept[i] != 0) continue;
      const std::uint32_t gain = gain_of(entries[i], covered);
      if (gain > best_gain) {  // names are sorted: first max wins ties
        best_gain = gain;
        best = i;
      }
    }
    if (best == entries.size()) break;  // every pending entry is dominated
    kept[best] = 1;
    kept_loc += best_gain;
    for (const auto& [block, loc] : entries[best].blocks) covered.insert(block);
  }

  std::size_t dropped = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (kept[i] != 0) continue;
    ++dropped;
    if (dry_run) {
      std::printf("  would drop %s (dominated)\n", entries[i].name.c_str());
      continue;
    }
    std::error_code ec;
    std::filesystem::remove(std::filesystem::path(dir) / entries[i].name, ec);
    if (ec) {
      std::fprintf(stderr, "cannot remove %s\n", entries[i].name.c_str());
      return 1;
    }
  }
  std::printf("%s: kept %zu of %zu entries (%u LOC, %zu blocks); %s%zu "
              "dominated entries%s\n",
              dir, entries.size() - dropped, entries.size(), kept_loc,
              covered.size(), dry_run ? "would drop " : "dropped ", dropped,
              skipped != 0 ? " (unmeasurable entries left untouched)" : "");
  return 0;
}

int cmd_info(const char* path) {
  using namespace iris;
  auto db = SeedDb::load_file(path);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.error().message.c_str());
    return 1;
  }
  std::printf("%s: %zu behaviors, %zu unique seeds, %zu seed bytes\n", path,
              db.value().size(), db.value().unique_seed_count(),
              db.value().total_seed_bytes());
  for (const auto& name : db.value().names()) {
    const VmBehavior* b = db.value().behavior(name);
    std::map<std::string, int> reasons;
    for (const auto& rec : *b) {
      ++reasons[std::string(vtx::to_string(rec.seed.reason))];
    }
    std::printf("  %-12s %6zu exits:", name.c_str(), b->size());
    for (const auto& [reason, count] : reasons) {
      std::printf(" %s=%d", reason.c_str(), count);
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_replay(const char* path, const char* name) {
  using namespace iris;
  auto db = SeedDb::load_file(path);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.error().message.c_str());
    return 1;
  }
  const VmBehavior* behavior = db.value().behavior(name);
  if (behavior == nullptr) {
    std::fprintf(stderr, "no behavior named '%s'\n", name);
    return 1;
  }
  hv::Hypervisor hypervisor(1, 0.02);
  Manager manager(hypervisor);
  const auto t0 = hypervisor.clock().rdtsc();
  const auto outcomes = manager.replay(*behavior);
  const double secs = sim::Clock::cycles_to_s(hypervisor.clock().rdtsc() - t0);
  std::size_t ok = 0;
  for (const auto& o : outcomes) ok += o.failure == hv::FailureKind::kNone ? 1 : 0;
  std::printf("replayed %zu/%zu seeds OK in %.3f simulated seconds", ok,
              behavior->size(), secs);
  if (ok < behavior->size() && !outcomes.empty()) {
    std::printf(" (stopped: %s)",
                std::string(hv::to_string(outcomes.back().failure)).c_str());
  }
  std::printf("\n");
  return ok == behavior->size() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip `--profile <name>` wherever it appears; everything else keeps
  // its positional meaning.
  const iris::vtx::VmxCapabilityProfile* profile =
      &iris::vtx::baseline_profile();
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--profile needs a value\n");
        return 1;
      }
      const auto id = iris::vtx::profile_id_from_string(argv[++i]);
      if (!id) {
        std::fprintf(stderr, "unknown capability profile '%s'; available:\n",
                     argv[i]);
        for (const auto& p : iris::vtx::profile_library()) {
          std::fprintf(stderr, "  %-24s %s\n", std::string(p.name).c_str(),
                       std::string(p.summary).c_str());
        }
        return 1;
      }
      profile = &iris::vtx::profile_by_id(*id);
      continue;
    }
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc >= 3 && std::strcmp(argv[1], "info") == 0) {
    return cmd_info(argv[2]);
  }
  if (argc >= 5 && std::strcmp(argv[1], "record") == 0) {
    return cmd_record(argv[2], argv[3], std::strtoull(argv[4], nullptr, 10),
                      argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 42,
                      *profile);
  }
  if (argc >= 4 && std::strcmp(argv[1], "replay") == 0) {
    return cmd_replay(argv[2], argv[3]);
  }
  if (argc >= 4 && std::strcmp(argv[1], "export") == 0) {
    return cmd_export(argv[2], argv[3]);
  }
  if (argc >= 4 && std::strcmp(argv[1], "merge") == 0) {
    return cmd_merge(argc - 2, argv + 2);
  }
  if (argc >= 3 && std::strcmp(argv[1], "minimize") == 0) {
    bool dry_run = false;
    const char* workload = "CPU-bound";
    std::uint64_t hv_seed = 17;
    bool have_workload = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--dry-run") == 0) {
        dry_run = true;
      } else if (!have_workload) {
        workload = argv[i];
        have_workload = true;
      } else {
        hv_seed = std::strtoull(argv[i], nullptr, 10);
      }
    }
    return cmd_minimize(argv[2], dry_run, workload, hv_seed);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  %s record <file> <workload> <exits> [seed] [--profile <name>]\n"
               "  %s info   <file>\n"
               "  %s replay <file> <workload>\n"
               "  %s export <file> <corpus-dir>\n"
               "  %s merge  <dst-corpus-dir> <src-corpus-dir>...\n"
               "  %s minimize <corpus-dir> [--dry-run] [workload] [hv-seed]\n",
               argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
  return 1;
}
