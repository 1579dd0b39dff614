// Pins for the paper's record -> seed DB -> replay -> analysis pipeline
// on all five guest workloads: the seed-DB wire bytes (FNV-1a of the
// serialized SeedDb, fixed by the format, not by any one writer), a
// file round trip through save_file/load_file, and the accuracy
// analysis's distinct-seed filter against a reference that dedups by
// the FNV-1a of each serialized seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "guest/workload.h"
#include "hv/hypervisor.h"
#include "iris/analysis.h"
#include "iris/manager.h"
#include "iris/seed_db.h"
#include "support/fs_atomic.h"
#include "support/serialize.h"

namespace iris {
namespace {

using guest::Workload;

constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kExits = 2000;

/// One recorded, saved, reloaded and replayed workload; the stack stays
/// alive because the analysis reads its coverage map.
struct Pipeline {
  Workload workload = Workload::kOsBoot;
  std::unique_ptr<hv::Hypervisor> hv;
  std::unique_ptr<Manager> manager;
  std::vector<std::uint8_t> db_bytes;
  VmBehavior recorded;
  ReplayedBehavior replayed;
};

Pipeline run_pipeline(Workload workload) {
  Pipeline p;
  p.workload = workload;
  p.hv = std::make_unique<hv::Hypervisor>(kSeed, /*async_noise_prob=*/0.02);
  p.manager = std::make_unique<Manager>(*p.hv);
  p.manager->save_test_snapshot();
  (void)p.manager->dummy_vm();
  p.recorded = p.manager->record_workload(workload, kExits, kSeed);
  p.db_bytes = p.manager->db().serialize();
  auto loaded = SeedDb::deserialize(p.db_bytes);
  EXPECT_TRUE(loaded.ok());
  if (!loaded.ok()) return p;
  const VmBehavior* behavior =
      loaded.value().behavior(std::string(guest::to_string(workload)));
  EXPECT_NE(behavior, nullptr);
  if (behavior == nullptr) return p;
  p.manager->revert_dummy_to_test_snapshot();
  p.replayed = p.manager->replay_and_record(*behavior);
  return p;
}

class PipelinePins : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipelines_ = new std::vector<Pipeline>();
    for (const Workload w : {Workload::kOsBoot, Workload::kCpuBound, Workload::kMemBound,
                             Workload::kIoBound, Workload::kIdle}) {
      pipelines_->push_back(run_pipeline(w));
    }
  }
  static void TearDownTestSuite() {
    delete pipelines_;
    pipelines_ = nullptr;
  }

  static std::vector<Pipeline>* pipelines_;
};

std::vector<Pipeline>* PipelinePins::pipelines_ = nullptr;

TEST_F(PipelinePins, SeedDbWireBytesMatchPinnedFnv) {
  // FNV-1a of SeedDb::serialize() per workload (2000 exits, seed 42),
  // taken from the writer before its primitives were inlined.
  const std::uint64_t pinned[] = {
      0xe2be80dabb081a29ULL,  // OS_BOOT
      0xc45f733f0c883c8aULL,  // CPU-bound
      0xef7cbfc6fd653e49ULL,  // MEM-bound
      0x715e3802e9848fddULL,  // IO-bound
      0x658d8628b0e80d42ULL,  // IDLE
  };
  ASSERT_EQ(pipelines_->size(), std::size(pinned));
  for (std::size_t i = 0; i < pipelines_->size(); ++i) {
    const Pipeline& p = (*pipelines_)[i];
    EXPECT_EQ(p.recorded.size(), kExits);
    EXPECT_EQ(p.db_bytes.capacity(), p.db_bytes.size()) << "serialize() sizes exactly";
    EXPECT_EQ(fnv1a(p.db_bytes), pinned[i])
        << guest::to_string(p.workload) << std::hex << " fnv 0x" << fnv1a(p.db_bytes);
  }
}

TEST_F(PipelinePins, SaveAndLoadFileKeepTheBytes) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "iris-pipeline-pins";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const Pipeline& p : *pipelines_) {
    const std::string path = (dir / "db.seeddb").string();
    ASSERT_TRUE(p.manager->db().save_file(path).ok());
    const auto raw = read_file_bytes(path);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(raw.value(), p.db_bytes) << guest::to_string(p.workload);
    const auto loaded = SeedDb::load_file(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().serialize(), p.db_bytes) << guest::to_string(p.workload);
  }
}

/// The Fig 7/8 numbers as computed before content dedup: distinct seeds
/// by the FNV-1a of their serialized bytes, diffs from a materialized
/// symmetric difference, and the fit from guest_state_writes() copies.
struct Reference {
  std::size_t distinct = 0;
  std::size_t diffs = 0;
  double large_diff_pct = 0.0;
  double vmwrite_fit_pct = 100.0;
};

Reference reference_analysis(const hv::CoverageMap& map, const VmBehavior& recorded,
                             const VmBehavior& replayed, std::uint32_t threshold) {
  Reference ref;
  const std::size_t n = std::min(recorded.size(), replayed.size());
  std::unordered_set<std::uint64_t> seen;
  std::size_t large = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!seen.insert(recorded[i].seed.hash()).second) continue;
    ++ref.distinct;
    const auto& a = recorded[i].metrics.coverage.blocks;
    const auto& b = replayed[i].metrics.coverage.blocks;
    std::vector<hv::BlockKey> sym;
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(sym));
    std::uint32_t loc = 0;
    for (const hv::BlockKey key : sym) loc += map.loc_of(key);
    if (loc == 0) continue;
    ++ref.diffs;
    if (loc > threshold) ++large;
  }
  if (ref.distinct > 0) {
    ref.large_diff_pct =
        100.0 * static_cast<double>(large) / static_cast<double>(ref.distinct);
  }
  std::size_t expected = 0, matched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto rec = recorded[i].metrics.guest_state_writes();
    const auto rep = replayed[i].metrics.guest_state_writes();
    expected += rec.size();
    for (std::size_t w = 0; w < std::min(rec.size(), rep.size()); ++w) {
      if (rec[w] == rep[w]) ++matched;
    }
  }
  if (expected > 0) {
    ref.vmwrite_fit_pct =
        100.0 * static_cast<double>(matched) / static_cast<double>(expected);
  }
  return ref;
}

TEST_F(PipelinePins, ContentDedupMatchesFnvSetReference) {
  bool any_repeats = false, any_diffs = false;
  for (const Pipeline& p : *pipelines_) {
    const auto report =
        analyze_accuracy(p.hv->coverage(), p.recorded, p.replayed.behavior);
    const Reference ref = reference_analysis(p.hv->coverage(), p.recorded,
                                             p.replayed.behavior,
                                             report.noise_threshold_loc);
    const auto name = guest::to_string(p.workload);
    EXPECT_EQ(report.diffs.size(), ref.diffs) << name;
    EXPECT_DOUBLE_EQ(report.large_diff_pct, ref.large_diff_pct) << name;
    EXPECT_DOUBLE_EQ(report.vmwrite_fit_pct, ref.vmwrite_fit_pct) << name;
    for (const ExitDiff& diff : report.diffs) {
      std::uint32_t by_component = 0;
      for (const auto& [component, loc] : diff.by_component) by_component += loc;
      EXPECT_EQ(by_component, diff.loc_diff) << name;
    }
    any_repeats = any_repeats || ref.distinct < p.recorded.size();
    any_diffs = any_diffs || ref.diffs > 0;
  }
  // The comparison means something only if some workload repeats seeds
  // and some replay diverges.
  EXPECT_TRUE(any_repeats);
  EXPECT_TRUE(any_diffs);
}

}  // namespace
}  // namespace iris
