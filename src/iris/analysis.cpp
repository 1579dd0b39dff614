#include "iris/analysis.h"

#include <algorithm>
#include <bit>

#include "sim/clock.h"
#include "vtx/entry_checks.h"

namespace iris {

std::vector<std::uint32_t> cumulative_coverage(const hv::CoverageMap& map,
                                               const VmBehavior& behavior) {
  hv::CoverageAccumulator acc(map);
  std::vector<std::uint32_t> curve;
  curve.reserve(behavior.size());
  for (const auto& rec : behavior) {
    acc.add(rec.metrics.coverage);
    curve.push_back(acc.total_loc());
  }
  return curve;
}

namespace {

/// Cheap bucketing hash over the fields a seed serializes. Equality is
/// decided by VmSeed::operator==, so a collision costs one compare.
std::uint64_t content_hash(const VmSeed& seed) noexcept {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h = static_cast<std::uint64_t>(seed.reason) |
                    (static_cast<std::uint64_t>(seed.profile) << 16) |
                    (static_cast<std::uint64_t>(seed.items.size()) << 24) |
                    (static_cast<std::uint64_t>(seed.memory.size()) << 48);
  for (const SeedItem& item : seed.items) {
    h = (h ^ item.value) * kMul +
        ((static_cast<std::uint64_t>(item.kind) << 8) | item.encoding);
  }
  for (const MemChunk& chunk : seed.memory) {
    h = (h ^ chunk.gpa) * kMul + chunk.bytes.size();
  }
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 29);
}

/// The distinct seeds of a behavior by exact content: one open-addressed
/// table of (hash, index + 1) slots, allocated once. VmSeed::operator==
/// compares exactly the serialized fields, so equal content means equal
/// bytes: the same filter as a set of serialized-seed hashes, without
/// serializing anything.
class DistinctSeeds {
 public:
  DistinctSeeds(const VmBehavior& behavior, std::size_t n)
      : behavior_(behavior), slots_(std::bit_ceil(n + n / 2 + 1)) {}

  /// True the first time a seed with the content of `behavior[i]` is seen.
  bool insert(std::size_t i) {
    const VmSeed& seed = behavior_[i].seed;
    const std::uint64_t h = content_hash(seed);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = h & mask;; s = (s + 1) & mask) {
      Slot& slot = slots_[s];
      if (slot.index == 0) {
        slot = Slot{h, i + 1};
        return true;
      }
      if (slot.hash == h && behavior_[slot.index - 1].seed == seed) return false;
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::size_t index = 0;  ///< behavior index + 1; 0 = empty
  };
  const VmBehavior& behavior_;
  std::vector<Slot> slots_;
};

bool is_guest_state(vtx::VmcsField field) noexcept {
  return vtx::type_of(field) == vtx::FieldType::kGuestState;
}

}  // namespace

AccuracyReport analyze_accuracy(const hv::CoverageMap& map, const VmBehavior& recorded,
                                const VmBehavior& replayed,
                                std::uint32_t noise_threshold_loc) {
  AccuracyReport report;
  report.noise_threshold_loc = noise_threshold_loc;
  report.record_curve = cumulative_coverage(map, recorded);
  report.replay_curve = cumulative_coverage(map, replayed);

  const double rec_total =
      report.record_curve.empty() ? 0.0 : report.record_curve.back();
  const double rep_total =
      report.replay_curve.empty() ? 0.0 : report.replay_curve.back();
  report.coverage_fit_pct = rec_total == 0.0 ? 100.0 : 100.0 * rep_total / rec_total;

  // --- Per-exit diffs (Fig 7). Count each distinct seed once, as the
  // paper does ("filtering the repeated VM seeds in a workload").
  const std::size_t n = std::min(recorded.size(), replayed.size());
  DistinctSeeds seen_seeds(recorded, n);
  std::size_t distinct = 0;
  std::size_t large = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& rec_cov = recorded[i].metrics.coverage.blocks;
    const auto& rep_cov = replayed[i].metrics.coverage.blocks;
    if (!seen_seeds.insert(i)) continue;
    ++distinct;

    ExitDiff diff;
    diff.reason = recorded[i].seed.reason;
    // Both sides are sorted; walk the symmetric difference.
    std::size_t a = 0, b = 0;
    const auto account = [&](hv::BlockKey key) {
      const std::uint8_t loc = map.loc_of(key);
      diff.loc_diff += loc;
      diff.by_component[hv::block_component(key)] += loc;
    };
    while (a < rec_cov.size() || b < rep_cov.size()) {
      if (b >= rep_cov.size() || (a < rec_cov.size() && rec_cov[a] < rep_cov[b])) {
        account(rec_cov[a++]);
      } else if (a >= rec_cov.size() || rep_cov[b] < rec_cov[a]) {
        account(rep_cov[b++]);
      } else {
        ++a;
        ++b;
      }
    }
    if (diff.loc_diff > 0) {
      if (diff.loc_diff > noise_threshold_loc) ++large;
      report.diffs.push_back(std::move(diff));
    }
  }
  report.large_diff_pct =
      distinct == 0 ? 0.0 : 100.0 * static_cast<double>(large) /
                                static_cast<double>(distinct);

  // --- Guest-state VMWRITE fit (Fig 8's 100%): the w-th guest-state
  // write of each recorded exit against the w-th of its replay, walked
  // in place over both vmwrite lists.
  std::size_t expected = 0, matched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& rec_writes = recorded[i].metrics.vmwrites;
    const auto& rep_writes = replayed[i].metrics.vmwrites;
    std::size_t b = 0;
    for (const auto& write : rec_writes) {
      if (!is_guest_state(write.first)) continue;
      ++expected;
      while (b < rep_writes.size() && !is_guest_state(rep_writes[b].first)) ++b;
      if (b < rep_writes.size() && rep_writes[b++] == write) ++matched;
    }
  }
  report.vmwrite_fit_pct =
      expected == 0 ? 100.0
                    : 100.0 * static_cast<double>(matched) /
                          static_cast<double>(expected);
  return report;
}

std::vector<ModeSample> mode_trajectory(const VmBehavior& behavior) {
  std::vector<ModeSample> samples;
  for (std::size_t i = 0; i < behavior.size(); ++i) {
    for (const auto& [field, value] : behavior[i].metrics.vmwrites) {
      if (field == vtx::VmcsField::kGuestCr0) {
        samples.push_back(ModeSample{i, vcpu::classify_cr0(value)});
      }
    }
  }
  return samples;
}

EfficiencyReport analyze_efficiency(std::uint64_t real_cycles,
                                    std::uint64_t replay_cycles, std::size_t exits) {
  EfficiencyReport report;
  report.real_seconds = sim::Clock::cycles_to_s(real_cycles);
  report.replay_seconds = sim::Clock::cycles_to_s(replay_cycles);
  if (report.real_seconds > 0.0) {
    report.pct_decrease =
        100.0 * (report.real_seconds - report.replay_seconds) / report.real_seconds;
    report.speedup = report.replay_seconds > 0.0
                         ? report.real_seconds / report.replay_seconds
                         : 0.0;
  }
  if (report.replay_seconds > 0.0) {
    report.replay_exits_per_sec =
        static_cast<double>(exits) / report.replay_seconds;
  }
  return report;
}

}  // namespace iris
