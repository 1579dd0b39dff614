// Basic-block coverage instrumentation of the hypervisor.
//
// Stands in for the paper's selective gcov instrumentation (§V-A): only
// components crucial to VM-exit handling are instrumented, each basic
// block carries a line-of-code weight, and the per-exit block set is
// exported so IRIS can attribute coverage to individual VM seeds. The
// record/replay components instrument themselves under Component::kIris
// so their hits can be "cleaned up" exactly as the paper does.
//
// Fig 6 plots cumulative unique LOC; Fig 7 clusters record-vs-replay LOC
// differences by exit reason and attributes them to components
// (vlapic/irq/vpt noise vs emulate/intr/vmx structural divergence).
//
// Layout: the packed BlockKey (component << 16 | id) is a dense index
// into flat arrays, AFL-style. CoverageMap::hit is two array loads and
// two predictable branches — no hashing — and per-exit attribution uses
// epoch stamps instead of clearing a set, so begin_exit is O(1). The
// arrays span the whole 704K-slot index space (4.3 MB) but live in one
// anonymous private mapping that the kernel zero-fills on first touch,
// so only the pages that blocks land on become resident, and a forked
// sandbox child has only those to copy and tear down.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace iris::hv {

/// Instrumented hypervisor components, named after the Xen source files
/// the paper cites ("vmx.c", "intr.c", "emulate.c", "vlapic.c", "irq.c",
/// "vpt.c").
enum class Component : std::uint8_t {
  kVmx = 0,        ///< vmx.c — exit dispatcher + VMX handlers
  kIntr = 1,       ///< intr.c — interrupt delivery on the exit path
  kEmulate = 2,    ///< emulate.c — HVM instruction emulator
  kVlapic = 3,     ///< vlapic.c — virtual local APIC
  kIrq = 4,        ///< irq.c — IRQ chip / vector bookkeeping
  kVpt = 5,        ///< vpt.c — virtual platform timer
  kIo = 6,         ///< io.c — port/MMIO dispatch
  kHvm = 7,        ///< hvm.c — domain-level HVM helpers
  kVmcsWrap = 8,   ///< vmcs.c — vmread/vmwrite wrappers
  kHypercall = 9,  ///< hypercall.c — hypercall table
  kIris = 10,      ///< IRIS record/replay callbacks (filtered out)
};

inline constexpr int kNumComponents = 11;

[[nodiscard]] std::string_view to_string(Component c) noexcept;

/// Packed block identity: component in the top byte, block id below.
using BlockKey = std::uint32_t;

/// Every BlockKey is below this bound, so the key doubles as a dense
/// array index (11 components x 64K ids = 704K slots).
inline constexpr std::size_t kBlockIndexSpace =
    static_cast<std::size_t>(kNumComponents) << 16;

[[nodiscard]] constexpr BlockKey pack_block(Component c, std::uint16_t id) noexcept {
  return (static_cast<BlockKey>(c) << 16) | id;
}
[[nodiscard]] constexpr Component block_component(BlockKey key) noexcept {
  return static_cast<Component>(key >> 16);
}

/// Per-exit coverage record: the unique blocks hit while handling one VM
/// exit, with their total LOC weight (the paper's "code coverage" unit).
/// Designed for reuse: CoverageMap::end_exit_into refills an existing
/// instance without shrinking its capacity.
struct ExitCoverage {
  std::vector<BlockKey> blocks;  ///< sorted, unique
  std::uint32_t loc = 0;         ///< sum of the blocks' LOC weights

  /// Empty the record while keeping the block buffer's capacity.
  void clear() noexcept {
    blocks.clear();
    loc = 0;
  }

  /// LOC restricted to a component subset (Fig 7 clustering).
  [[nodiscard]] std::uint32_t loc_in(const class CoverageMap& map,
                                     Component component) const;
};

/// The shared-memory coverage bitmap of the instrumented hypervisor.
class CoverageMap {
 public:
  /// Maps the index-space arrays; throws std::bad_alloc if mmap fails.
  CoverageMap();
  ~CoverageMap();
  CoverageMap(const CoverageMap&) = delete;
  CoverageMap& operator=(const CoverageMap&) = delete;

  /// Mark `(<component>, id)` as executed; `loc` is the block's
  /// line-of-code weight, fixed at the first hit (call sites are static).
  void hit(Component component, std::uint16_t id, std::uint8_t loc) {
    const BlockKey key = pack_block(component, id);
    if (known_[key] == 0) {
      known_[key] = 1;
      loc_[key] = loc;
      registered_.push_back(key);
    }
    if (stamp_[key] != epoch_) {
      stamp_[key] = epoch_;
      current_exit_.push_back(key);
    }
  }

  /// Begin attributing hits to a new VM exit. O(1): bumps the epoch
  /// stamp instead of clearing a per-exit set.
  void begin_exit();

  /// Finish the current exit; refills `out` with its unique block set,
  /// reusing `out`'s buffer. When `filter_iris` is set, Component::kIris
  /// hits are removed (the paper's cleanup of record/replay-component
  /// coverage).
  void end_exit_into(ExitCoverage& out, bool filter_iris = true);

  /// Convenience wrapper allocating a fresh ExitCoverage.
  ExitCoverage end_exit(bool filter_iris = true);

  /// LOC weight of a block (0 if never seen anywhere).
  [[nodiscard]] std::uint8_t loc_of(BlockKey key) const noexcept {
    return key < kBlockIndexSpace ? loc_[key] : 0;
  }

  /// All blocks ever seen, in first-hit order (registry view); weights
  /// via loc_of().
  [[nodiscard]] const std::vector<BlockKey>& registered_blocks() const noexcept {
    return registered_;
  }

  void reset();

 private:
  // kBlockIndexSpace slots each, carved from one lazily zeroed mapping.
  std::uint32_t* stamp_;  ///< epoch stamps
  std::uint8_t* loc_;     ///< LOC weights
  std::uint8_t* known_;   ///< ever-seen flags
  std::uint32_t epoch_ = 1;
  std::vector<BlockKey> current_exit_;  ///< insertion order, buffer reused
  std::vector<BlockKey> registered_;    ///< first-hit order
};

/// Cumulative unique-coverage accumulator (the Fig 6 curves): a flat
/// 64-bit-word bitset over the block index space.
class CoverageAccumulator {
 public:
  explicit CoverageAccumulator(const CoverageMap& map);

  /// Merge one exit's coverage; returns the LOC newly discovered.
  std::uint32_t add(const ExitCoverage& exit_cov);

  [[nodiscard]] std::uint32_t total_loc() const noexcept { return total_loc_; }
  [[nodiscard]] std::size_t unique_blocks() const noexcept { return unique_; }
  [[nodiscard]] bool contains(BlockKey key) const noexcept {
    return key < kBlockIndexSpace &&
           (words_[key >> 6] >> (key & 63)) & 1;
  }

  /// LOC covered here but not in `other` (one side of a Fig 7 diff).
  /// Word-wise a & ~b walk with bit scans — no per-block set probes.
  [[nodiscard]] std::uint32_t loc_not_in(const CoverageAccumulator& other) const;

 private:
  const CoverageMap* map_;
  std::vector<std::uint64_t> words_;  ///< kBlockIndexSpace / 64 bits
  std::size_t unique_ = 0;
  std::uint32_t total_loc_ = 0;
};

}  // namespace iris::hv
