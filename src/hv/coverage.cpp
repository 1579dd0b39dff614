#include "hv/coverage.h"

#include <algorithm>
#include <bit>
#include <new>

#include <sys/mman.h>

namespace iris::hv {

std::string_view to_string(Component c) noexcept {
  switch (c) {
    case Component::kVmx:
      return "vmx.c";
    case Component::kIntr:
      return "intr.c";
    case Component::kEmulate:
      return "emulate.c";
    case Component::kVlapic:
      return "vlapic.c";
    case Component::kIrq:
      return "irq.c";
    case Component::kVpt:
      return "vpt.c";
    case Component::kIo:
      return "io.c";
    case Component::kHvm:
      return "hvm.c";
    case Component::kVmcsWrap:
      return "vmcs.c";
    case Component::kHypercall:
      return "hypercall.c";
    case Component::kIris:
      return "iris.c";
  }
  return "?";
}

std::uint32_t ExitCoverage::loc_in(const CoverageMap& map, Component component) const {
  std::uint32_t total = 0;
  for (BlockKey key : blocks) {
    if (block_component(key) == component) total += map.loc_of(key);
  }
  return total;
}

namespace {

// stamp_, then loc_, then known_; a multiple of the page size.
constexpr std::size_t kMapBytes = kBlockIndexSpace * (sizeof(std::uint32_t) + 2);

// An anonymous private mapping rather than calloc: glibc raises its mmap
// threshold once a large chunk is freed, after which calloc serves the
// next map from the heap and memsets all of it.
std::uint32_t* map_index_space() {
  void* mem = ::mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint32_t*>(mem);
}

}  // namespace

CoverageMap::CoverageMap()
    : stamp_(map_index_space()),
      loc_(reinterpret_cast<std::uint8_t*>(stamp_ + kBlockIndexSpace)),
      known_(loc_ + kBlockIndexSpace) {}

CoverageMap::~CoverageMap() { ::munmap(stamp_, kMapBytes); }

void CoverageMap::begin_exit() {
  current_exit_.clear();
  if (++epoch_ == 0) {
    // Epoch wrap after 2^32 exits: recycle the stamps once.
    std::fill(stamp_, stamp_ + kBlockIndexSpace, 0u);
    epoch_ = 1;
  }
}

void CoverageMap::end_exit_into(ExitCoverage& out, bool filter_iris) {
  out.clear();
  out.blocks.reserve(current_exit_.size());
  for (BlockKey key : current_exit_) {
    if (filter_iris && block_component(key) == Component::kIris) continue;
    out.blocks.push_back(key);
  }
  std::sort(out.blocks.begin(), out.blocks.end());
  for (BlockKey key : out.blocks) {
    out.loc += loc_of(key);
  }
  current_exit_.clear();
}

ExitCoverage CoverageMap::end_exit(bool filter_iris) {
  ExitCoverage cov;
  end_exit_into(cov, filter_iris);
  return cov;
}

void CoverageMap::reset() {
  // O(registered blocks), not O(index space): only blocks in the
  // registry can have nonzero known_/loc_ entries, and a single epoch
  // bump staleness-invalidates every per-exit stamp (same trick as
  // begin_exit) — no 4 MB of memsets on the pooled-VM reset path.
  for (const BlockKey key : registered_) {
    known_[key] = 0;
    loc_[key] = 0;
  }
  registered_.clear();
  current_exit_.clear();
  if (++epoch_ == 0) {
    std::fill(stamp_, stamp_ + kBlockIndexSpace, 0u);
    epoch_ = 1;
  }
}

CoverageAccumulator::CoverageAccumulator(const CoverageMap& map)
    : map_(&map), words_((kBlockIndexSpace + 63) / 64, 0) {}

std::uint32_t CoverageAccumulator::add(const ExitCoverage& exit_cov) {
  std::uint32_t gained = 0;
  for (BlockKey key : exit_cov.blocks) {
    if (key >= kBlockIndexSpace) continue;
    std::uint64_t& word = words_[key >> 6];
    const std::uint64_t mask = 1ULL << (key & 63);
    if ((word & mask) == 0) {
      word |= mask;
      ++unique_;
      gained += map_->loc_of(key);
    }
  }
  total_loc_ += gained;
  return gained;
}

std::uint32_t CoverageAccumulator::loc_not_in(const CoverageAccumulator& other) const {
  std::uint32_t total = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t diff = words_[w] & ~other.words_[w];
    while (diff != 0) {
      const int bit = std::countr_zero(diff);
      total += map_->loc_of(static_cast<BlockKey>((w << 6) | bit));
      diff &= diff - 1;
    }
  }
  return total;
}

}  // namespace iris::hv
