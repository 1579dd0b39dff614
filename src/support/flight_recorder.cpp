#include "support/flight_recorder.h"

#include <sys/mman.h>
#include <time.h>

#include <algorithm>
#include <cstdlib>

namespace iris::support {
namespace {

constexpr std::uint64_t kHeaderMagic = 0x4952465231ULL;  // "IRFR" v1

std::size_t round_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* to_string(CrumbType type) noexcept {
  switch (type) {
    case CrumbType::kNone: return "none";
    case CrumbType::kVmExit: return "vm_exit";
    case CrumbType::kVmcsWrite: return "vmcs_write";
    case CrumbType::kMutant: return "mutant";
    case CrumbType::kSnapshotRestore: return "snapshot_restore";
    case CrumbType::kFailpointHit: return "failpoint_hit";
    case CrumbType::kModelFault: return "model_fault";
    case CrumbType::kPhaseBegin: return "phase_begin";
    case CrumbType::kPhaseEnd: return "phase_end";
  }
  return "?";
}

const char* to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::kReset: return "reset";
    case Phase::kRecord: return "record";
    case Phase::kMutate: return "mutate";
    case Phase::kReplay: return "replay";
  }
  return "?";
}

std::uint64_t flight_now_us() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

FlightRecorder::FlightRecorder(std::size_t capacity, std::size_t log_capacity) {
  capacity_ = round_pow2(capacity < 2 ? 2 : capacity);
  mask_ = capacity_ - 1;
  log_capacity_ = round_pow2(log_capacity < 2 ? 2 : log_capacity);
  log_mask_ = log_capacity_ - 1;
  const std::size_t raw = sizeof(Header) + capacity_ * sizeof(Slot) +
                          log_capacity_ * sizeof(LogSlot);
  map_bytes_ = (raw + 4095) & ~std::size_t{4095};
  void* m = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (m == MAP_FAILED) {
    // Degrade to process-local memory: the API keeps working, but a
    // SIGKILLed child's crumbs are lost (shared() reports it).
    m = std::calloc(1, map_bytes_);
    shared_ = false;
  } else {
    shared_ = true;  // mmap memory arrives zero-filled
  }
  auto* base = static_cast<std::uint8_t*>(m);
  map_ = m;
  header_ = reinterpret_cast<Header*>(base);
  slots_ = reinterpret_cast<Slot*>(base + sizeof(Header));
  log_slots_ =
      reinterpret_cast<LogSlot*>(base + sizeof(Header) + capacity_ * sizeof(Slot));
  header_->magic = kHeaderMagic;
}

FlightRecorder::~FlightRecorder() {
  if (map_ == nullptr) return;
  if (shared_) {
    ::munmap(map_, map_bytes_);
  } else {
    std::free(map_);
  }
}

void FlightRecorder::arm() noexcept {
  t_crumb_sink = this;
  g_flight_recorders_armed.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::disarm() noexcept {
  if (t_crumb_sink == this) t_crumb_sink = nullptr;
  g_flight_recorders_armed.fetch_sub(1, std::memory_order_relaxed);
}

void FlightRecorder::reset() noexcept {
  for (std::size_t i = 0; i < capacity_; ++i)
    slots_[i].seq.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < log_capacity_; ++i)
    log_slots_[i].seq.store(0, std::memory_order_relaxed);
  header_->cursor.store(0, std::memory_order_relaxed);
  header_->log_cursor.store(0, std::memory_order_relaxed);
  write_ordinal_ = 0;
  log_ordinal_ = 0;
}

FlightHarvest FlightRecorder::harvest() const {
  FlightHarvest out;

  // Collect every published slot. A single writer guarantees distinct
  // ordinals; stamps that do not map back to their slot index are
  // corruption and are dropped like torn slots.
  std::uint64_t max_stamp = 0;
  out.crumbs.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const std::uint64_t seq = slots_[i].seq.load(std::memory_order_acquire);
    if (seq == 0) continue;
    const std::uint64_t ordinal = seq - 1;
    if ((ordinal & mask_) != i) continue;
    max_stamp = std::max(max_stamp, seq);
    Crumb c;
    c.ordinal = ordinal;
    c.type = static_cast<CrumbType>(slots_[i].type);
    c.a = slots_[i].a;
    c.b = slots_[i].b;
    out.crumbs.push_back(c);
  }
  std::sort(out.crumbs.begin(), out.crumbs.end(),
            [](const Crumb& x, const Crumb& y) { return x.ordinal < y.ordinal; });

  // The cursor may lag max_stamp by one (kill between the stamp store
  // and the cursor store) or lead it (kill between the stamp zeroing
  // and the re-publish); the decoder trusts whichever saw more.
  const std::uint64_t cursor = header_->cursor.load(std::memory_order_acquire);
  out.total = std::max(cursor, max_stamp);
  const std::uint64_t window = std::min<std::uint64_t>(out.total, capacity_);
  out.overwritten = out.total - window;
  out.torn = window - std::min<std::uint64_t>(window, out.crumbs.size());

  // Pair phase spans in begin order; a per-phase stack keeps nesting,
  // and spans the fault interrupted stay open (closed = false).
  std::vector<std::size_t> open[4];
  for (const Crumb& c : out.crumbs) {
    if (c.type == CrumbType::kPhaseBegin) {
      const auto phase = static_cast<std::size_t>(c.a) & 3;
      open[phase].push_back(out.spans.size());
      out.spans.push_back(SpanRecord{static_cast<Phase>(phase), c.b, 0, false});
    } else if (c.type == CrumbType::kPhaseEnd) {
      const auto phase = static_cast<std::size_t>(c.a) & 3;
      if (!open[phase].empty()) {
        SpanRecord& span = out.spans[open[phase].back()];
        open[phase].pop_back();
        span.end_us = c.b;
        span.closed = true;
      }
    }
  }

  // Log tail, same stamp discipline.
  std::vector<std::pair<std::uint64_t, std::string>> lines;
  lines.reserve(log_capacity_);
  for (std::size_t i = 0; i < log_capacity_; ++i) {
    const std::uint64_t seq = log_slots_[i].seq.load(std::memory_order_acquire);
    if (seq == 0) continue;
    if (((seq - 1) & log_mask_) != i) continue;
    const char* text = log_slots_[i].text;
    lines.emplace_back(seq - 1,
                       std::string(text, strnlen(text, kLogLineBytes)));
  }
  std::sort(lines.begin(), lines.end());
  out.log_tail.reserve(lines.size());
  for (auto& [ordinal, text] : lines) out.log_tail.push_back(std::move(text));
  return out;
}

}  // namespace iris::support
