// Structured model-layer faults and their containment route.
//
// PR 7 proved harness faults (segfaults, hangs, torn pipes) are
// contained at cell granularity. Model faults are the other class: an
// *invariant violation inside the VM/emulator model itself* — a pooled
// reset that left residual state, an entry check walking impossible
// VMCS state, an EPT walk that cannot happen. Those are bugs in the
// system under reproduction, and the containment layer must classify
// them separately from harness deaths (telemetry and triage care
// whether the harness or the model broke).
//
// The route: a model layer that detects a violation — or a model-site
// failpoint (`model_vmentry:modelfault:cell=3`, see failpoints.h) —
// calls raise() with a structured ModelFault. Inside a sandboxed cell
// child a sink pipe is installed, so raise() frames the fault ("IRMF"
// magic + checksummed payload, the same shape as the result frame) onto
// the result pipe and exits cleanly; the campaign parent parses it into
// a HarnessFault of kind kModelFault with the full structured detail.
// Outside a sandbox there is nowhere safe to deliver it: raise()
// prints and aborts, loudly — an uncontained model fault must never be
// silently survived.
//
// Site checks are designed for hot paths: check_site() is one relaxed
// atomic load (failpoints::model_sites_armed) when no model rule is
// armed, cheap enough for Vmcs::hw_write at millions of mutants/sec.
#pragma once

#include <cstdint>
#include <string>

#include "support/failpoints.h"
#include "support/result.h"
#include "support/serialize.h"

namespace iris::support::modelfault {

/// Which model layer detected (or injected) the fault.
enum class Layer : std::uint8_t {
  kVmEntry = 0,          ///< vtx entry checks: each VM entry whose control
                         ///< checks pass (memo hit or miss), and
                         ///< check_guest_state(const Vmcs&, ...)
  kVmcsWrite = 1,        ///< every Vmcs::hw_write (exit-info latch,
                         ///< guest-state sync, seed injection)
  kEptWalk = 2,          ///< mem::Ept::translate
  kSnapshotRestore = 3,  ///< mem::AddressSpace::restore_pages
  kPooledReset = 4,      ///< fuzz::PooledVm::reset fidelity digest
};
inline constexpr std::uint8_t kNumLayers = 5;

const char* to_string(Layer layer);

struct ModelFault {
  Layer layer = Layer::kVmEntry;
  std::int32_t code = 0;  ///< layer-specific detail (injected: rule detail)
  std::string message;

  [[nodiscard]] std::string describe() const;
};

/// Frame magic for a model fault delivered over the sandbox result pipe
/// ("IRMF"): magic u32, payload length u32, fnv1a(payload) u64, payload
/// (serialize_model_fault). Distinguished from a result frame by the
/// magic alone.
inline constexpr std::uint32_t kModelFaultFrameMagic = 0x49524D46;

void serialize_model_fault(const ModelFault& fault, ByteWriter& out);
Result<ModelFault> deserialize_model_fault(ByteReader& in);

/// Grid-cell identity for model-site failpoint filters (`cell=K`).
/// Thread-local; the cell body holds a CellScope around the fuzz run,
/// and a forked child inherits the forking thread's scope.
class CellScope {
 public:
  explicit CellScope(std::uint64_t index) noexcept;
  ~CellScope();
  CellScope(const CellScope&) = delete;
  CellScope& operator=(const CellScope&) = delete;

 private:
  std::uint64_t saved_;
};

std::uint64_t current_cell() noexcept;

/// Install (fd >= 0) or remove (fd < 0) the contained-delivery sink.
/// The sandbox child points this at its result pipe right after fork.
void set_sink_fd(int fd) noexcept;

/// Deliver a model fault. With a sink installed: frame it onto the pipe
/// and _exit(0) — the parent classifies it. Without one: print and
/// abort; an uncontained model fault is a fatal bug, not a condition.
[[noreturn]] void raise(const ModelFault& fault);

/// Slow path of check_site: evaluate the failpoint rule table for
/// `site` at the current cell and act on any hit (modelfault -> raise,
/// alloc -> execute_alloc, anything else -> execute_fatal).
void check_site_slow(const char* site, Layer layer);

/// Model-site failpoint check. Unarmed cost: one relaxed load — safe
/// on the hottest model paths.
inline void check_site(const char* site, Layer layer) {
  if (failpoints::model_sites_armed()) [[unlikely]] {
    check_site_slow(site, layer);
  }
}

}  // namespace iris::support::modelfault
