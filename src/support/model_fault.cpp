#include "support/model_fault.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "support/flight_recorder.h"
#include "support/sandbox_frame.h"

namespace iris::support::modelfault {
namespace {

std::atomic<int> g_sink_fd{-1};

thread_local std::uint64_t t_current_cell = failpoints::kAnyIndex;

}  // namespace

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kVmEntry:
      return "vmentry";
    case Layer::kVmcsWrite:
      return "vmcs_write";
    case Layer::kEptWalk:
      return "ept_walk";
    case Layer::kSnapshotRestore:
      return "snapshot_restore";
    case Layer::kPooledReset:
      return "pooled_reset";
  }
  return "unknown";
}

std::string ModelFault::describe() const {
  std::string out = "model fault in ";
  out += to_string(layer);
  out += " (code " + std::to_string(code) + ")";
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  return out;
}

void serialize_model_fault(const ModelFault& fault, ByteWriter& out) {
  out.u8(static_cast<std::uint8_t>(fault.layer));
  out.u32(static_cast<std::uint32_t>(fault.code));
  out.str(fault.message);
}

Result<ModelFault> deserialize_model_fault(ByteReader& in) {
  auto layer = in.u8();
  auto code = in.u32();
  auto message = in.str();
  if (!layer.ok() || !code.ok() || !message.ok()) {
    return Error{88, "truncated model fault"};
  }
  if (layer.value() >= kNumLayers) {
    return Error{89, "bad layer in model fault"};
  }
  ModelFault fault;
  fault.layer = static_cast<Layer>(layer.value());
  fault.code = static_cast<std::int32_t>(code.value());
  fault.message = std::move(message).take();
  return fault;
}

CellScope::CellScope(std::uint64_t index) noexcept : saved_(t_current_cell) {
  t_current_cell = index;
}

CellScope::~CellScope() { t_current_cell = saved_; }

std::uint64_t current_cell() noexcept { return t_current_cell; }

void set_sink_fd(int fd) noexcept {
  g_sink_fd.store(fd, std::memory_order_relaxed);
}

void raise(const ModelFault& fault) {
  if (flight_recorder_armed()) [[unlikely]] {
    // Last breadcrumb before delivery: the structured fault itself,
    // harvestable by the parent even though _exit follows immediately.
    crumb_model_fault(static_cast<std::uint64_t>(fault.layer),
                      static_cast<std::uint64_t>(fault.code));
  }
  const int fd = g_sink_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    // Contained: frame the fault onto the sandbox child's socket and exit
    // cleanly. The parent tells the frame apart from a result by its
    // magic, verifies the checksum, and classifies the cell attempt as
    // a kModelFault harness fault carrying this structure.
    ByteWriter payload;
    serialize_model_fault(fault, payload);
    send_frame(fd, kModelFaultFrameMagic, payload.data());
  }
  // Uncontained: this is a model bug with no sandbox to absorb it.
  // Dying loudly here is the point — silently surviving an invariant
  // violation would poison every later result in the process.
  std::fprintf(stderr, "fatal uncontained %s\n", fault.describe().c_str());
  std::abort();
}

void check_site_slow(const char* site, Layer layer) {
  const auto hit = failpoints::evaluate(site, t_current_cell);
  if (!hit) return;
  switch (hit->action) {
    case failpoints::Hit::Action::kModelFault:
      raise(ModelFault{layer, hit->detail,
                       "injected model fault at " + std::string(site)});
    case failpoints::Hit::Action::kAlloc:
      failpoints::execute_alloc(hit->amount);
      return;
    case failpoints::Hit::Action::kErrno:
      // Model layers have no errno path; an errno rule on a model site
      // still means "break this layer here" — raise it structured.
      raise(ModelFault{layer, hit->detail,
                       "injected fault at " + std::string(site)});
    default:
      failpoints::execute_fatal(*hit);
      return;
  }
}

}  // namespace iris::support::modelfault
