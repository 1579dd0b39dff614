#include "vtx/vmcs.h"

#include "support/flight_recorder.h"

namespace iris::vtx {

std::string_view to_string(VmcsLaunchState s) noexcept {
  switch (s) {
    case VmcsLaunchState::kInactiveNotCurrentClear:
      return "Inactive Not-current Clear";
    case VmcsLaunchState::kActiveCurrentClear:
      return "Active Current Clear";
    case VmcsLaunchState::kActiveCurrentLaunched:
      return "Active Current Launched";
  }
  return "?";
}

VmxOutcome Vmcs::vmread(VmcsField field, std::uint64_t& out) const {
  if (!is_valid_field_encoding(static_cast<std::uint16_t>(field))) {
    last_error_ = VmInstructionError::kUnsupportedVmcsComponent;
    return VmxOutcome::fail(last_error_);
  }
  out = hw_read(field);
  last_error_ = VmInstructionError::kNone;
  return VmxOutcome::success();
}

VmxOutcome Vmcs::vmwrite(VmcsField field, std::uint64_t value) {
  if (!is_valid_field_encoding(static_cast<std::uint16_t>(field))) {
    last_error_ = VmInstructionError::kUnsupportedVmcsComponent;
    return VmxOutcome::fail(last_error_);
  }
  if (is_read_only(field)) {
    last_error_ = VmInstructionError::kVmwriteReadOnlyComponent;
    return VmxOutcome::fail(last_error_);
  }
  const std::uint64_t masked = value & width_mask(field);
  // Software VMWRITEs are rare enough to crumb unconditionally — this
  // is the path the fuzzer's injected mutation takes, so the ring's
  // newest kVmcsWrite is usually the exact write under test at fault.
  if (support::flight_recorder_armed()) [[unlikely]] {
    support::crumb_vmcs_write(static_cast<std::uint64_t>(field), masked);
  }
  fields_[static_cast<std::size_t>(
      compact_from_encoding(static_cast<std::uint16_t>(field)))] = masked;
  last_error_ = VmInstructionError::kNone;
  return VmxOutcome::success();
}

void Vmcs::clear() {
  fields_.fill(0);
  launch_state_ = VmcsLaunchState::kInactiveNotCurrentClear;
  last_error_ = VmInstructionError::kNone;
}

}  // namespace iris::vtx
