// The one frame a sandboxed cell child sends its parent.
//
// Layout (little-endian, support/serialize.h): magic u32, payload length
// u32, fnv1a(payload) u64, payload. Two magics share the shape: a cell
// result ("IRSB", fuzz/campaign.cpp) and a structured model fault
// ("IRMF", support/model_fault.h). The child writes exactly one frame
// and exits 0; anything else the parent reads from the pipe — a short
// read, a bad checksum, trailing bytes — is a torn or corrupt frame,
// classified as a protocol fault and never a crash.
#pragma once

#include <cstdint>
#include <span>

#include "support/result.h"

namespace iris::support {

/// Why bytes are not one frame. The values are the detail codes of the
/// kProtocol harness fault the parent records.
enum class FrameError : int {
  kMalformed = 0,  ///< short header, other magic, or a length mismatch
  kChecksum = 1,   ///< payload checksum mismatch
};

/// Child side: write `payload` to `fd` as one `magic` frame and _exit(0).
/// A pipe that refuses the bytes ends in _exit(3), which the parent
/// records as a kExit fault.
[[noreturn]] void send_frame(int fd, std::uint32_t magic,
                             std::span<const std::uint8_t> payload);

/// Parent side: the payload of the one `magic` frame that fills `bytes`
/// exactly (a view into `bytes`).
Result<std::span<const std::uint8_t>, FrameError> decode_frame(
    std::span<const std::uint8_t> bytes, std::uint32_t magic);

}  // namespace iris::support
