// The frame a sandboxed cell child and its parent exchange.
//
// Layout (little-endian, support/serialize.h): magic u32, payload length
// u32, fnv1a(payload) u64, payload. Three magics share the shape: a cell
// command from the parent ("IRCC", fuzz/campaign.cpp), a cell result
// ("IRSB", fuzz/campaign.cpp) and a structured model fault ("IRMF",
// support/model_fault.h). A sandbox child is long-lived: it answers each
// cell command with exactly one result or model-fault frame, and a model
// fault also ends it. Anything else the parent reads for a cell — a
// short read, a bad checksum, an unknown magic — is a torn or corrupt
// frame, classified as a protocol fault and never a crash.
//
// Between a sandbox child and its parent, frames travel on a stream
// socket and are written with MSG_NOSIGNAL, so a peer that has gone away
// makes the write fail with EPIPE instead of raising SIGPIPE. Any other
// descriptor (a pipe, say) gets a plain write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/result.h"

namespace iris::support {

/// Why bytes are not one frame. The values are the detail codes of the
/// kProtocol harness fault the parent records.
enum class FrameError : int {
  kMalformed = 0,  ///< short header, other magic, or a length mismatch
  kChecksum = 1,   ///< payload checksum mismatch
};

/// Bytes before a frame's payload: magic, length and checksum.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Write `payload` to `fd` as one `magic` frame. False when `fd`
/// refuses the bytes (on a socket: the peer is gone).
bool write_frame(int fd, std::uint32_t magic,
                 std::span<const std::uint8_t> payload);

/// Child side, last words: write_frame, then _exit(0). A descriptor
/// that refuses the bytes ends in _exit(3), which the parent records as
/// a kExit fault.
[[noreturn]] void send_frame(int fd, std::uint32_t magic,
                             std::span<const std::uint8_t> payload);

/// Blocking read of exactly one frame from `fd` into `out` (header
/// included). False on EOF or an error before the frame is complete.
bool read_frame(int fd, std::vector<std::uint8_t>& out);

/// Total bytes of the frame whose kFrameHeaderBytes-byte header starts
/// `header`.
std::size_t frame_size(std::span<const std::uint8_t> header);

/// The magic of the frame whose header starts `header`.
std::uint32_t frame_magic(std::span<const std::uint8_t> header);

/// Parent side: the payload of the one `magic` frame that fills `bytes`
/// exactly (a view into `bytes`).
Result<std::span<const std::uint8_t>, FrameError> decode_frame(
    std::span<const std::uint8_t> bytes, std::uint32_t magic);

}  // namespace iris::support
