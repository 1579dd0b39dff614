#include "support/sandbox_frame.h"

#include <cerrno>

#include <unistd.h>

#include "support/serialize.h"

namespace iris::support {

void send_frame(int fd, std::uint32_t magic,
                std::span<const std::uint8_t> payload) {
  ByteWriter frame;
  frame.u32(magic);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u64(fnv1a(payload));
  frame.bytes(payload);
  const auto& bytes = frame.data();
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::_exit(3);  // undeliverable; the parent records kExit
    }
    off += static_cast<std::size_t>(n);
  }
  ::_exit(0);
}

Result<std::span<const std::uint8_t>, FrameError> decode_frame(
    std::span<const std::uint8_t> bytes, std::uint32_t magic) {
  ByteReader r(bytes);
  const auto got = r.u32();
  const auto len = r.u32();
  const auto checksum = r.u64();
  if (!got.ok() || got.value() != magic || !len.ok() || !checksum.ok() ||
      len.value() != r.remaining()) {
    return FrameError::kMalformed;
  }
  const auto payload = bytes.last(len.value());
  if (fnv1a(payload) != checksum.value()) return FrameError::kChecksum;
  return payload;
}

}  // namespace iris::support
