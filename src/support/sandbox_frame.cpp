#include "support/sandbox_frame.h"

#include <cerrno>

#include <sys/socket.h>
#include <unistd.h>

#include "support/serialize.h"

namespace iris::support {

bool write_frame(int fd, std::uint32_t magic,
                 std::span<const std::uint8_t> payload) {
  ByteWriter frame;
  frame.u32(magic);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u64(fnv1a(payload));
  frame.bytes(payload);
  const auto& bytes = frame.data();
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::uint8_t* const at = bytes.data() + off;
    ::ssize_t n = ::send(fd, at, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, at, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void send_frame(int fd, std::uint32_t magic,
                std::span<const std::uint8_t> payload) {
  ::_exit(write_frame(fd, magic, payload) ? 0 : 3);
}

bool read_frame(int fd, std::vector<std::uint8_t>& out) {
  out.resize(kFrameHeaderBytes);
  std::size_t got = 0;
  while (got < out.size()) {
    const ::ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
    if (got == kFrameHeaderBytes) out.resize(frame_size(out));
  }
  return true;
}

std::size_t frame_size(std::span<const std::uint8_t> header) {
  ByteReader r(header.subspan(4, 4));
  return kFrameHeaderBytes + r.u32().value();
}

std::uint32_t frame_magic(std::span<const std::uint8_t> header) {
  ByteReader r(header.first(4));
  return r.u32().value();
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
