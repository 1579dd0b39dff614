// Atomic filesystem publication helpers, shared by the seed DB and the
// campaign persistence components.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "support/result.h"

namespace iris {

/// Write `bytes` to `dir/name` atomically: the payload lands in a
/// dot-prefixed temp file in the same directory (so the rename cannot
/// cross filesystems) and is renamed into place. Readers never observe
/// a partial file; a killed writer leaves only an ignorable temp.
/// The temp name carries per-process entropy (an ASLR-randomized
/// address) plus a per-process counter, so two processes publishing
/// the same content-hash name concurrently cannot scribble over each
/// other's temp file — last rename wins with intact bytes.
inline Status write_file_atomic(const std::filesystem::path& dir,
                                const std::string& name,
                                std::span<const std::uint8_t> bytes) {
  namespace fs = std::filesystem;
  static std::atomic<std::uint64_t> counter{0};
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), ".%llx-%llu.tmp",
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(&counter)),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  const fs::path tmp = dir / ("." + name + suffix);
  const fs::path final_path = dir / name;
  {
    // Stream failures capture errno so retry policies can classify the
    // condition (EINTR/ESTALE retryable, ENOSPC not).
    errno = 0;
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Error{20, "cannot open " + tmp.string(), errno};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      const int saved = errno;
      std::error_code ec;
      fs::remove(tmp, ec);
      return Error{21, "write failed: " + tmp.string(), saved};
    }
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) {
    const int saved = ec.value();
    fs::remove(tmp, ec);
    return Error{22, "rename failed: " + final_path.string(), saved};
  }
  return {};
}

/// Read a whole file with one sized buffer: the size comes from
/// fstat(), and a single read loop (EINTR retried) fills it and then
/// confirms end of file, growing the buffer only if the file grew. Every
/// failure is Error{41} with `sys_errno` set: the open fails, the path
/// is not a regular file (EISDIR for a directory, EINVAL otherwise), or
/// a read fails. No I/O failure throws.
inline Result<std::vector<std::uint8_t>> read_file_bytes(
    const std::filesystem::path& path) {
  // errno is read before the message string is built.
  const auto failure = [&](const char* what, int err) {
    return Error{41, what + path.string(), err};
  };
  // The FILE only owns the descriptor ("e" = O_CLOEXEC); no stdio
  // buffering is used.
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rbe"), &std::fclose);
  if (!file) return failure("cannot open ", errno);
  const int fd = ::fileno(file.get());
  struct stat st {};
  if (::fstat(fd, &st) != 0) return failure("cannot stat ", errno);
  if (!S_ISREG(st.st_mode)) {
    return failure("not a regular file: ", S_ISDIR(st.st_mode) ? EISDIR : EINVAL);
  }
  // One byte of headroom lets the end-of-file read land without a
  // regrowth when the size is exact.
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size) + 1);
  std::size_t got = 0;
  for (;;) {
    if (got == bytes.size()) bytes.resize(bytes.size() * 2);
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      return failure("read failed: ", errno);
    }
  }
  bytes.resize(got);
  return bytes;
}

}  // namespace iris
