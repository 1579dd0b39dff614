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
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "support/result.h"

namespace iris {

namespace detail {

/// Write `bytes` to a fresh dot-prefixed temp file beside `dir/name`
/// (same directory, so publishing it cannot cross filesystems) and
/// return the temp's path. The name carries the pid, an ASLR-randomized
/// address (entropy across hosts sharing the directory) and a
/// per-process counter, so no two live writers share a temp file. A
/// failed write removes its temp; a killed writer leaves only an
/// ignorable one.
inline Result<std::filesystem::path> write_temp_file(
    const std::filesystem::path& dir, const std::string& name,
    std::span<const std::uint8_t> bytes) {
  static std::atomic<std::uint64_t> counter{0};
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".%d-%llx-%llu.tmp",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(&counter)),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  std::filesystem::path tmp = dir / ("." + name + suffix);
  // Stream failures capture errno so retry policies can classify the
  // condition (EINTR/ESTALE retryable, ENOSPC not).
  errno = 0;
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Error{20, "cannot open " + tmp.string(), errno};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return Error{21, "write failed: " + tmp.string(), saved};
  }
  return tmp;
}

}  // namespace detail

/// Write `bytes` to `dir/name` atomically: the payload lands in a temp
/// file (detail::write_temp_file) that is renamed into place, replacing
/// any existing file. Readers never observe a partial file, and of two
/// concurrent publishers of one name the last rename wins with intact
/// bytes.
inline Status write_file_atomic(const std::filesystem::path& dir,
                                const std::string& name,
                                std::span<const std::uint8_t> bytes) {
  auto tmp = detail::write_temp_file(dir, name, bytes);
  if (!tmp.ok()) return tmp.error();
  const std::filesystem::path final_path = dir / name;
  if (::rename(tmp.value().c_str(), final_path.c_str()) == 0) return {};
  const int saved = errno;
  ::unlink(tmp.value().c_str());
  return Error{22, "rename failed: " + final_path.string(), saved};
}

/// Create `dir/name` holding `bytes`, whole, unless that name exists:
/// the payload lands in the same temp file as write_file_atomic's, and
/// link() publishes it. link never replaces a name, so of any number of
/// racing creators exactly one wins and the others get EEXIST, and no
/// reader or killed creator can ever see the file short. The temp is
/// unlinked either way. Returns whether this call created the file; a
/// temp-file failure is write_file_atomic's Error{20} or Error{21}, and
/// any link failure but EEXIST is Error{22}, each carrying errno. The
/// directory must be on a filesystem with hard links.
inline Result<bool> create_file_atomic(const std::filesystem::path& dir,
                                       const std::string& name,
                                       std::span<const std::uint8_t> bytes) {
  auto tmp = detail::write_temp_file(dir, name, bytes);
  if (!tmp.ok()) return tmp.error();
  const std::filesystem::path final_path = dir / name;
  const int linked = ::link(tmp.value().c_str(), final_path.c_str());
  const int saved = errno;
  ::unlink(tmp.value().c_str());
  if (linked == 0) return true;
  if (saved == EEXIST) return false;
  return Error{22, "link failed: " + final_path.string(), saved};
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
