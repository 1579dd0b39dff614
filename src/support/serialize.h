// Binary serialization for VM seeds and experiment artifacts.
//
// The paper's seed record is a packed {flag:1B, encoding:1B, value:8B}
// struct (§V-A); this writer/reader pair produces exactly that layout,
// little-endian, so serialized corpora are stable across builds.
//
// Every primitive is defined here so it inlines into the (de)serializer
// loops: one size check and one append or load per field.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "support/result.h"

namespace iris {

namespace detail {
/// `v` with its bytes swapped into little-endian order, and back: a
/// no-op on little-endian hosts.
template <typename T>
constexpr T little_endian(T v) noexcept {
  if constexpr (std::endian::native == std::endian::little || sizeof(T) == 1) {
    return v;
  } else {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xFF));
    }
    return out;
  }
}
}  // namespace detail

/// Append-only little-endian byte writer.
class ByteWriter {
 public:
  /// Pre-size the buffer for `n` bytes in total (exact-size serializers).
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void bytes(std::span<const std::uint8_t> data) { append(data.data(), data.size()); }
  /// u32 length prefix + raw bytes.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename T>
  void put(T v) {
    v = detail::little_endian(v);
    append(&v, sizeof(T));
  }

  // Resize-then-copy rather than insert(): GCC 12 at -O3 reports a
  // false -Wstringop-overflow for insert() of a small stack object.
  void append(const void* src, std::size_t n) {
    if (n == 0) return;  // memcpy needs non-null pointers even for 0 bytes
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, src, n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian byte reader. A read past the end fails
/// with Error{1, "truncated byte stream"}.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  Result<std::uint8_t> u8() { return load<std::uint8_t>(); }
  Result<std::uint16_t> u16() { return load<std::uint16_t>(); }
  Result<std::uint32_t> u32() { return load<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return load<std::uint64_t>(); }
  Result<std::string> str() {
    auto len = u32();
    if (!len.ok()) return len.error();
    if (remaining() < len.value()) return truncated();
    const char* at = reinterpret_cast<const char*>(data_.data() + pos_);
    pos_ += len.value();
    return std::string(at, len.value());
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  static Error truncated() { return Error{1, "truncated byte stream"}; }

  template <typename T>
  Result<T> load() {
    if (remaining() < sizeof(T)) return truncated();
    T v = 0;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return detail::little_endian(v);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// FNV-1a 64-bit hash for corpus deduplication and coverage bitmaps.
constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace iris
