// The byte codec shared by every binary format in the tree: the shard
// wire protocol's frames and payloads (hbn/shard/wire.h) and the
// epoch-boundary checkpoint (hbn/serve/checkpoint.h).
//
// ByteWriter appends fields to a byte string; ByteReader reads them
// back off a string_view without copying. Encodings:
//
//   u8/u32/u64/i32/i64  fixed-width little-endian
//   f64                 the IEEE-754 bit pattern as a u64 (exact)
//   varint              unsigned LEB128: 7 bits per byte, low group
//                       first, high bit set on every byte but the last
//   str                 u64 length + bytes (the wire's string form)
//   block               varint length + bytes
//
// The reader is the trust boundary for untrusted bytes. It throws
// std::invalid_argument on underflow, on a truncated varint, on an
// over-long varint (more than ten bytes, bits beyond 64, or a
// non-minimal encoding), and on any length prefix larger than the
// bytes that remain — the last before anything is allocated, so a
// corrupted prefix cannot drive an allocation past the input's size.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hbn::util {

/// FNV-1a 64-bit over `bytes`: the frame and checkpoint checksum.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

/// Appends little-endian fields to a byte string. Fields are stored
/// through a raw pointer into room opened a chunk at a time, so a varint
/// costs a few instructions (a checkpoint writes hundreds of thousands)
/// while the string's own geometric growth keeps appends amortised
/// O(1) and leaves its spare capacity untouched (a large frame faults
/// in no more pages than it fills).
class ByteWriter {
 public:
  void u8(std::uint8_t v) {
    *room(1) = static_cast<char>(v);
    ++size_;
  }
  void u32(std::uint32_t v) { putLe(v); }
  void u64(std::uint64_t v) { putLe(v); }
  void i32(std::int32_t v) { putLe(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { putLe(static_cast<std::uint64_t>(v)); }
  void f64(double v) { putLe(std::bit_cast<std::uint64_t>(v)); }
  void varint(std::uint64_t v) {
    char* p = room(10);
    std::size_t n = 0;
    while (v >= 0x80) {
      p[n++] = static_cast<char>(v | 0x80);
      v >>= 7;
    }
    p[n++] = static_cast<char>(v);
    size_ += n;
  }
  void str(std::string_view v) {
    u64(v.size());
    raw(v);
  }
  void block(std::string_view v) {
    varint(v.size());
    raw(v);
  }
  /// Appends `v` with no length prefix.
  void raw(std::string_view v) {
    if (v.empty()) return;
    std::memcpy(room(v.size()), v.data(), v.size());
    size_ += v.size();
  }

  void reserve(std::size_t bytes) { buf_.reserve(bytes); }
  [[nodiscard]] std::string_view view() const noexcept {
    return {buf_.data(), size_};
  }
  [[nodiscard]] std::string take() {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }

 private:
  static constexpr std::size_t kChunk = 4096;

  /// Room for `n` more bytes at the end; returns where they go (the
  /// caller advances size_ by what it wrote).
  char* room(std::size_t n) {
    if (buf_.size() - size_ < n) buf_.resize(size_ + std::max(n, kChunk));
    return buf_.data() + size_;
  }
  template <typename T>
  void putLe(T v) {
    char* p = room(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    size_ += sizeof(T);
  }

  std::string buf_;  ///< written bytes, then up to a chunk of room
  std::size_t size_ = 0;
};

/// Reads fields off a byte string; see the file comment for what it
/// rejects.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() { return readLe<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return readLe<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(readLe<std::uint32_t>());
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(readLe<std::uint64_t>());
  }
  [[nodiscard]] double f64() {
    return std::bit_cast<double>(readLe<std::uint64_t>());
  }
  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      if (pos_ == bytes_.size()) fail("truncated varint");
      const auto byte = static_cast<std::uint8_t>(bytes_[pos_++]);
      if (shift == 63 && byte > 1) fail("over-long varint (beyond 64 bits)");
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        if (byte == 0 && shift > 0) {
          fail("over-long varint (non-minimal encoding)");
        }
        return v;
      }
    }
  }
  /// A varint that must not exceed `max`; `what` names the field.
  [[nodiscard]] std::uint64_t varint(std::uint64_t max, const char* what) {
    const std::uint64_t v = varint();
    if (v > max) fail(std::string(what) + " out of range");
    return v;
  }
  [[nodiscard]] std::string str() {
    return std::string(take(u64(), "string"));
  }
  /// A varint-prefixed block, viewed in place (valid while the
  /// underlying bytes are).
  [[nodiscard]] std::string_view block() { return take(varint(), "block"); }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  /// Every byte must be consumed — trailing bytes mean the two sides
  /// disagree about the layout.
  void finish() const {
    if (pos_ != bytes_.size()) fail("trailing bytes");
  }

 private:
  [[noreturn]] static void fail(const std::string& why) {
    throw std::invalid_argument("bytes: " + why);
  }
  void need(std::size_t n) const {
    if (n > bytes_.size() - pos_) fail("truncated input");
  }
  std::string_view take(std::uint64_t n, const char* what) {
    if (n > bytes_.size() - pos_) {
      fail(std::string(what) + " length exceeds the remaining bytes");
    }
    const std::string_view out =
        bytes_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }
  template <typename T>
  [[nodiscard]] T readLe() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace hbn::util
