#ifndef PRESERIAL_COMMON_CODING_H_
#define PRESERIAL_COMMON_CODING_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace preserial {

// The byte codec of every log record: Value, Row, WalRecord (the
// coordinator's records included), ReplicaRecord and the CRC frame around
// each of them. Integers are little-endian at a fixed width, doubles are
// their IEEE bits as a u64, and strings are a u64 length then the bytes.
// DESIGN.md §6 ("One log byte format") tabulates the record layouts.

// Appends encoded fields to a string.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutBool(bool b) { PutU8(b ? 1 : 0); }
  void PutU32(uint32_t v) { PutFixed(v, 4); }
  void PutU64(uint64_t v) { PutFixed(v, 8); }
  void PutF64(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  void PutString(std::string_view s) {
    PutU64(s.size());
    out_->append(s);
  }
  // The frame of one log record: [u32 len][u32 crc32(payload)][payload].
  void PutFrame(std::string_view payload);

 private:
  void PutFixed(uint64_t v, int width) {
    char b[8];
    for (int i = 0; i < width; ++i) b[i] = static_cast<char>(v >> (8 * i));
    out_->append(b, static_cast<size_t>(width));
  }

  std::string* out_;
};

// Reads fields back from a byte view. The first defect (a field cut short,
// a count the remaining bytes cannot hold, an enum or bool byte out of
// range) latches kCorruption and moves the read position to the end, so
// every later Get returns a zero value: a decoder reads all its fields and
// checks status() once, before it trusts what it read.
class Reader {
 public:
  // `what` prefixes every error message ("wal", "replica", ...).
  Reader(std::string_view buf, const char* what, size_t offset = 0)
      : buf_(buf), what_(what), offset_(offset) {
    if (offset_ > buf_.size()) Fail("offset past the end");
  }

  uint8_t GetU8() {
    if (remaining() < 1) {
      Truncated();
      return 0;
    }
    return static_cast<uint8_t>(buf_[offset_++]);
  }
  // Only 0 and 1 are a bool.
  bool GetBool() {
    const uint8_t v = GetU8();
    if (v > 1) Fail("bool byte is neither 0 nor 1");
    return v == 1;
  }
  uint32_t GetU32() { return static_cast<uint32_t>(GetFixed(4)); }
  uint64_t GetU64() { return GetFixed(8); }
  double GetF64() { return std::bit_cast<double>(GetU64()); }
  std::string GetString();

  // One enum byte, which must lie in [first, last].
  template <typename E>
  E GetEnum(E first, E last) {
    const uint8_t v = GetU8();
    if (v < static_cast<uint8_t>(first) || v > static_cast<uint8_t>(last)) {
      Fail("enum byte out of range");
      return first;
    }
    return static_cast<E>(v);
  }

  // An element count of width sizeof(T). Each element takes at least
  // `min_bytes_per_item` bytes, so a count the remaining bytes cannot hold
  // is corruption, caught before the caller reserves room for it.
  template <typename T = uint64_t>
  T Count(size_t min_bytes_per_item) {
    const uint64_t n = GetFixed(sizeof(T));
    if (n > remaining() / min_bytes_per_item) {
      Fail("count exceeds the bytes left");
      return 0;
    }
    return static_cast<T>(n);
  }

  // Reads one PutFrame frame into *payload. Returns false, consuming
  // nothing, when the bytes end inside the frame (a torn tail); a CRC
  // mismatch latches kCorruption.
  bool GetFrame(std::string_view* payload);

  // Latches kCorruption (the first call wins) and skips to the end.
  void Fail(std::string_view why);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  // status(), or kCorruption when bytes are left over.
  Status Finish();

  size_t offset() const { return offset_; }
  size_t remaining() const { return buf_.size() - offset_; }

 private:
  uint64_t GetFixed(size_t width) {
    if (remaining() < width) {
      Truncated();
      return 0;
    }
    uint64_t v = 0;
    for (size_t i = 0; i < width; ++i) {
      v |= uint64_t{static_cast<unsigned char>(buf_[offset_ + i])} << (8 * i);
    }
    offset_ += width;
    return v;
  }
  void Truncated();

  std::string_view buf_;
  const char* what_;
  size_t offset_;
  Status status_;
};

}  // namespace preserial

#endif  // PRESERIAL_COMMON_CODING_H_
