#include "common/coding.h"

#include "common/crc32.h"
#include "common/strings.h"

namespace preserial {

void Writer::PutFrame(std::string_view payload) {
  PutU32(static_cast<uint32_t>(payload.size()));
  PutU32(Crc32(payload));
  out_->append(payload);
}

std::string Reader::GetString() {
  const uint64_t n = GetU64();
  if (n > remaining()) {
    Fail("string runs past the end");
    return {};
  }
  std::string s(buf_.substr(offset_, n));
  offset_ += n;
  return s;
}

bool Reader::GetFrame(std::string_view* payload) {
  if (remaining() < 8) return false;
  const size_t start = offset_;
  const uint32_t len = GetU32();
  const uint32_t crc = GetU32();
  if (remaining() < len) {
    offset_ = start;
    return false;
  }
  *payload = buf_.substr(offset_, len);
  if (Crc32(*payload) != crc) {
    offset_ = start;
    Fail("bad crc");
    return true;
  }
  offset_ += len;
  return true;
}

void Reader::Fail(std::string_view why) {
  if (ok()) {
    status_ = Status::Corruption(StrFormat("%s: %.*s at byte %zu", what_,
                                           static_cast<int>(why.size()),
                                           why.data(), offset_));
  }
  offset_ = buf_.size();
}

void Reader::Truncated() { Fail("truncated field"); }

Status Reader::Finish() {
  if (ok() && remaining() > 0) {
    Fail(StrFormat("%zu trailing bytes", remaining()));
  }
  return status_;
}

}  // namespace preserial
