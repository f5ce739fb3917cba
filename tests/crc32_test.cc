#include "common/crc32.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace preserial {
namespace {

// Bit-at-a-time CRC-32 over the same reflected IEEE polynomial, sharing no
// code or table with the implementation under test.
uint32_t BitwiseCrc32(const unsigned char* p, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32 (IEEE) check values.
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc"), 0x352441C2u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t base = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    EXPECT_NE(Crc32(mutated), base) << "flip at byte " << i;
  }
}

TEST(Crc32Test, SensitiveToLength) {
  EXPECT_NE(Crc32("aa"), Crc32("a"));
  EXPECT_NE(Crc32(std::string("a\0b", 3)), Crc32("ab"));
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = 257;
  std::vector<unsigned char> buf(kMaxLen + 8);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (unsigned char& b : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(x >> 56);
  }
  for (size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buf.data() + align;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint32_t want = BitwiseCrc32(p, len, 0);
      EXPECT_EQ(Crc32(p, len), want) << "len " << len << " align " << align;
      EXPECT_EQ(Crc32(p, len, 0x1badb002u), BitwiseCrc32(p, len, 0x1badb002u))
          << "len " << len << " align " << align;
      // Chaining: the CRC of the head seeds the CRC of the tail.
      for (size_t cut : {len / 3, len / 2, len - len / 7}) {
        EXPECT_EQ(Crc32(p + cut, len - cut, Crc32(p, cut)), want)
            << "len " << len << " align " << align << " cut " << cut;
      }
    }
  }
}

}  // namespace
}  // namespace preserial
