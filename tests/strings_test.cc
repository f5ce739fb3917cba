#include "common/strings.h"

#include <gtest/gtest.h>

namespace preserial {
namespace {

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f s=%s", 3, 1.5, "hi"), "x=3 y=1.50 s=hi");
  EXPECT_EQ(StrFormat("%s", ""), "");
  EXPECT_EQ(StrFormat("%zu", static_cast<size_t>(42)), "42");
}

TEST(StrFormatTest, LongOutput) {
  const std::string big(500, 'x');
  EXPECT_EQ(StrFormat("%s!", big.c_str()).size(), 501u);
}

TEST(PadTest, LeftAndRight) {
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadLeft("abcdef", 3), "abcdef");  // Never truncates.
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
}

}  // namespace
}  // namespace preserial
