#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace ks {
namespace {

TEST(ParseNumber, AcceptsWholeFieldInsideRange) {
  EXPECT_DOUBLE_EQ(*ParseNumber("0.25", "x", 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(*ParseNumber("1", "x", 0.0, 1.0), 1.0);
  EXPECT_EQ(*ParseNumber("1e3", "n", 0, 5000), 1000);
  EXPECT_EQ(*ParseNumber<std::size_t>("7", "n", 0, 10), 7u);
}

TEST(ParseNumber, RejectsNonNumbersNonFiniteAndOutOfRange) {
  for (const char* text :
       {"", "abc", "1x", "nan", "-nan", "inf", "-inf", "1e400", "-0.5",
        "1.5"}) {
    const auto v = ParseNumber(text, "x", 0.0, 1.0);
    EXPECT_FALSE(v.ok()) << text;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(ParseNumber, IntegerFieldsRejectFractionsAndCastOnlyInRange) {
  EXPECT_FALSE(ParseNumber("2.5", "n", 0, 10).ok());
  // Each of these would be an undefined double-to-integer cast.
  EXPECT_FALSE(ParseNumber("1e300", "n", 0, 10).ok());
  EXPECT_FALSE(ParseNumber<std::size_t>("-1", "n", 0, 10).ok());
  EXPECT_FALSE(
      ParseNumber<std::int64_t>("1e19", "n", 0, INT64_C(1000000000)).ok());
}

TEST(ParseNumber, ErrorNamesTheFieldAndRange) {
  const auto v = ParseNumber("nan", "until", 0.0, 10.0);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("until='nan'"), std::string::npos);
  EXPECT_NE(v.status().message().find("[0, 10]"), std::string::npos);
}

}  // namespace
}  // namespace ks
