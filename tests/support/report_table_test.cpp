#include "metrics/report.hpp"

#include <gtest/gtest.h>

namespace asyncml::metrics {
namespace {

TEST(TableNum, KeepsSignificantDigitsBelowTheIntegerLimit) {
  EXPECT_EQ(Table::num(999.9), "999.9");
  EXPECT_EQ(Table::num(0.01234), "0.01234");
  EXPECT_EQ(Table::num(0.01234, 2), "0.012");
}

TEST(TableNum, NeverDropsIntegerDigits) {
  // Default float formatting would print these as 1e+03 / 1e+03 / 2e+05.
  EXPECT_EQ(Table::num(999.9, 3), "1000");
  EXPECT_EQ(Table::num(1234.5, 1).substr(0, 3), "123");
  EXPECT_EQ(Table::num(1234.5, 1).size(), 4u);
  EXPECT_EQ(Table::num(2e5), "200000");
  EXPECT_EQ(Table::num(2e5, 1), "200000");
  EXPECT_EQ(Table::num(-2e5, 3), "-200000");
}

}  // namespace
}  // namespace asyncml::metrics
