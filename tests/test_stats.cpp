#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "stats/stats.hpp"
#include "stats/table.hpp"

namespace dualrad {
namespace {

TEST(Stats, SummaryBasics) {
  const auto s = stats::summarize({3, 1, 2, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, EvenCountMedianAveragesMiddlePair) {
  // Regression: the median of an even-sized sample is the average of the
  // two middle elements, not the upper one.
  const auto s = stats::summarize({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  const auto t = stats::summarize({10, 20});
  EXPECT_DOUBLE_EQ(t.median, 15.0);
}

TEST(Stats, P90IsNearestRank) {
  // Regression: for n = 10 the nearest-rank 90th percentile is the 9th
  // sorted value (rank ceil(0.9 * 10) = 9), not the maximum.
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(stats::summarize(ten).p90, 9.0);
  // n = 5: rank ceil(4.5) = 5 -> the maximum.
  EXPECT_DOUBLE_EQ(stats::summarize({1, 2, 3, 4, 5}).p90, 5.0);
  // n = 1: the only sample.
  EXPECT_DOUBLE_EQ(stats::summarize({7}).p90, 7.0);
  // n = 20: rank 18.
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(stats::summarize(twenty).p90, 18.0);
}

TEST(Stats, SummaryEmptyAndSingle) {
  EXPECT_EQ(stats::summarize({}).count, 0u);
  const auto s = stats::summarize({7});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, SummaryRounds) {
  const auto s = stats::summarize_rounds({Round{10}, Round{20}});
  EXPECT_DOUBLE_EQ(s.mean, 15.0);
}

TEST(Stats, WilsonHalfWidthShrinksWithTrials) {
  const double w100 = stats::wilson_half_width(50, 100);
  const double w10000 = stats::wilson_half_width(5000, 10000);
  EXPECT_GT(w100, w10000);
  EXPECT_LT(w100, 0.15);
}

TEST(Table, RendersAlignedColumns) {
  stats::Table table({"algo", "rounds"});
  table.add_row({"strong select", "123"});
  table.add_row({"rr", "7"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| algo          | rounds |"), std::string::npos);
  EXPECT_NE(out.find("| strong select | 123    |"), std::string::npos);
  EXPECT_NE(out.find("| rr            | 7      |"), std::string::npos);
}

TEST(Table, RejectsBadArity) {
  stats::Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(stats::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(stats::Table::num(12345LL), "12345");
}

}  // namespace
}  // namespace dualrad
