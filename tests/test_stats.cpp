// Support-library statistics: Histogram::quantile edge cases (the empty /
// q=0 / q=1 / overflow contract) and the StatSet dump format the golden
// tests snapshot; plus the strict numeric parser the command-line tools
// share.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "liberty/support/stats.hpp"
#include "liberty/support/strings.hpp"

namespace {

using liberty::Histogram;
using liberty::StatSet;

TEST(Histogram, EmptyQuantileIsZero) {
  const Histogram h(4, 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileZeroIsZero) {
  Histogram h(4, 1.0);
  h.add(2.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), 0.0);
}

TEST(Histogram, QuantileWalksBuckets) {
  Histogram h(4, 1.0);  // buckets [0,1) [1,2) [2,3) [3,4) + overflow
  h.add(0.5);
  h.add(1.5);
  h.add(2.5);
  h.add(3.5);
  // Rank ceil(q*4): upper edge of the bucket holding that sample.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.51), 3.0);  // rank 3 after ceiling
}

TEST(Histogram, QuantileOneIsLastOccupiedBucketEdge) {
  Histogram h(4, 2.0);
  h.add(1.0);  // bucket 0
  h.add(5.0);  // bucket 2
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 6.0);   // upper edge of [4,6)
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 6.0);   // q clamps to 1
}

TEST(Histogram, OverflowSamplesReportOverflowEdge) {
  Histogram h(4, 1.0);
  h.add(0.5);
  h.add(100.0);  // lands in the overflow bucket
  // 5 buckets total (4 regular + overflow): upper edge = 5 * width.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
}

TEST(Histogram, SingleSample) {
  Histogram h(8, 0.5);
  h.add(1.2);  // bucket 2 = [1.0, 1.5)
  EXPECT_DOUBLE_EQ(h.quantile(0.01), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.5);
}

TEST(StatSet, DumpIncludesQuantiles) {
  StatSet stats;
  stats.counter("events").inc(3);
  auto& h = stats.histogram("latency", 16, 1.0);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10));
  std::ostringstream oss;
  stats.dump(oss, "mod");
  const std::string out = oss.str();
  EXPECT_NE(out.find("mod.events = 3"), std::string::npos) << out;
  EXPECT_NE(out.find("p50="), std::string::npos) << out;
  EXPECT_NE(out.find("p95="), std::string::npos) << out;
  EXPECT_NE(out.find("p99="), std::string::npos) << out;
}

TEST(Strings, ParseU64IsStrict) {
  std::uint64_t v = 7;
  for (const char* bad : {"", "abc", "12x", "-3", "+3", " 3", "3 ",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(liberty::parse_u64(bad, v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "'" << bad << "' clobbered the output";
  }
  ASSERT_TRUE(liberty::parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(liberty::parse_u64("42", v));
  EXPECT_EQ(v, 42u);
  ASSERT_TRUE(liberty::parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
}

}  // namespace
