#include "trace/synthetic.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>

namespace twl {
namespace {

SyntheticParams params(std::uint64_t pages, double s, double stream,
                       double read) {
  SyntheticParams p;
  p.pages = pages;
  p.zipf_s = s;
  p.stream_frac = stream;
  p.read_frac = read;
  p.seed = 7;
  return p;
}

TEST(SyntheticTrace, AddressesInRange) {
  SyntheticTrace t(params(64, 1.0, 0.2, 0.5));
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(t.next().addr.value(), 64u);
  }
}

TEST(SyntheticTrace, ReadFractionRespected) {
  SyntheticTrace t(params(64, 1.0, 0.0, 0.6));
  int reads = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (t.next().op == Op::kRead) ++reads;
  }
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.6, 0.02);
}

TEST(SyntheticTrace, ZeroReadFractionIsAllWrites) {
  SyntheticTrace t(params(64, 1.0, 0.0, 0.0));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(t.next().op, Op::kWrite);
  }
}

TEST(SyntheticTrace, HottestPageGetsTopShare) {
  SyntheticParams p = params(256, 0.0, 0.0, 0.0);
  p.zipf_s = ZipfSampler::solve_exponent_for_top_fraction(256, 0.3);
  SyntheticTrace t(p);
  std::map<std::uint32_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[t.next().addr.value()];
  EXPECT_NEAR(static_cast<double>(counts[t.hottest_page().value()]) / n, 0.3,
              0.02);
}

TEST(SyntheticTrace, HotPageIsScatteredNotZero) {
  // Different seeds scatter the hot rank to different pages.
  SyntheticParams a = params(1024, 2.0, 0.0, 0.0);
  a.seed = 1;
  SyntheticParams b = a;
  b.seed = 2;
  EXPECT_NE(SyntheticTrace(a).hottest_page(),
            SyntheticTrace(b).hottest_page());
}

TEST(SyntheticTrace, StreamComponentCoversSpaceSequentially) {
  SyntheticTrace t(params(16, 0.0, 1.0, 0.0));
  // Pure stream: consecutive addresses modulo the footprint.
  const auto first = t.next().addr.value();
  const auto second = t.next().addr.value();
  EXPECT_EQ((first + 1) % 16, second);
}

TEST(SyntheticTrace, DeterministicForSeed) {
  SyntheticTrace a(params(64, 1.0, 0.3, 0.4));
  SyntheticTrace b(params(64, 1.0, 0.3, 0.4));
  for (int i = 0; i < 1000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    EXPECT_EQ(ra.op, rb.op);
    EXPECT_EQ(ra.addr, rb.addr);
  }
}

TEST(SyntheticTrace, RejectsOutOfRangeParams) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SyntheticParams p = params(0, 1.0, 0.1, 0.6);
  EXPECT_THROW(SyntheticTrace{p}, std::invalid_argument);
  for (const double read : {-0.1, 1.0, 1.5, nan}) {
    p = params(64, 1.0, 0.1, read);
    EXPECT_THROW(SyntheticTrace{p}, std::invalid_argument) << read;
  }
  for (const double stream : {-0.1, 1.1, nan}) {
    p = params(64, 1.0, stream, 0.6);
    EXPECT_THROW(SyntheticTrace{p}, std::invalid_argument) << stream;
  }
  p = params(64, nan, 0.1, 0.6);
  EXPECT_THROW(SyntheticTrace{p}, std::invalid_argument);
  // The edges of each range are legal.
  EXPECT_NO_THROW(SyntheticTrace{params(1, 1.0, 0.0, 0.0)});
  EXPECT_NO_THROW(SyntheticTrace{params(64, 1.0, 1.0, 0.0)});
}

TEST(UniformTrace, RejectsEmptyFootprint) {
  EXPECT_THROW(UniformTrace(0, 0.5, 1), std::invalid_argument);
}

TEST(UniformTrace, UniformCoverage) {
  UniformTrace t(32, 0.0, 3);
  std::map<std::uint32_t, int> counts;
  const int n = 64000;
  for (int i = 0; i < n; ++i) ++counts[t.next().addr.value()];
  for (const auto& [addr, count] : counts) {
    EXPECT_NEAR(count, n / 32, n / 32 * 0.15) << addr;
  }
}

}  // namespace
}  // namespace twl
