#include "trace/parsec_model.h"

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "analysis/extrapolate.h"

namespace twl {

// Without this, gtest prints a ParsecBenchmark parameter as its raw bytes,
// which include the heap address of `name`, so the listed test names would
// change from run to run.
void PrintTo(const ParsecBenchmark& b, std::ostream* os) { *os << b.name; }

namespace {

TEST(ParsecModel, HasAll13Benchmarks) {
  EXPECT_EQ(parsec_benchmarks().size(), 13u);
}

TEST(ParsecModel, LookupByName) {
  const auto& b = parsec_benchmark("vips");
  EXPECT_DOUBLE_EQ(b.write_mbps, 3309.0);
  EXPECT_DOUBLE_EQ(b.ideal_years, 16.0);
  EXPECT_DOUBLE_EQ(b.nowl_years, 0.9);
}

TEST(ParsecModel, LookupUnknownThrows) {
  EXPECT_THROW((void)parsec_benchmark("doom"), std::invalid_argument);
}

TEST(ParsecModel, MakeSourceRejectsFootprintsBelowTwoPages) {
  for (const std::uint64_t pages : {0, 1}) {
    EXPECT_THROW((void)parsec_benchmark("canneal").make_source(pages, 1),
                 std::invalid_argument)
        << pages;
  }
}

TEST(ParsecModel, Table2ValuesMatchThePaper) {
  const std::map<std::string, std::tuple<double, double, double>> expected{
      {"blackscholes", {121, 446, 14.5}}, {"bodytrack", {271, 199, 8.0}},
      {"canneal", {319, 169, 2.9}},       {"dedup", {1529, 35, 2.5}},
      {"facesim", {1101, 49, 3.0}},       {"ferret", {1025, 52, 1.2}},
      {"fluidanimate", {1092, 49, 2.0}},  {"freqmine", {491, 110, 6.4}},
      {"rtview", {351, 154, 5.4}},        {"streamcluster", {12, 4229, 132.2}},
      {"swaptions", {120, 449, 12.8}},    {"vips", {3309, 16, 0.9}},
      {"x264", {538, 100, 2.0}},
  };
  for (const auto& b : parsec_benchmarks()) {
    ASSERT_TRUE(expected.count(b.name)) << b.name;
    const auto& [mbps, ideal, nowl] = expected.at(b.name);
    EXPECT_DOUBLE_EQ(b.write_mbps, mbps) << b.name;
    EXPECT_DOUBLE_EQ(b.ideal_years, ideal) << b.name;
    EXPECT_DOUBLE_EQ(b.nowl_years, nowl) << b.name;
  }
}

TEST(ParsecModel, IdealYearsFollowFromBandwidth) {
  // The consistency that pins kEffectiveWriteFactor = 2: the Table 2
  // ideal-lifetime column must be reproducible from the bandwidth column
  // within reported-value rounding (~7%).
  const RealSystem real;
  for (const auto& b : parsec_benchmarks()) {
    const double computed = ideal_years_from_bandwidth(real, b.write_mbps);
    EXPECT_NEAR(computed / b.ideal_years, 1.0, 0.08) << b.name;
  }
}

TEST(ParsecModel, TargetTopFractionInvertsNowlRatio) {
  const auto& b = parsec_benchmark("blackscholes");
  const double f = b.target_top_fraction(4096);
  // ratio = 14.5/446; f = 1/(4096*ratio).
  EXPECT_NEAR(f, 1.0 / (4096.0 * (14.5 / 446.0)), 1e-12);
}

TEST(ParsecModel, SourceHotPageShareMatchesCalibration) {
  const auto& b = parsec_benchmark("canneal");
  const std::uint64_t pages = 2048;
  const auto src = b.make_source(pages, 42);
  std::map<std::uint32_t, int> counts;
  int writes = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const auto req = src->next();
    if (req.op != Op::kWrite) continue;
    ++writes;
    ++counts[req.addr.value()];
  }
  int hottest = 0;
  for (const auto& [addr, c] : counts) hottest = std::max(hottest, c);
  const double target = b.target_top_fraction(pages);
  EXPECT_NEAR(static_cast<double>(hottest) / writes, target,
              target * 0.15 + 0.002);
}

TEST(ParsecModel, SourcesAreDeterministicPerSeed) {
  const auto& b = parsec_benchmark("ferret");
  const auto a1 = b.make_source(256, 5);
  const auto a2 = b.make_source(256, 5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a1->next().addr, a2->next().addr);
  }
}

TEST(ParsecModel, SourceNamesMatchBenchmark) {
  for (const auto& b : parsec_benchmarks()) {
    EXPECT_EQ(b.make_source(128, 1)->name(), b.name);
  }
}

class ParsecAllBenchmarks
    : public ::testing::TestWithParam<ParsecBenchmark> {};

TEST_P(ParsecAllBenchmarks, CalibrationSolvable) {
  const ParsecBenchmark& b = GetParam();
  for (const std::uint64_t pages : {256ull, 1024ull, 4096ull}) {
    const double f = b.target_top_fraction(pages);
    EXPECT_GT(f, 1.0 / static_cast<double>(pages)) << b.name;
    EXPECT_LE(f, 0.95) << b.name;
    EXPECT_NE(b.make_source(pages, 3), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRows, ParsecAllBenchmarks, ::testing::ValuesIn(parsec_benchmarks()),
    [](const ::testing::TestParamInfo<ParsecBenchmark>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace twl
