#include "trace/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/checksum.h"
#include "trace/parsec_model.h"

namespace twl {
namespace {

// The sampler's CDF as the binary-search sampler built it.
std::vector<double> reference_cdf(std::uint64_t n, double s) {
  std::vector<double> cdf;
  double cum = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    cum += std::pow(static_cast<double>(k + 1), -s);
    cdf.push_back(cum);
  }
  const double total = cdf.back();
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

// The oracle: the binary-search inverse CDF the guide table replaced.
std::uint64_t reference_rank(const std::vector<double>& cdf, double u) {
  return static_cast<std::uint64_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

TEST(ZipfSampler, ExponentZeroIsUniform) {
  ZipfSampler z(8, 0.0);
  EXPECT_NEAR(z.top_probability(), 1.0 / 8.0, 1e-12);
}

TEST(ZipfSampler, TopProbabilityMatchesHarmonic) {
  ZipfSampler z(100, 1.0);
  EXPECT_NEAR(z.top_probability(), 1.0 / ZipfSampler::harmonic(100, 1.0),
              1e-12);
}

TEST(ZipfSampler, HarmonicKnownValues) {
  EXPECT_DOUBLE_EQ(ZipfSampler::harmonic(1, 1.0), 1.0);
  EXPECT_NEAR(ZipfSampler::harmonic(4, 1.0), 1 + 0.5 + 1.0 / 3 + 0.25,
              1e-12);
  EXPECT_DOUBLE_EQ(ZipfSampler::harmonic(5, 0.0), 5.0);
}

TEST(ZipfSampler, SamplesStayInRange) {
  ZipfSampler z(16, 1.2);
  XorShift64Star rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(z.sample(rng), 16u);
  }
}

TEST(ZipfSampler, EmpiricalTopFrequencyMatchesTheory) {
  ZipfSampler z(64, 1.0);
  XorShift64Star rng(2);
  const int n = 200000;
  int top = 0;
  for (int i = 0; i < n; ++i) {
    if (z.sample(rng) == 0) ++top;
  }
  EXPECT_NEAR(static_cast<double>(top) / n, z.top_probability(), 0.01);
}

TEST(ZipfSampler, MonotoneRankFrequencies) {
  ZipfSampler z(8, 1.5);
  XorShift64Star rng(3);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng)];
  for (int r = 1; r < 8; ++r) {
    EXPECT_GE(counts[r - 1], counts[r] - 300);
  }
}

TEST(SolveExponent, RecoversKnownExponent) {
  const double s_true = 1.3;
  const double top = 1.0 / ZipfSampler::harmonic(1000, s_true);
  const double s = ZipfSampler::solve_exponent_for_top_fraction(1000, top);
  EXPECT_NEAR(s, s_true, 1e-6);
}

TEST(SolveExponent, UniformBoundary) {
  // top_frac barely above 1/n -> s near 0.
  const double s =
      ZipfSampler::solve_exponent_for_top_fraction(100, 0.0101);
  EXPECT_LT(s, 0.05);
}

TEST(SolveExponent, HighConcentration) {
  const double s = ZipfSampler::solve_exponent_for_top_fraction(100, 0.9);
  ZipfSampler z(100, s);
  EXPECT_NEAR(z.top_probability(), 0.9, 1e-6);
}

class SolveExponentRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(SolveExponentRoundTrip, TopFractionRoundTrips) {
  const double target = GetParam();
  const double s =
      ZipfSampler::solve_exponent_for_top_fraction(4096, target);
  ZipfSampler z(4096, s);
  EXPECT_NEAR(z.top_probability(), target, target * 1e-6 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SolveExponentRoundTrip,
                         ::testing::Values(0.001, 0.005, 0.01, 0.05, 0.2,
                                           0.5, 0.9));

// Oracle grid: the guide-table sampler against std::lower_bound over the
// same CDF, for every size x exponent. At s = 64 the CDF saturates: every
// entry is exactly 1.0.
using OracleCase = std::tuple<std::uint64_t, double>;

class ZipfOracle : public ::testing::TestWithParam<OracleCase> {};

std::string oracle_case_name(
    const ::testing::TestParamInfo<OracleCase>& info) {
  std::string s = std::to_string(std::get<1>(info.param));
  s.erase(s.find_last_not_of('0') + 1);
  if (s.back() == '.') s.pop_back();
  std::replace(s.begin(), s.end(), '.', 'p');
  return "n" + std::to_string(std::get<0>(info.param)) + "_s" + s;
}

TEST_P(ZipfOracle, CdfIsTheReferenceCdf) {
  const auto [n, s] = GetParam();
  const ZipfSampler z(n, s);
  EXPECT_EQ(z.size(), n);
  EXPECT_EQ(z.cdf(), reference_cdf(n, s));
}

TEST_P(ZipfOracle, RankAtMatchesLowerBoundOnEveryEdge) {
  const auto [n, s] = GetParam();
  const ZipfSampler z(n, s);
  const std::vector<double> cdf = reference_cdf(n, s);
  std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
  auto around = [&us](double v) {
    for (const double u : {std::nextafter(v, 0.0), v, std::nextafter(v, 1.0)}) {
      if (u >= 0.0 && u < 1.0) us.push_back(u);
    }
  };
  // Every bucket edge j/m, computed as the sampler computes it.
  const std::uint64_t m = ZipfSampler::kBucketsPerRank * n;
  for (std::uint64_t j = 0; j <= m; ++j) {
    around(static_cast<double>(j) / static_cast<double>(m));
  }
  for (const double c : cdf) around(c);
  for (const double u : us) {
    ASSERT_EQ(z.rank_at(u), reference_rank(cdf, u)) << "u = " << u;
  }
}

// 10^7 draws over the 42 cases of the grid.
TEST_P(ZipfOracle, SampleMatchesLowerBoundOnRandomDraws) {
  const auto [n, s] = GetParam();
  const ZipfSampler z(n, s);
  const std::vector<double> cdf = reference_cdf(n, s);
  XorShift64Star rng(n * 1000003 + static_cast<std::uint64_t>(s * 1000));
  XorShift64Star same(n * 1000003 + static_cast<std::uint64_t>(s * 1000));
  constexpr int kDraws = 10'000'000 / 42 + 1;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t got = z.sample(rng);
    const std::uint64_t want = reference_rank(cdf, same.next_double());
    if (got != want) {
      FAIL() << "draw " << i << ": rank " << got << ", want " << want;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ZipfOracle,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 64, 1000,
                                                        1024, 4097),
                       ::testing::Values(0.0, 0.469, 0.795, 1.0, 3.0, 64.0)),
    oracle_case_name);

TEST(ZipfSampler, RejectsEmptyAndOversizedRankSets) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  // Checked before the CDF is allocated.
  const std::uint64_t too_many =
      std::uint64_t{std::numeric_limits<std::uint32_t>::max()} + 2;
  EXPECT_THROW(ZipfSampler(too_many, 1.0), std::invalid_argument);
}

TEST(ZipfSampler, RejectsExponentsWithoutFiniteProbabilities) {
  for (const double s : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         -2000.0}) {
    EXPECT_THROW(ZipfSampler(8, s), std::invalid_argument) << s;
  }
}

TEST(SolveExponent, RejectsUnsolvableInputs) {
  EXPECT_THROW((void)ZipfSampler::solve_exponent_for_top_fraction(0, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)ZipfSampler::solve_exponent_for_top_fraction(1, 1.0),
               std::invalid_argument);
  for (const double top : {0.0, 0.01, 1.5, -0.5,
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)ZipfSampler::solve_exponent_for_top_fraction(100, top),
                 std::invalid_argument)
        << top;
  }
}

// Golden streams: CRC-32 (little-endian u32 addresses) of the first 2^20
// write addresses of each PARSEC source at 1024 pages, and the requests it
// took to reach them. Captured from the binary-search sampler; any change
// to the sampler's ranks or RNG draws moves them.
struct StreamGolden {
  const char* name;
  std::uint32_t crc;
  std::uint64_t requests;
};

void PrintTo(const StreamGolden& g, std::ostream* os) { *os << g.name; }

class ParsecStreamGolden : public ::testing::TestWithParam<StreamGolden> {};

TEST_P(ParsecStreamGolden, FirstMebiWriteAddresses) {
  const StreamGolden& g = GetParam();
  auto source = parsec_benchmark(g.name).make_source(1024, 20170618);
  constexpr std::uint64_t kWrites = std::uint64_t{1} << 20;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(4 * kWrites);
  std::uint64_t requests = 0;
  while (bytes.size() < 4 * kWrites) {
    const MemoryRequest req = source->next();
    ++requests;
    if (req.op != Op::kWrite) continue;
    const std::uint32_t a = req.addr.value();
    for (int b = 0; b < 4; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(a >> (8 * b)));
    }
  }
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), g.crc);
  EXPECT_EQ(requests, g.requests);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, ParsecStreamGolden,
    ::testing::Values(StreamGolden{"blackscholes", 0x0f9e9023u, 2622201},
                      StreamGolden{"bodytrack", 0x68e6c3dcu, 2618447},
                      StreamGolden{"canneal", 0x831b01f1u, 2620066},
                      StreamGolden{"dedup", 0x93c1074eu, 2622485},
                      StreamGolden{"facesim", 0xfed80a5bu, 2622551},
                      StreamGolden{"ferret", 0x66c5c595u, 2621296},
                      StreamGolden{"fluidanimate", 0x49b62552u, 2623478},
                      StreamGolden{"freqmine", 0x1fd30b53u, 2619931},
                      StreamGolden{"rtview", 0xae7c714fu, 2620921},
                      StreamGolden{"streamcluster", 0x078c3b08u, 2620622},
                      StreamGolden{"swaptions", 0xaf93795cu, 2622824},
                      StreamGolden{"vips", 0x814dea5fu, 2615112},
                      StreamGolden{"x264", 0xc1683c34u, 2624679}),
    [](const ::testing::TestParamInfo<StreamGolden>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace twl
