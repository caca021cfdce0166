#include "wl/tossup_wl.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"
#include "wl/shadow_sink.h"

namespace twl {
namespace {

TwlParams twl_params(std::uint32_t interval, std::uint32_t interpair = 0,
                     PairingPolicy pairing = PairingPolicy::kAdjacent,
                     bool two_write = true) {
  TwlParams p;
  p.tossup_interval = interval;
  p.interpair_swap_interval = interpair;
  p.pairing = pairing;
  p.two_write_swap = two_write;
  return p;
}

EnduranceMap two_pages(std::uint64_t e0, std::uint64_t e1) {
  return EnduranceMap(std::vector<std::uint64_t>{e0, e1});
}

TEST(TossUpWl, NamesFollowPairingPolicy) {
  const EnduranceMap map = two_pages(100, 100);
  EXPECT_EQ(TossUpWl(map, twl_params(1), WlLatencies{}, 27, 1).name(),
            "TWL_ap");
  EXPECT_EQ(TossUpWl(map, twl_params(1, 0, PairingPolicy::kStrongWeak),
                     WlLatencies{}, 27, 1)
                .name(),
            "TWL_swp");
  EXPECT_EQ(TossUpWl(map, twl_params(1, 0, PairingPolicy::kRandom),
                     WlLatencies{}, 27, 1)
                .name(),
            "TWL_rnd");
}

TEST(TossUpWl, NoEngineActivityBelowInterval) {
  TossUpWl wl(two_pages(100, 100), twl_params(8), WlLatencies{}, 27, 1);
  testing::ShadowSink sink(2);
  for (int i = 0; i < 7; ++i) wl.write(LogicalPageAddr(0), sink);
  EXPECT_EQ(wl.tossups(), 0u);
  EXPECT_EQ(sink.engine_cycles(), 0u);
  EXPECT_EQ(sink.physical_writes(), 7u);
}

TEST(TossUpWl, TossupFiresEveryIntervalWrites) {
  TossUpWl wl(two_pages(100, 100), twl_params(8), WlLatencies{}, 27, 1);
  testing::ShadowSink sink(2);
  for (int i = 0; i < 64; ++i) wl.write(LogicalPageAddr(0), sink);
  EXPECT_EQ(wl.tossups(), 8u);
}

TEST(TossUpWl, IntervalOneTossesEveryWrite) {
  TossUpWl wl(two_pages(100, 100), twl_params(1), WlLatencies{}, 27, 1);
  testing::ShadowSink sink(2);
  for (int i = 0; i < 100; ++i) wl.write(LogicalPageAddr(0), sink);
  EXPECT_EQ(wl.tossups(), 100u);
}

TEST(TossUpWl, Interval128UsesEighthCounterBit) {
  TossUpWl wl(two_pages(100, 100), twl_params(128), WlLatencies{}, 27, 1);
  testing::ShadowSink sink(2);
  for (int i = 0; i < 256; ++i) wl.write(LogicalPageAddr(0), sink);
  EXPECT_EQ(wl.tossups(), 2u);
}

TEST(TossUpWl, EngineLatencyChargedPerTossup) {
  WlLatencies lat;  // table 10, rng 4, control 5.
  TossUpWl wl(two_pages(100, 100), twl_params(4), lat, 27, 1);
  testing::ShadowSink sink(2);
  for (int i = 0; i < 8; ++i) wl.write(LogicalPageAddr(0), sink);
  // 2 toss-ups, each 3 table accesses + RNG + control = 39 cycles.
  EXPECT_EQ(sink.engine_cycles(), 2u * 39u);
}

TEST(TossUpWl, BiasFollowsEnduranceRatio) {
  // Pair (page0: E=3000, page1: E=1000): 75% of writes should land on
  // page 0 when every write is tossed.
  TossUpWl wl(two_pages(3000, 1000), twl_params(1), WlLatencies{}, 27, 5);
  testing::ShadowSink sink(2);
  const int n = 20000;
  int on_strong = 0;
  for (int i = 0; i < n; ++i) {
    wl.write(LogicalPageAddr(0), sink);
    // After each write, the data of LA 0 sits where the toss-up put it.
    if (wl.map_read(LogicalPageAddr(0)).value() == 0) ++on_strong;
  }
  EXPECT_NEAR(static_cast<double>(on_strong) / n, 0.75, 0.02);
}

TEST(TossUpWl, EqualEnduranceGivesHalfSwapProbability) {
  // Case-1 of Section 4.2: E_A ~= E_B, writes to one fixed address ->
  // Prob(swap) ~= 1/2.
  TossUpWl wl(two_pages(1000, 1000), twl_params(1), WlLatencies{}, 27, 3);
  testing::ShadowSink sink(2);
  const int n = 20000;
  for (int i = 0; i < n; ++i) wl.write(LogicalPageAddr(0), sink);
  const double ratio = static_cast<double>(wl.tossup_swaps()) / n;
  EXPECT_NEAR(ratio, 0.5, 0.02);
}

TEST(TossUpWl, StrongDominantPairRarelySwapsUnderConsistentWrites) {
  // Case-2: E_A >> E_B and p -> 1. Write only the strong page's address:
  // once the data settles on the strong page, swaps become rare.
  TossUpWl wl(two_pages(100000, 1000), twl_params(1), WlLatencies{}, 27, 4);
  testing::ShadowSink sink(2);
  const int n = 20000;
  for (int i = 0; i < n; ++i) wl.write(LogicalPageAddr(0), sink);
  EXPECT_LT(static_cast<double>(wl.tossup_swaps()) / n, 0.05);
}

TEST(TossUpWl, TwoWriteSwapCostsExactlyTwoWrites) {
  // Endurance forces a swap on (almost) every toss: addressed page is
  // hugely weaker, and we always write the weak page's address.
  TossUpWl wl(two_pages(1, 1000000), twl_params(1), WlLatencies{}, 27, 6);
  testing::ShadowSink sink(2);
  wl.write(LogicalPageAddr(0), sink);  // Swap: migrate + demand = 2 writes.
  EXPECT_EQ(wl.tossup_swaps(), 1u);
  EXPECT_EQ(sink.physical_writes(), 2u);
}

TEST(TossUpWl, NaiveSwapCostsThreeWrites) {
  TossUpWl wl(two_pages(1, 1000000),
              twl_params(1, 0, PairingPolicy::kAdjacent, /*two_write=*/false),
              WlLatencies{}, 27, 6);
  testing::ShadowSink sink(2);
  wl.write(LogicalPageAddr(0), sink);
  EXPECT_EQ(wl.tossup_swaps(), 1u);
  EXPECT_EQ(sink.physical_writes(), 3u);
}

TEST(TossUpWl, SwapPreservesBothPagesData) {
  TossUpWl wl(two_pages(1, 1000000), twl_params(1), WlLatencies{}, 27, 6);
  testing::ShadowSink sink(2);
  wl.write(LogicalPageAddr(1), sink);  // Settle LA1's data somewhere.
  wl.write(LogicalPageAddr(0), sink);  // Likely triggers a swap.
  wl.write(LogicalPageAddr(0), sink);
  EXPECT_FALSE(sink.first_integrity_violation(wl).has_value());
}

// The largest legal toss-up interval is 256, one past the 8-bit WCT's
// maximum. The counter saturates at 255, so toss-ups never fire: the
// inter-pair swap tests below use it to isolate the inter-pair engine.
constexpr std::uint32_t kTossupsOff = 256;

TEST(TossUpWl, InterPairSwapFiresOnGlobalInterval) {
  EnduranceMap map(std::vector<std::uint64_t>(64, 1000));
  TwlParams p = twl_params(kTossupsOff, /*interpair=*/16);
  TossUpWl wl(map, p, WlLatencies{}, 27, 7);
  testing::ShadowSink sink(64);
  for (int i = 0; i < 160; ++i) wl.write(LogicalPageAddr(0), sink);
  EXPECT_EQ(wl.tossups(), 0u);
  // Every 16th demand write swaps with a random address (minus the rare
  // self-swap skip).
  EXPECT_GE(wl.interpair_swaps(), 8u);
  EXPECT_LE(wl.interpair_swaps(), 10u);
  EXPECT_FALSE(sink.first_integrity_violation(wl).has_value());
}

TEST(TossUpWl, InterPairSwapRelocatesHammeredPage) {
  EnduranceMap map(std::vector<std::uint64_t>(64, 1000));
  TossUpWl wl(map, twl_params(kTossupsOff, 8), WlLatencies{}, 27, 8);
  testing::ShadowSink sink(64);
  std::set<std::uint32_t> homes;
  for (int i = 0; i < 512; ++i) {
    homes.insert(wl.map_read(LogicalPageAddr(0)).value());
    wl.write(LogicalPageAddr(0), sink);
  }
  EXPECT_EQ(wl.tossups(), 0u);
  EXPECT_GT(homes.size(), 16u);
}

TEST(TossUpWl, RejectsIntervalsTheWctCannotCount) {
  const EnduranceMap map = two_pages(100, 100);
  for (const std::uint32_t interval : {0u, kTossupsOff + 1, 1000000u}) {
    EXPECT_THROW(TossUpWl(map, twl_params(interval), WlLatencies{}, 27, 1),
                 std::invalid_argument)
        << interval;
  }
  EXPECT_NO_THROW(
      TossUpWl(map, twl_params(kTossupsOff), WlLatencies{}, 27, 1));
}

TEST(TossUpWl, StorageIsExactly80BitsPerPage) {
  // Section 5.4: 7 (WCT) + 27 (ET) + 23 (RT) + 23 (SWPT) = 80 bits.
  EnduranceMap map(std::vector<std::uint64_t>(16, 1000));
  TossUpWl wl(map, twl_params(32), WlLatencies{}, 27, 9);
  EXPECT_EQ(wl.storage_bits_per_page(), 80u);
}

TEST(TossUpWl, StatsExposeSwapWriteRatio) {
  TossUpWl wl(two_pages(1000, 1000), twl_params(1), WlLatencies{}, 27, 10);
  testing::ShadowSink sink(2);
  for (int i = 0; i < 1000; ++i) wl.write(LogicalPageAddr(0), sink);
  std::vector<std::pair<std::string, double>> stats;
  wl.append_stats(stats);
  double ratio = -1;
  for (const auto& [k, v] : stats) {
    if (k == "swap_write_ratio") ratio = v;
  }
  EXPECT_NEAR(ratio, 0.5, 0.06);
}

class TossUpPairingPolicies
    : public ::testing::TestWithParam<PairingPolicy> {};

TEST_P(TossUpPairingPolicies, DataIntegrityUnderRandomStress) {
  EnduranceParams ep;
  ep.mean = 10000;
  ep.sigma_frac = 0.11;
  const EnduranceMap map(128, ep, 77);
  TwlParams p = twl_params(4, 32, GetParam());
  TossUpWl wl(map, p, WlLatencies{}, 27, 11);
  testing::ShadowSink sink(128);
  XorShift64Star rng(13);
  for (int i = 0; i < 20000; ++i) {
    wl.write(
        LogicalPageAddr(static_cast<std::uint32_t>(rng.next_below(128))),
        sink);
  }
  EXPECT_FALSE(sink.first_integrity_violation(wl).has_value());
  EXPECT_TRUE(wl.invariants_hold());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, TossUpPairingPolicies,
                         ::testing::Values(PairingPolicy::kAdjacent,
                                           PairingPolicy::kStrongWeak,
                                           PairingPolicy::kRandom));

class TossUpIntervalSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TossUpIntervalSweep, SwapRatioScalesInverselyWithInterval) {
  // Figure 7(a)'s law: with a scan pattern the swap probability per
  // toss-up is ~1/2, so swaps per demand write ~= 1/(2*interval).
  const std::uint32_t interval = GetParam();
  EnduranceMap map(std::vector<std::uint64_t>(64, 100000));
  TossUpWl wl(map, twl_params(interval), WlLatencies{}, 27, 12);
  testing::ShadowSink sink(64);
  const int n = 64 * 64 * static_cast<int>(interval);
  for (int i = 0; i < n; ++i) {
    wl.write(LogicalPageAddr(static_cast<std::uint32_t>(i % 64)), sink);
  }
  const double ratio = static_cast<double>(wl.tossup_swaps()) / n;
  EXPECT_NEAR(ratio, 0.5 / interval, 0.15 / interval + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Intervals, TossUpIntervalSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

}  // namespace
}  // namespace twl
