// Zipf-distributed page sampling.
//
// The PARSEC workload models express each benchmark's write-locality skew
// as a Zipf exponent over its footprint; the exponent is *calibrated* so
// that the hottest page's traffic share reproduces the paper's measured
// no-wear-leveling lifetime (Table 2). See trace/parsec_model.h.
//
// Sampling is an exact inverse CDF: one uniform draw u, and the rank is
// the first whose cumulative probability is at least u (what
// std::lower_bound over the CDF returns). A guide table (Chen & Asau;
// Devroye, Non-Uniform Random Variate Generation, §III.2) gives the
// search a starting rank next to the answer, so a draw costs O(1)
// expected comparisons instead of O(log n). See DESIGN.md §2.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace twl {

class ZipfSampler {
 public:
  /// Guide-table buckets per rank. At 4 the expected scan is under two
  /// CDF comparisons and the table costs 16 bytes per rank.
  static constexpr std::uint64_t kBucketsPerRank = 4;

  /// Zipf over ranks {0, .., n-1} with P(rank k) proportional to
  /// 1/(k+1)^s. s = 0 is uniform. Throws std::invalid_argument if n is 0
  /// or above 2^32 (ranks are stored as 32-bit guide entries), or if s
  /// does not give finite probabilities.
  ZipfSampler(std::uint64_t n, double s);

  /// Draw a rank (0 = most popular) from one rng.next_double().
  [[nodiscard]] std::uint64_t sample(XorShift64Star& rng) const;

  /// The inverse CDF: the first rank whose cumulative probability is at
  /// least u, for u in [0, 1).
  [[nodiscard]] std::uint64_t rank_at(double u) const;

  [[nodiscard]] double exponent() const { return s_; }
  [[nodiscard]] std::uint64_t size() const { return cdf_.size(); }

  /// Normalized cumulative probabilities; the last entry is exactly 1.
  [[nodiscard]] const std::vector<double>& cdf() const { return cdf_; }

  /// Probability of the most popular rank.
  [[nodiscard]] double top_probability() const;

  /// Generalized harmonic number H(n, s).
  [[nodiscard]] static double harmonic(std::uint64_t n, double s);

  /// Solve for the exponent s such that the hottest of `n` ranks receives
  /// a fraction `top_frac` of the traffic (i.e. 1/H(n,s) == top_frac).
  /// Throws std::invalid_argument unless n > 1 and top_frac lies in
  /// (1/n, 1]. Bisection to ~1e-12.
  [[nodiscard]] static double solve_exponent_for_top_fraction(
      std::uint64_t n, double top_frac);

 private:
  double s_;
  std::vector<double> cdf_;  ///< Normalized cumulative probabilities.
  /// guide_[j] is the first rank whose CDF value is at least j/m, for
  /// m = kBucketsPerRank * n buckets and j in [0, m].
  std::vector<std::uint32_t> guide_;
  double buckets_;  ///< m, as the scale from u to a bucket index.
};

}  // namespace twl
