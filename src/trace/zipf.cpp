#include "trace/zipf.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace twl {

namespace {

// Ranks live in 32-bit guide entries, so rank n - 1 must fit in one.
constexpr std::uint64_t kMaxRanks =
    std::uint64_t{std::numeric_limits<std::uint32_t>::max()} + 1;

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : s_(s) {
  if (n == 0 || n > kMaxRanks) {
    throw std::invalid_argument("ZipfSampler: n = " + std::to_string(n) +
                                " must lie in [1, 2^32]");
  }
  if (!std::isfinite(s)) {
    throw std::invalid_argument("ZipfSampler: exponent s must be finite");
  }
  cdf_.reserve(n);
  double cum = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    cum += std::pow(static_cast<double>(k + 1), -s);
    cdf_.push_back(cum);
  }
  const double total = cdf_.back();
  if (!std::isfinite(total)) {
    throw std::invalid_argument("ZipfSampler: exponent s = " +
                                std::to_string(s) +
                                " overflows the normalizing sum");
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // Guard against rounding.

  // One merge pass over the bucket edges j/m and the CDF. The last edge
  // is 1.0, which the last CDF entry meets, so k never runs off the end.
  const std::uint64_t m = kBucketsPerRank * n;
  buckets_ = static_cast<double>(m);
  guide_.resize(m + 1);
  std::uint64_t k = 0;
  for (std::uint64_t j = 0; j <= m; ++j) {
    const double edge = static_cast<double>(j) / buckets_;
    while (cdf_[k] < edge) ++k;
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

std::uint64_t ZipfSampler::sample(XorShift64Star& rng) const {
  return rank_at(rng.next_double());
}

std::uint64_t ZipfSampler::rank_at(double u) const {
  // Start at u's bucket, then walk to the first k with cdf_[k] >= u. The
  // two scans reach that rank from any starting point (the CDF is
  // non-decreasing and ends at 1 > u), so how the bucket edges round
  // changes only the walk's length, never the answer. u * m <= m, the
  // table's last index.
  std::uint64_t k = guide_[static_cast<std::uint64_t>(u * buckets_)];
  while (k > 0 && cdf_[k - 1] >= u) --k;
  while (cdf_[k] < u) ++k;
  return k;
}

double ZipfSampler::top_probability() const {
  return cdf_.front();
}

double ZipfSampler::harmonic(std::uint64_t n, double s) {
  double h = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    h += std::pow(static_cast<double>(k), -s);
  }
  return h;
}

double ZipfSampler::solve_exponent_for_top_fraction(std::uint64_t n,
                                                    double top_frac) {
  if (n < 2) {
    throw std::invalid_argument(
        "solve_exponent_for_top_fraction: n = " + std::to_string(n) +
        " must be at least 2");
  }
  if (!(top_frac > 1.0 / static_cast<double>(n) && top_frac <= 1.0)) {
    throw std::invalid_argument(
        "solve_exponent_for_top_fraction: top_frac = " +
        std::to_string(top_frac) + " must lie in (1/n, 1] for n = " +
        std::to_string(n));
  }
  // 1/H(n, s) is monotonically increasing in s: bisect.
  double lo = 0.0;
  double hi = 64.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double top = 1.0 / harmonic(n, mid);
    if (top < top_frac) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace twl
