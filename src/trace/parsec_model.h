// PARSEC benchmark workload models (Table 2).
//
// The paper collects gem5 memory traces from the 13 PARSEC benchmarks and
// replays them in loops until a page wears out. We do not have gem5 or the
// trace files, so each benchmark is modeled as a SyntheticTrace whose
// parameters are *calibrated against Table 2*:
//
//  * the write bandwidth column is taken as-is (it is an input the paper
//    measured, not a result);
//  * the ideal-lifetime column follows analytically from the bandwidth
//    (see analysis/extrapolate.h, effective write factor kappa = 2, which
//    back-derives consistently from every row of Table 2);
//  * the no-wear-leveling lifetime column pins the *skew* of the address
//    distribution: under the identity mapping the hottest page dies after
//    E_hot/f_top writes, so the paper's ideal/no-WL ratio fixes the
//    traffic share f_top of the hottest page, and the Zipf exponent is
//    solved from it at whatever footprint the simulation uses. This keeps
//    the normalized-lifetime columns scale-invariant.
//
// The substitution is documented in DESIGN.md section 2.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/synthetic.h"

namespace twl {

struct ParsecBenchmark {
  std::string name;
  double write_mbps;      ///< Table 2, measured by the paper.
  double ideal_years;     ///< Table 2.
  double nowl_years;      ///< Table 2, lifetime without wear leveling.
  double stream_frac;     ///< Streaming share of writes (model parameter).
  double read_frac;       ///< Read share of requests (model parameter).

  /// f_top the hottest page must receive so the identity mapping
  /// reproduces nowl_years at a footprint of `pages`.
  [[nodiscard]] double target_top_fraction(std::uint64_t pages) const;

  /// Build the calibrated request source over `pages` logical pages.
  /// Throws std::invalid_argument if pages is below 2.
  [[nodiscard]] std::unique_ptr<SyntheticTrace> make_source(
      std::uint64_t pages, std::uint64_t seed) const;
};

/// The 13 PARSEC benchmarks of Table 2.
[[nodiscard]] const std::vector<ParsecBenchmark>& parsec_benchmarks();

/// Lookup by name; throws std::invalid_argument if absent.
[[nodiscard]] const ParsecBenchmark& parsec_benchmark(
    const std::string& name);

}  // namespace twl
