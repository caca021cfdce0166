#include "trace/parsec_model.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace twl {

double ParsecBenchmark::target_top_fraction(std::uint64_t pages) const {
  // Under NOWL the hottest page (expected endurance ~ the mean E) dies
  // after E / f_top demand writes, while the ideal consumes pages * E:
  //   nowl/ideal = (E / f_top) / (pages * E)  =>  f_top = 1/(pages*ratio).
  const double ratio = nowl_years / ideal_years;
  const double f = 1.0 / (static_cast<double>(pages) * ratio);
  // Keep inside the Zipf-solvable range.
  const double lo = 1.05 / static_cast<double>(pages);
  return std::clamp(f, lo, 0.95);
}

std::unique_ptr<SyntheticTrace> ParsecBenchmark::make_source(
    std::uint64_t pages, std::uint64_t seed) const {
  if (pages < 2) {
    throw std::invalid_argument("PARSEC model " + name +
                                ": pages must be at least 2");
  }
  SyntheticParams p;
  p.pages = pages;
  p.stream_frac = stream_frac;
  p.read_frac = read_frac;
  // The streaming component dilutes the hot page's share, so the Zipf
  // component must concentrate correspondingly harder.
  const double f_zipf = std::clamp(
      target_top_fraction(pages) / (1.0 - stream_frac),
      1.05 / static_cast<double>(pages), 0.95);
  p.zipf_s = ZipfSampler::solve_exponent_for_top_fraction(pages, f_zipf);
  std::uint64_t h = seed;
  for (char c : name) h = h * 131 + static_cast<unsigned char>(c);
  p.seed = h;
  return std::make_unique<SyntheticTrace>(p, name);
}

const std::vector<ParsecBenchmark>& parsec_benchmarks() {
  // Columns 2-4 are Table 2 of the paper; stream/read fractions are model
  // parameters chosen per benchmark character (streaming kernels get a
  // larger sequential share).
  static const std::vector<ParsecBenchmark> kTable = {
      //  name            MBps   ideal   noWL  stream read
      {"blackscholes", 121.0, 446.0, 14.5, 0.10, 0.6},
      {"bodytrack", 271.0, 199.0, 8.0, 0.10, 0.6},
      {"canneal", 319.0, 169.0, 2.9, 0.10, 0.6},
      {"dedup", 1529.0, 35.0, 2.5, 0.30, 0.6},
      {"facesim", 1101.0, 49.0, 3.0, 0.30, 0.6},
      {"ferret", 1025.0, 52.0, 1.2, 0.20, 0.6},
      {"fluidanimate", 1092.0, 49.0, 2.0, 0.30, 0.6},
      {"freqmine", 491.0, 110.0, 6.4, 0.10, 0.6},
      {"rtview", 351.0, 154.0, 5.4, 0.10, 0.6},
      {"streamcluster", 12.0, 4229.0, 132.2, 0.50, 0.6},
      {"swaptions", 120.0, 449.0, 12.8, 0.10, 0.6},
      {"vips", 3309.0, 16.0, 0.9, 0.40, 0.6},
      {"x264", 538.0, 100.0, 2.0, 0.30, 0.6},
  };
  return kTable;
}

const ParsecBenchmark& parsec_benchmark(const std::string& name) {
  for (const ParsecBenchmark& b : parsec_benchmarks()) {
    if (b.name == name) return b;
  }
  throw std::invalid_argument("unknown PARSEC benchmark: " + name);
}

}  // namespace twl
