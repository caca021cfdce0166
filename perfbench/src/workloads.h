// The benchmark's workloads. Each one builds its stacks from the seed,
// times repeated units of work for the requested seconds (host time), and
// reports either the end-to-end metrics (untraced) or, with `trace`, an
// untraced phase followed by one traced pass that splits the cost per
// demand write into the repo's modules.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< Traced pass: where the spans are written.
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Simulated outputs (digests, books), as JSON values. They repeat
  /// exactly for a seed, so they gate correctness instead of being timed.
  std::map<std::string, std::string> outputs;
  /// Seed-independent consistency checks; every one must hold.
  std::map<std::string, bool> checks;
};

/// Throws std::invalid_argument on an unknown workload.
[[nodiscard]] Result run_workload(const RunOptions& opt);

}  // namespace perfbench
