// twl_perfbench: runs one benchmark workload and prints one JSON object.
//
//   twl_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--spans FILE]
//
// perfbench/run.py builds this binary, runs it and gates its outputs; see
// perfbench/WORKLOADS.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_result(const perfbench::RunOptions& opt,
                  const perfbench::Result& r) {
  std::printf("{\"workload\": ");
  print_json_string(opt.workload);
  std::printf(", \"build_type\": ");
  print_json_string(PERFBENCH_BUILD_TYPE);
  std::printf(", \"compiler\": ");
  print_json_string(PERFBENCH_COMPILER);
  std::printf(", \"seed\": %llu, \"trace\": %d, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, value] : r.metrics) {
    std::printf("%s", sep);
    print_json_string(name);
    std::printf(": %.17g", value);
    sep = ", ";
  }
  std::printf("}, \"outputs\": {");
  sep = "";
  for (const auto& [name, value] : r.outputs) {
    std::printf("%s", sep);
    print_json_string(name);
    std::printf(": %s", value.c_str());
    sep = ", ";
  }
  std::printf("}, \"checks\": {");
  sep = "";
  for (const auto& [name, ok] : r.checks) {
    std::printf("%s", sep);
    print_json_string(name);
    std::printf(": %s", ok ? "true" : "false");
    sep = ", ";
  }
  std::printf("}}\n");
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    throw std::invalid_argument("bad value for " + flag + ": " + text);
  }
  return v;
}

int run(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      opt.trace = parse_u64(flag, value) != 0;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const perfbench::Result r = perfbench::run_workload(opt);
  print_result(opt, r);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "twl_perfbench: %s\n", e.what());
    return 2;
  }
}
