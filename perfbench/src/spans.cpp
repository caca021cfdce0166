#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double clock_read_ns() {
  // Spans are summed, so the correction is the mean cost of a read; the
  // slowest tenth (interrupts, migrations) is dropped so one stall does not
  // skew it.
  std::vector<std::uint64_t> d(20001);
  for (auto& v : d) {
    const std::uint64_t a = now_ns();
    const std::uint64_t b = now_ns();
    v = b - a;
  }
  std::sort(d.begin(), d.end());
  const std::size_t keep = d.size() * 9 / 10;
  double sum = 0.0;
  for (std::size_t i = 0; i < keep; ++i) sum += static_cast<double>(d[i]);
  return sum / static_cast<double>(keep);
}

std::uint32_t SpanLog::name_id(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::map<std::string, double> SpanLog::self_ns() const {
  // Children are always appended after their parent, so one reverse sweep
  // folds every span's descendants into it before the parent is visited.
  const std::size_t n = spans_.size();
  std::vector<std::uint64_t> descendants(n, 0);
  std::vector<double> child_net(n, 0.0);
  std::vector<double> self(names_.size(), 0.0);
  for (std::size_t i = n; i-- > 0;) {
    const Span& s = spans_[i];
    const double net = static_cast<double>(s.end - s.start) - clock_ns_ -
                       2.0 * clock_ns_ * static_cast<double>(descendants[i]);
    self[s.name] += net - child_net[i];
    if (s.parent != kRoot) {
      descendants[s.parent] += descendants[i] + 1;
      child_net[s.parent] += net;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t id = 0; id < names_.size(); ++id) {
    out[names_[id]] = self[id];
  }
  return out;
}

void SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%llu,%llu,%lld,%llu\n", names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end),
                 s.parent == kRoot ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
