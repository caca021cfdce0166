// In-memory span recorder for the traced pass.
//
// A span is (name, start, end, parent, request id) around calls into one
// layer's public functions. Spans are appended to a vector while the pass
// runs and written out once at exit; nothing is formatted on the hot path.
//
// The layers' calls take 5 to 500 ns and one steady_clock read costs tens
// of ns, so a span wraps a chunk of consecutive calls (kChunk writes) to
// the same function rather than a single call, and the request id is the
// index of the chunk's first write. The clock then costs well under 1 ns
// per write, and the remaining cost is still removed: a span's net duration
// subtracts one clock read for itself and two for every descendant span.
// Self time is the net duration minus the net duration of the children.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Writes per span.
inline constexpr std::size_t kChunk = 256;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Mean cost of one steady_clock read, measured back to back.
double clock_read_ns();

class SpanLog {
 public:
  static constexpr std::uint32_t kRoot = 0xFFFFFFFFu;

  SpanLog() : clock_ns_(clock_read_ns()) {}

  /// Interns a span name.
  std::uint32_t name_id(const std::string& name);

  std::uint32_t begin(std::uint32_t name, std::uint32_t parent,
                      std::uint64_t request) {
    spans_.push_back(Span{0, 0, request, parent, name});
    spans_.back().start = now_ns();  // Last, so the append is not timed.
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t span) { spans_[span].end = now_ns(); }

  /// Summed self time per span name, in ns, clock-read cost removed.
  [[nodiscard]] std::map<std::string, double> self_ns() const;

  [[nodiscard]] double clock_ns() const { return clock_ns_; }

  /// Header plus one line per span: name,start_ns,end_ns,parent,request.
  void write_csv(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t start;
    std::uint64_t end;
    std::uint64_t request;
    std::uint32_t parent;
    std::uint32_t name;
  };

  double clock_ns_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(SpanLog& log, std::uint32_t name, std::uint32_t parent,
        std::uint64_t request)
      : log_(log), id_(log.begin(name, parent, request)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

}  // namespace perfbench
