#include "trace/synthetic.h"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace twl {

namespace {

const SyntheticParams& validated(const SyntheticParams& p) {
  if (p.pages == 0) {
    throw std::invalid_argument("SyntheticTrace: pages must be positive");
  }
  if (!(p.read_frac >= 0.0 && p.read_frac < 1.0)) {
    throw std::invalid_argument("SyntheticTrace: read_frac must lie in [0, 1)");
  }
  if (!(p.stream_frac >= 0.0 && p.stream_frac <= 1.0)) {
    throw std::invalid_argument(
        "SyntheticTrace: stream_frac must lie in [0, 1]");
  }
  return p;
}

}  // namespace

SyntheticTrace::SyntheticTrace(const SyntheticParams& params,
                               std::string name)
    : params_(validated(params)),
      name_(std::move(name)),
      rng_(params.seed ^ 0x57A7'1C7Aull),
      zipf_(params.pages, params.zipf_s),
      rank_to_page_(params.pages) {
  // Scatter Zipf ranks over the address space with a Fisher-Yates shuffle
  // so that the hot set is not a contiguous prefix.
  std::iota(rank_to_page_.begin(), rank_to_page_.end(), 0u);
  XorShift64Star shuffle_rng(params.seed ^ 0x5CA7'7E2Full);
  for (std::uint64_t i = rank_to_page_.size() - 1; i > 0; --i) {
    const std::uint64_t j = shuffle_rng.next_below(i + 1);
    std::swap(rank_to_page_[i], rank_to_page_[j]);
  }
}

LogicalPageAddr SyntheticTrace::next_write_addr() {
  if (rng_.next_double() < params_.stream_frac) {
    stream_pos_ = (stream_pos_ + 1) % params_.pages;
    return LogicalPageAddr(static_cast<std::uint32_t>(stream_pos_));
  }
  const std::uint64_t rank = zipf_.sample(rng_);
  return LogicalPageAddr(rank_to_page_[rank]);
}

MemoryRequest SyntheticTrace::next() {
  if (rng_.next_double() < params_.read_frac) {
    // Reads follow the same locality as writes.
    MemoryRequest req;
    req.op = Op::kRead;
    req.addr = next_write_addr();
    return req;
  }
  return MemoryRequest{Op::kWrite, next_write_addr()};
}

UniformTrace::UniformTrace(std::uint64_t pages, double read_frac,
                           std::uint64_t seed)
    : pages_(pages), read_frac_(read_frac), rng_(seed ^ 0x0211F02Full) {
  if (pages == 0) {
    throw std::invalid_argument("UniformTrace: pages must be positive");
  }
}

MemoryRequest UniformTrace::next() {
  MemoryRequest req;
  req.op = rng_.next_double() < read_frac_ ? Op::kRead : Op::kWrite;
  req.addr =
      LogicalPageAddr(static_cast<std::uint32_t>(rng_.next_below(pages_)));
  return req;
}

}  // namespace twl
