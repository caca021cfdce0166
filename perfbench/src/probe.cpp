#include "probe.h"

#include <algorithm>
#include <utility>

#include "device/factory.h"
#include "recovery/recovery.h"
#include "recovery/snapshot.h"
#include "wl/factory.h"

namespace perfbench {

using twl::LogicalPageAddr;
using twl::PhysicalPageAddr;
using twl::WritePurpose;

namespace {

/// Crash samples per probe; each costs a full recover() of half an
/// interval, so a few suffice for a per-crash mean.
constexpr std::uint64_t kMaxCrashSamples = 16;

twl::EnduranceMap draw_endurance(const StackSpec& spec, double& seconds) {
  const std::uint64_t t0 = now_ns();
  twl::EnduranceMap map(spec.config.geometry.pages(), spec.config.endurance,
                        spec.endurance_seed);
  seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return map;
}

std::vector<std::uint8_t> wear_blob(const twl::Device& device) {
  twl::SnapshotWriter w;
  device.save_state(w);
  return w.take();
}

}  // namespace

Stack::Stack(const StackSpec& spec)
    : endurance(draw_endurance(spec, endurance_s)) {
  const std::uint64_t t0 = now_ns();
  device = spec.latch_device ? twl::make_latch_device(endurance, spec.config)
                             : twl::make_device(endurance, spec.config);
  wl = twl::make_wear_leveler_spec(spec.scheme_spec, endurance, spec.config);
  scheme_s = static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Records a scheme's physical writes as MemoryController::device_write
/// would charge them (migration wear on): the target of a demand write or
/// migration, both pages of a swap.
class LayerProbe::RecordingSink final : public twl::WriteSink {
 public:
  void demand_write(PhysicalPageAddr pa, LogicalPageAddr) override {
    record(pa, WritePurpose::kDemand);
  }
  void migrate(PhysicalPageAddr, PhysicalPageAddr to,
               WritePurpose purpose) override {
    record(to, purpose);
  }
  void swap_pages(PhysicalPageAddr a, PhysicalPageAddr b,
                  WritePurpose purpose) override {
    record(a, purpose);
    record(b, purpose);
  }
  void engine_delay(twl::Cycles) override {}

  std::vector<std::pair<PhysicalPageAddr, WritePurpose>> writes;

 private:
  void record(PhysicalPageAddr pa, WritePurpose purpose) {
    writes.emplace_back(pa, purpose);
  }
};

LayerProbe::LayerProbe(const StackSpec& spec, const Options& opt,
                       SpanLog& log)
    : spec_(spec),
      opt_(opt),
      log_(log),
      n_map_(log.name_id("wl.map_read")),
      n_wl_(log.name_id("wl.write")),
      n_device_(log.name_id("device.apply_write")),
      n_submit_(log.name_id(spec.timing ? "sim.submit_timed" : "sim.submit")),
      n_journal_(log.name_id(opt.batch == 0 ? "recovery.journaled_submit"
                                            : "recovery.journaled_batch")),
      n_snapshot_(log.name_id("recovery.snapshot")),
      n_restore_(log.name_id("recovery.restore")),
      n_recover_(log.name_id("recovery.recover")),
      bare_(spec),
      sink_(std::make_unique<RecordingSink>()),
      plain_(spec),
      plain_ctl_(*plain_.device, *plain_.wl, spec.config, spec.timing) {
  sink_->writes.reserve(4 * kChunk);
  if (opt_.journal) {
    journaled_ = std::make_unique<Stack>(spec);
    journaled_ctl_ = std::make_unique<twl::MemoryController>(
        *journaled_->device, *journaled_->wl, spec.config, spec.timing);
    journaled_ctl_->attach_journal(&journal_);
    snapshot_cur_ = twl::take_snapshot(*journaled_->wl);
    snapshot_prev_ = snapshot_cur_;
    wear_cur_ = wear_blob(*journaled_->device);
    wear_prev_ = wear_cur_;
    group_.reserve(std::max<std::uint32_t>(opt_.batch, 1));
  }
}

LayerProbe::~LayerProbe() = default;

void LayerProbe::run(const std::uint32_t* las, std::size_t n,
                     std::uint64_t request) {
  const std::uint64_t space = bare_.wl->logical_pages();
  sink_->writes.clear();
  {
    const Scope s(log_, n_map_, SpanLog::kRoot, request);
    for (std::size_t i = 0; i < n; ++i) {
      (void)bare_.wl->map_read(
          LogicalPageAddr(static_cast<std::uint32_t>(las[i] % space)));
    }
  }
  {
    const Scope s(log_, n_wl_, SpanLog::kRoot, request);
    for (std::size_t i = 0; i < n; ++i) {
      bare_.wl->write(LogicalPageAddr(static_cast<std::uint32_t>(las[i] % space)),
                      *sink_);
    }
  }
  {
    const Scope s(log_, n_device_, SpanLog::kRoot, request);
    for (const auto& w : sink_->writes) {
      (void)bare_.device->apply_write(w.first, worn_);
    }
  }
  for (const auto& w : sink_->writes) {
    const std::uint64_t key = (static_cast<std::uint64_t>(w.first.value()) << 3) |
                              static_cast<std::uint64_t>(w.second);
    counts_.physical_digest = (counts_.physical_digest ^ key) * 0x100000001B3ULL;
    ++counts_.by_purpose[static_cast<std::size_t>(w.second)];
  }
  counts_.physical_writes += sink_->writes.size();
  {
    const Scope s(log_, n_submit_, SpanLog::kRoot, request);
    for (std::size_t i = 0; i < n; ++i) {
      const twl::MemoryRequest req{
          twl::Op::kWrite,
          LogicalPageAddr(static_cast<std::uint32_t>(las[i] % space))};
      now_ += plain_ctl_.submit(req, now_);
    }
  }
  if (opt_.journal) run_journal(las, n, request);
}

void LayerProbe::run_journal(const std::uint32_t* las, std::size_t n,
                             std::uint64_t request) {
  const std::uint64_t space = journaled_->wl->logical_pages();
  const std::uint64_t half = opt_.snapshot_interval / 2;
  std::size_t i = 0;
  while (i < n) {
    // Work never crosses a snapshot boundary, as in the service shard.
    const std::size_t m = static_cast<std::size_t>(std::min<std::uint64_t>(
        n - i, opt_.snapshot_interval - since_snapshot_));
    {
      const Scope s(log_, n_journal_, SpanLog::kRoot, request + i);
      if (opt_.batch == 0) {
        for (std::size_t j = i; j < i + m; ++j) {
          journaled_ctl_->submit(
              twl::MemoryRequest{twl::Op::kWrite,
                                 LogicalPageAddr(static_cast<std::uint32_t>(
                                     las[j] % space))},
              0);
        }
      } else {
        for (std::size_t j = i; j < i + m; j += opt_.batch) {
          const std::size_t g = std::min<std::size_t>(opt_.batch, i + m - j);
          group_.clear();
          for (std::size_t k = j; k < j + g; ++k) {
            group_.emplace_back(static_cast<std::uint32_t>(las[k] % space));
          }
          journaled_ctl_->submit_write_batch(group_.data(), g, 0);
        }
      }
    }
    const std::uint64_t before = since_snapshot_;
    since_snapshot_ += m;
    i += m;
    if (before < half && since_snapshot_ >= half &&
        counts_.crash_samples < kMaxCrashSamples) {
      crash_sample(request + i);
    }
    if (since_snapshot_ == opt_.snapshot_interval) rotate(request + i);
  }
}

std::vector<std::uint8_t> LayerProbe::journaled_snapshot() const {
  return twl::take_snapshot(*journaled_->wl);
}

void LayerProbe::crash_sample(std::uint64_t request) {
  ++counts_.crash_samples;
  const auto restored = twl::make_wear_leveler_spec(
      spec_.scheme_spec, journaled_->endurance, spec_.config);
  {
    const Scope s(log_, n_restore_, SpanLog::kRoot, request);
    twl::restore_snapshot(*restored, snapshot_cur_);
  }
  const auto recovered = twl::make_wear_leveler_spec(
      spec_.scheme_spec, journaled_->endurance, spec_.config);
  {
    const Scope s(log_, n_recover_, SpanLog::kRoot, request);
    (void)twl::recover(*recovered, snapshot_cur_, journal_.bytes());
  }
}

void LayerProbe::rotate(std::uint64_t request) {
  {
    // ServiceShard::rotate_snapshots and FleetSimulator's rotation.
    const Scope s(log_, n_snapshot_, SpanLog::kRoot, request);
    snapshot_prev_ = std::move(snapshot_cur_);
    wear_prev_ = std::move(wear_cur_);
    retained_ = journal_.bytes();
    journal_.truncate();
    snapshot_cur_ = twl::take_snapshot(*journaled_->wl);
    wear_cur_ = wear_blob(*journaled_->device);
  }
  ++counts_.snapshots;
  counts_.snapshot_bytes += snapshot_cur_.size() + wear_cur_.size();
  since_snapshot_ = 0;
}

}  // namespace perfbench
