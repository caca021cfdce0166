// Layer probe: mirror stacks fed a workload's demand-write stream chunk by
// chunk, so that the cost of a call the benchmark cannot open up
// (MemoryController::submit, ServiceShard::execute, FleetSimulator::
// advance) splits into the layers inside it. Every chunk runs through each
// stage in turn, one span per stage, so all stages see the same stream
// under the same machine conditions:
//
//   wl.map_read         WearLeveler::map_read, the read path
//   wl.write            WearLeveler::write into a sink that records the
//                       physical writes (wl + tables)
//   device.apply_write  Device::apply_write replaying them (device/pcm)
//   sim.submit          MemoryController::submit, no journal (sim); with
//                       the timing model on it is sim.submit_timed
//   recovery.journaled_submit / recovery.journaled_batch
//                       the same with a MetadataJournal attached, one
//                       submit per write or submit_write_batch per group
//   recovery.snapshot   the snapshot rotation at each interval boundary
//   recovery.restore / recovery.recover
//                       a crash sample at the middle of each of the first
//                       kMaxCrashSamples intervals:
//                       restore_snapshot, and recover() of the journal
//                       written since, on fresh schemes
//
// Each stage's stack is built exactly as the workload's own stack (same
// endurance draw, scheme seed and device factory), so on the same stream
// it makes the same decisions; the recorded physical writes prove it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "device/device.h"
#include "pcm/endurance.h"
#include "recovery/journal.h"
#include "sim/memory_controller.h"
#include "spans.h"
#include "wl/wear_leveler.h"

namespace perfbench {

/// How one simulated stack is built.
struct StackSpec {
  twl::Config config;  ///< config.seed is the scheme's seed.
  std::string scheme_spec;
  std::uint64_t endurance_seed = 0;
  bool latch_device = false;  ///< make_latch_device vs make_device.
  bool timing = false;        ///< MemoryController timing model.
};

/// Endurance draw + device + scheme, built from a StackSpec. Records how
/// long the draw and the device + scheme tables took to build.
struct Stack {
  explicit Stack(const StackSpec& spec);
  double endurance_s = 0.0;
  double scheme_s = 0.0;
  twl::EnduranceMap endurance;
  std::unique_ptr<twl::Device> device;
  std::unique_ptr<twl::WearLeveler> wl;
};

struct ProbeCounts {
  std::uint64_t physical_writes = 0;
  std::array<std::uint64_t, twl::kNumWritePurposes> by_purpose{};
  /// FNV-1a over the ordered (page, purpose) physical-write stream.
  std::uint64_t physical_digest = 0xCBF29CE484222325ULL;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t crash_samples = 0;
};

class LayerProbe {
 public:
  struct Options {
    bool journal = false;
    std::uint32_t batch = 0;  ///< 0: one submit per write.
    std::uint64_t snapshot_interval = 4096;
  };

  LayerProbe(const StackSpec& spec, const Options& opt, SpanLog& log);
  ~LayerProbe();
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  /// Runs las[0..n) through every stage; `request` tags the spans.
  void run(const std::uint32_t* las, std::size_t n, std::uint64_t request);

  [[nodiscard]] const ProbeCounts& counts() const { return counts_; }
  [[nodiscard]] bool device_failed() const { return bare_.device->failed(); }
  /// The journaled stage's scheme snapshot (take_snapshot). Crash
  /// recovery restores a scheme exactly, so it equals the snapshot of a
  /// stack that crashed on the same stream; the device wear does not,
  /// since a crashed write is charged again when it is redone. Requires
  /// Options::journal.
  [[nodiscard]] std::vector<std::uint8_t> journaled_snapshot() const;

 private:
  class RecordingSink;

  void run_journal(const std::uint32_t* las, std::size_t n,
                   std::uint64_t request);
  void crash_sample(std::uint64_t request);
  void rotate(std::uint64_t request);

  StackSpec spec_;
  Options opt_;
  SpanLog& log_;
  std::uint32_t n_map_, n_wl_, n_device_, n_submit_, n_journal_, n_snapshot_,
      n_restore_, n_recover_;
  ProbeCounts counts_;

  Stack bare_;  ///< wl + device stages.
  std::unique_ptr<RecordingSink> sink_;
  std::vector<twl::PhysicalPageAddr> worn_;

  Stack plain_;  ///< Unjournaled controller stage.
  twl::MemoryController plain_ctl_;
  twl::Cycles now_ = 0;

  std::unique_ptr<Stack> journaled_;  ///< Journaled stage, when enabled.
  std::unique_ptr<twl::MemoryController> journaled_ctl_;
  twl::MetadataJournal journal_;
  std::vector<std::uint8_t> snapshot_cur_, snapshot_prev_, retained_;
  std::vector<std::uint8_t> wear_cur_, wear_prev_;
  std::uint64_t since_snapshot_ = 0;
  std::vector<twl::LogicalPageAddr> group_;
};

}  // namespace perfbench
