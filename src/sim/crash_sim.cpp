#include "sim/crash_sim.h"

#include <cassert>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "device/factory.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "recovery/snapshot.h"
#include "sim/memory_controller.h"
#include "trace/synthetic.h"
#include "wl/factory.h"

namespace twl {

namespace {

/// Write-only stream over the scheme's logical space: the synthetic
/// mixture with reads disabled, folded like LifetimeSimulator folds it.
class WriteStream {
 public:
  WriteStream(const CrashSimParams& params, std::uint64_t logical_pages,
              std::uint64_t seed)
      : source_(make_params(params, logical_pages, seed), "crash"),
        space_(logical_pages) {}

  LogicalPageAddr next() {
    for (;;) {
      const MemoryRequest req = source_.next();
      if (req.op != Op::kWrite) continue;
      return LogicalPageAddr(req.addr.value() % space_);
    }
  }

 private:
  static SyntheticParams make_params(const CrashSimParams& params,
                                     std::uint64_t logical_pages,
                                     std::uint64_t seed) {
    SyntheticParams sp;
    sp.pages = logical_pages;
    sp.zipf_s = params.zipf_s;
    sp.stream_frac = params.stream_frac;
    sp.read_frac = 0.0;  // Reads touch no metadata; skip them.
    sp.seed = seed;
    return sp;
  }

  SyntheticTrace source_;
  std::uint64_t space_;
};

MemoryRequest write_request(LogicalPageAddr la) {
  return MemoryRequest{Op::kWrite, la};
}

}  // namespace

void CrashTrialResult::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("crash_write", crash_write);
  w.kv("committed_writes", committed_writes);
  w.kv("commit_survived", commit_survived);
  w.kv("torn_tail", torn_tail);
  w.kv("garbage_tail", garbage_tail);
  w.kv("cut_bytes", cut_bytes);
  w.kv("orphan_swap_intents", orphan_swap_intents);
  w.kv("replayed_writes", replayed_writes);
  w.kv("snapshots_taken", snapshots_taken);
  w.kv("journal_bytes_total", journal_bytes_total);
  w.kv("mapping_bijective", mapping_bijective);
  w.kv("state_matches_reference", state_matches_reference);
  w.kv("rollback_consistent", rollback_consistent);
  w.kv("wear_drift_bounded", wear_drift_bounded);
  w.kv("continuation_matches", continuation_matches);
  w.kv("all_invariants_hold", all_invariants_hold());
  w.end_object();
}

CrashSimulator::CrashSimulator(const Config& config,
                               const CrashSimParams& params)
    : config_(config),
      params_(params),
      endurance_(config.geometry.pages(), config.endurance, config.seed) {
  config_.validate();
  assert(params_.total_writes > 0);
  assert(params_.snapshot_interval > 0);
  assert(!config_.fault.retirement_enabled() &&
         "crash trials model no retirement (see header)");
}

CrashTrialResult CrashSimulator::run_trial(std::uint64_t trial,
                                           MetricsRegistry* metrics,
                                           EventTracer* tracer) const {
  CrashTrialResult result;
  SplitMix64 mix(config_.seed ^ (0xC4A5'11D0'0000'0000ULL + trial));
  const std::uint64_t workload_seed = mix.next();
  XorShift64Star rng(mix.next());

  const std::uint64_t k = 1 + rng.next_below(params_.total_writes);
  result.crash_write = k;

  // --- Journaled run, interrupted during demand write k. ---
  const auto device_ptr = make_device(endurance_, config_);
  Device& device = *device_ptr;
  const auto wl =
      make_wear_leveler_spec(params_.scheme_spec, endurance_, config_);
  MemoryController controller(device, *wl, config_,
                              /*enable_timing=*/false);
  controller.attach_metrics(metrics);
  controller.attach_tracer(tracer);
  MetadataJournal journal;
  controller.attach_journal(&journal);
  WriteStream stream(params_, wl->logical_pages(), workload_seed);

  std::vector<std::uint8_t> snapshot_blob = take_snapshot(*wl);
  result.snapshots_taken = 1;
  std::uint64_t snapshot_base = 0;  ///< Demand writes the snapshot covers.

  std::uint64_t journal_bytes_before_k = 0;
  std::uint64_t phys_before_k = 0;
  LogicalPageAddr crash_la{};
  for (std::uint64_t i = 1; i <= k; ++i) {
    const LogicalPageAddr la = stream.next();
    if (i == k) {
      crash_la = la;
      journal_bytes_before_k = journal.bytes().size();
      phys_before_k = controller.stats().physical_writes();
    }
    controller.submit(write_request(la), 0);
    if (i < k && i % params_.snapshot_interval == 0) {
      snapshot_blob = take_snapshot(*wl);
      journal.truncate();
      snapshot_base = i;
      ++result.snapshots_taken;
    }
  }
  const std::uint64_t in_flight_writes =
      controller.stats().physical_writes() - phys_before_k;

  // --- Cut the journal at a uniform random byte within write k's
  // appended range. A cut inside a record is a torn append; a cut between
  // a SwapIntent and its SwapCommit is a mid-swap crash; a cut at the very
  // end means the commit survived. ---
  const std::uint64_t appended = journal.bytes().size() -
                                 journal_bytes_before_k;
  assert(appended > 0);  // WriteBegin is logged before the scheme runs.
  const std::uint64_t cut =
      journal_bytes_before_k + 1 + rng.next_below(appended);
  std::vector<std::uint8_t> surviving(
      journal.bytes().begin(),
      journal.bytes().begin() + static_cast<std::ptrdiff_t>(cut));
  result.cut_bytes = cut;
  result.journal_bytes_total = journal.total_bytes_appended();
  TWL_TRACE(tracer, TraceEventType::kCrash, k, cut);

  // A quarter of the trials model a partially-programmed log tail: the
  // bytes after the crash cut hold garbage instead of ending cleanly.
  if (rng.next_below(4) == 0) {
    result.garbage_tail = true;
    const std::uint64_t garbage = 1 + rng.next_below(8);
    for (std::uint64_t i = 0; i < garbage; ++i) {
      surviving.push_back(static_cast<std::uint8_t>(rng.next()));
    }
  }

  // --- Recover a fresh instance from snapshot + surviving journal. ---
  const auto recovered =
      make_wear_leveler_spec(params_.scheme_spec, endurance_, config_);
  const RecoveryOutcome outcome =
      recover(*recovered, snapshot_blob, surviving);
  result.torn_tail = outcome.torn_tail;
  result.replayed_writes = outcome.replayed_writes;
  result.orphan_swap_intents = outcome.orphan_swap_intents;
  TWL_TRACE(tracer, TraceEventType::kRecover, outcome.replayed_writes);
  const std::uint64_t committed = snapshot_base + outcome.replayed_writes;
  result.committed_writes = committed;
  result.commit_survived = committed == k;

  // Invariant 1: the recovered mapping is a bijection.
  result.mapping_bijective = recovered->invariants_hold();

  // Invariant 3: recovery lands on exactly k or k-1 committed writes;
  // a write rolls back only when its commit is missing, and the rolled
  // back write is the interrupted one.
  result.rollback_consistent =
      (committed == k || committed == k - 1) &&
      (!result.commit_survived || !outcome.rolled_back_la.has_value()) &&
      (!outcome.rolled_back_la.has_value() ||
       *outcome.rolled_back_la == crash_la);

  // --- Reference: a crash-free run of exactly the committed writes. ---
  const auto ref_device_ptr = make_device(endurance_, config_);
  Device& ref_device = *ref_device_ptr;
  const auto reference =
      make_wear_leveler_spec(params_.scheme_spec, endurance_, config_);
  MemoryController ref_controller(ref_device, *reference, config_,
                                  /*enable_timing=*/false);
  WriteStream ref_stream(params_, reference->logical_pages(), workload_seed);
  for (std::uint64_t i = 0; i < committed; ++i) {
    ref_controller.submit(write_request(ref_stream.next()), 0);
  }

  // Invariant 2: byte-exact metadata equality with the reference — no
  // committed write lost, none double-applied.
  result.state_matches_reference =
      take_snapshot(*recovered) == take_snapshot(*reference);

  // Invariant 4: wear drift between the crashed device and the reference
  // device is at most the in-flight request's physical writes (zero when
  // the interrupted write committed).
  std::uint64_t drift = 0;
  for (std::uint64_t p = 0; p < device.pages(); ++p) {
    const PhysicalPageAddr pa(static_cast<std::uint32_t>(p));
    const WriteCount a = device.writes(pa);
    const WriteCount b = ref_device.writes(pa);
    drift += (a > b) ? (a - b) : (b - a);
  }
  result.wear_drift_bounded =
      drift <= (result.commit_survived ? 0 : in_flight_writes);

  // Invariant 5: the recovered scheme's future is indistinguishable from
  // the reference's — continue both to total_writes on identical streams
  // and compare final metadata. The reference stream stands at write
  // `committed`, so each continuation address is drawn once for both.
  if (params_.verify_continuation) {
    const auto cont_device = make_device(endurance_, config_);
    MemoryController cont_controller(*cont_device, *recovered, config_,
                                     /*enable_timing=*/false);
    for (std::uint64_t i = committed; i < params_.total_writes; ++i) {
      const MemoryRequest req = write_request(ref_stream.next());
      cont_controller.submit(req, 0);
      ref_controller.submit(req, 0);
    }
    result.continuation_matches =
        take_snapshot(*recovered) == take_snapshot(*reference) &&
        recovered->invariants_hold();
  } else {
    result.continuation_matches = true;
  }

  if (metrics != nullptr) {
    controller.publish_metrics(*metrics);
    metrics->counter("sim.crash.trials").inc();
    if (!result.all_invariants_hold()) {
      metrics->counter("sim.crash.invariant_failures").inc();
    }
    metrics->counter("sim.crash.replayed_writes")
        .add(result.replayed_writes);
    metrics->counter("sim.crash.torn_tails").add(result.torn_tail ? 1 : 0);
    metrics->counter("sim.crash.orphan_swap_intents")
        .add(result.orphan_swap_intents);
    metrics->histogram("sim.crash.journal_bytes")
        .add(result.journal_bytes_total);
  }
  return result;
}

}  // namespace twl
