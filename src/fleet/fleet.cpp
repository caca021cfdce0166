#include "fleet/fleet.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/sim_runner.h"
#include "obs/metrics.h"
#include "device/factory.h"
#include "pcm/endurance.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "recovery/snapshot.h"
#include "fleet/workload.h"
#include "sim/memory_controller.h"
#include "wl/factory.h"

namespace twl {

namespace {

/// Writes the recovered scheme continues with after a crash, in the
/// invariant-5 determinism probe.
constexpr std::uint64_t kContinuationProbeWrites = 32;

MemoryRequest write_request(LogicalPageAddr la) {
  return MemoryRequest{Op::kWrite, la};
}

/// Independent per-device seed streams, all derived from the config seed
/// so the whole fleet is one deterministic function of (config, scenario).
struct DeviceSeeds {
  std::uint64_t endurance = 0;  ///< PV map draw.
  std::uint64_t scheme = 0;     ///< Scheme-internal RNG streams.
  std::uint64_t workload = 0;   ///< Write-address stream.
  std::uint64_t schedule = 0;   ///< Chaos event schedule.
  std::uint64_t chaos_rng = 0;  ///< Crash-cut / corruption draws.
};

DeviceSeeds device_seeds(std::uint64_t config_seed, std::uint32_t device) {
  SplitMix64 mix(config_seed ^ (0xF1EE'7D0C'0000'0000ULL + device));
  DeviceSeeds s;
  s.endurance = mix.next();
  s.scheme = mix.next();
  s.workload = mix.next();
  s.schedule = mix.next();
  s.chaos_rng = mix.next();
  return s;
}

std::vector<std::uint8_t> wear_blob(const Device& device) {
  SnapshotWriter w;
  device.save_state(w);
  return w.take();
}

}  // namespace

void DeviceState::save_state(SnapshotWriter& w) const {
  w.put_u64(writes_done);
  w.put_u8_vec(scheme);
  w.put_u8_vec(device_wear);
  w.put_u8_vec(controller);
  w.put_u8_vec(journal);
  w.put_u64(journal_total_bytes);
  w.put_u64(journal_total_records);
  w.put_u64(journal_truncations);
  w.put_u8_vec(snapshot_cur);
  w.put_u8_vec(snapshot_prev);
  w.put_u8_vec(retained_journal);
  w.put_u64(base_cur);
  w.put_u64(base_prev);
  w.put_u8_vec(wear_cur);
  w.put_u8_vec(wear_prev);
  w.put_u64(chaos_cursor);
  w.put_u8_vec(chaos_rng);
  w.put_u64(outcome.crashes);
  w.put_u64(outcome.recoveries);
  w.put_u64(outcome.rollbacks);
  w.put_u64(outcome.snapshot_fallbacks);
  w.put_u64(outcome.invariant_failures);
  w.put_u64(outcome.replayed_writes);
  for (std::uint64_t c : outcome.chaos_by_kind) w.put_u64(c);
}

void DeviceState::load_state(SnapshotReader& r) {
  writes_done = r.get_u64();
  scheme = r.get_u8_vec();
  device_wear = r.get_u8_vec();
  controller = r.get_u8_vec();
  journal = r.get_u8_vec();
  journal_total_bytes = r.get_u64();
  journal_total_records = r.get_u64();
  journal_truncations = r.get_u64();
  snapshot_cur = r.get_u8_vec();
  snapshot_prev = r.get_u8_vec();
  retained_journal = r.get_u8_vec();
  base_cur = r.get_u64();
  base_prev = r.get_u64();
  wear_cur = r.get_u8_vec();
  wear_prev = r.get_u8_vec();
  chaos_cursor = r.get_u64();
  chaos_rng = r.get_u8_vec();
  outcome.crashes = r.get_u64();
  outcome.recoveries = r.get_u64();
  outcome.rollbacks = r.get_u64();
  outcome.snapshot_fallbacks = r.get_u64();
  outcome.invariant_failures = r.get_u64();
  outcome.replayed_writes = r.get_u64();
  for (std::uint64_t& c : outcome.chaos_by_kind) c = r.get_u64();
}

/// One thawed (running) device: the full simulation stack plus the
/// persisted artifacts and chaos machinery.
struct FleetSimulator::Live {
  std::uint32_t index;
  Config config;  ///< Per-device: config_ with this device's scheme seed.
  EnduranceMap endurance;
  std::unique_ptr<Device> device;
  std::unique_ptr<WearLeveler> wl;
  std::unique_ptr<MemoryController> controller;
  MetadataJournal journal;
  FleetStream stream;
  std::vector<ChaosEvent> schedule;
  std::uint64_t chaos_cursor = 0;
  XorShift64Star chaos_rng;
  std::uint64_t workload_seed;  ///< For reference-stream reconstruction.

  std::vector<std::uint8_t> snapshot_cur;
  std::vector<std::uint8_t> snapshot_prev;
  std::vector<std::uint8_t> retained_journal;
  std::uint64_t base_cur = 0;
  std::uint64_t base_prev = 0;
  std::vector<std::uint8_t> wear_cur;
  std::vector<std::uint8_t> wear_prev;
  std::uint64_t writes_done = 0;
  DeviceOutcome outcome;

  Live(const Config& fleet_config, const Scenario& scenario,
       std::uint32_t dev, const DeviceSeeds& seeds)
      : index(dev),
        config(per_device_config(fleet_config, scenario, seeds)),
        endurance(config.geometry.pages(), config.endurance,
                  seeds.endurance),
        device(make_latch_device(endurance, config)),
        wl(make_wear_leveler_spec(scenario.scheme_spec, endurance, config)),
        controller(std::make_unique<MemoryController>(
            *device, *wl, config, /*enable_timing=*/false)),
        stream(scenario.workload, wl->logical_pages(), seeds.workload),
        schedule(make_chaos_schedule(scenario.chaos,
                                     scenario.horizon_writes(),
                                     seeds.schedule)),
        chaos_rng(seeds.chaos_rng),
        workload_seed(seeds.workload) {
    controller->attach_journal(&journal);
    snapshot_cur = take_snapshot(*wl);
    snapshot_prev = snapshot_cur;
    wear_cur = wear_blob(*device);
    wear_prev = wear_cur;
  }

  [[nodiscard]] static Config per_device_config(const Config& fleet_config,
                                                const Scenario& scenario,
                                                const DeviceSeeds& seeds) {
    Config c = fleet_config;
    c.seed = seeds.scheme;
    // The scenario decides the storage substrate; backend knobs (block
    // geometry, cache shape) ride through from the fleet config.
    c.device.backend = scenario.device_backend;
    return c;
  }

  /// A fresh scheme instance of this device's configuration (the recovery
  /// candidates and reference instances all start here).
  [[nodiscard]] std::unique_ptr<WearLeveler> fresh_scheme(
      const Scenario& scenario) const {
    return make_wear_leveler_spec(scenario.scheme_spec, endurance, config);
  }

  /// The workload stream rebuilt from scratch (skip to any position).
  [[nodiscard]] FleetStream fresh_stream(const Scenario& scenario) const {
    return FleetStream(scenario.workload, wl->logical_pages(),
                       workload_seed);
  }
};

/// Everything the invariant verifier needs to know about one crash.
struct FleetSimulator::CrashContext {
  LogicalPageAddr crash_la{};
  std::uint64_t k = 0;          ///< Interrupted stream element (1-based).
  std::uint64_t in_flight = 0;  ///< Physical writes of the attempt.
  std::uint64_t committed = 0;  ///< base + replayed.
  const std::vector<std::uint8_t>* snapshot = nullptr;  ///< Used snapshot.
  std::uint64_t base = 0;                       ///< Writes it covers.
  const std::vector<std::uint8_t>* wear = nullptr;  ///< Device wear at base.
  bool rolled_back = false;                     ///< Recovery reported one.
  LogicalPageAddr rolled_back_la{};
};

FleetSimulator::FleetSimulator(const Config& config, const Scenario& scenario)
    : config_(config), scenario_(scenario) {
  config_.validate();
  if (config_.fault.enabled()) {
    throw std::invalid_argument(
        "fleet scenarios require the binary wear-out model (no fault "
        "model, no retirement): crash recovery replays demand writes "
        "only");
  }
  if (scenario_.devices == 0 || scenario_.writes_per_day == 0 ||
      scenario_.horizon_days == 0 || scenario_.snapshot_interval_days == 0) {
    throw std::invalid_argument(
        "fleet scenario '" + scenario_.name +
        "': devices, horizon_days, writes_per_day and "
        "snapshot_interval_days must all be positive");
  }
}

std::unique_ptr<FleetSimulator::Live> FleetSimulator::make_live(
    std::uint32_t device) const {
  return std::make_unique<Live>(config_, scenario_, device,
                                device_seeds(config_.seed, device));
}

DeviceState FleetSimulator::freeze(const Live& d) {
  DeviceState s;
  s.writes_done = d.writes_done;
  s.scheme = take_snapshot(*d.wl);
  s.device_wear = wear_blob(*d.device);
  SnapshotWriter cw;
  d.controller->stats().save_state(cw);
  s.controller = cw.take();
  s.journal = d.journal.bytes();
  s.journal_total_bytes = d.journal.total_bytes_appended();
  s.journal_total_records = d.journal.total_records_appended();
  s.journal_truncations = d.journal.truncations();
  s.snapshot_cur = d.snapshot_cur;
  s.snapshot_prev = d.snapshot_prev;
  s.retained_journal = d.retained_journal;
  s.base_cur = d.base_cur;
  s.base_prev = d.base_prev;
  s.wear_cur = d.wear_cur;
  s.wear_prev = d.wear_prev;
  s.chaos_cursor = d.chaos_cursor;
  SnapshotWriter rw;
  d.chaos_rng.save_state(rw);
  s.chaos_rng = rw.take();
  s.outcome = d.outcome;
  return s;
}

std::unique_ptr<FleetSimulator::Live> FleetSimulator::thaw(
    const DeviceState& cold, std::uint32_t device) const {
  auto d = make_live(device);
  restore_snapshot(*d->wl, cold.scheme);
  SnapshotReader dr(cold.device_wear);
  d->device->load_state(dr);
  ControllerStats stats;
  SnapshotReader cr(cold.controller);
  stats.load_state(cr);
  d->controller->restore_stats(stats);
  d->journal.restore(cold.journal, cold.journal_total_bytes,
                     cold.journal_total_records, cold.journal_truncations);
  d->stream.skip(cold.writes_done);
  SnapshotReader rr(cold.chaos_rng);
  d->chaos_rng.load_state(rr);
  d->snapshot_cur = cold.snapshot_cur;
  d->snapshot_prev = cold.snapshot_prev;
  d->retained_journal = cold.retained_journal;
  d->base_cur = cold.base_cur;
  d->base_prev = cold.base_prev;
  d->wear_cur = cold.wear_cur;
  d->wear_prev = cold.wear_prev;
  d->chaos_cursor = cold.chaos_cursor;
  d->writes_done = cold.writes_done;
  d->outcome = cold.outcome;
  return d;
}

FleetState FleetSimulator::fresh_state() const {
  FleetState state;
  state.devices.reserve(scenario_.devices);
  for (std::uint32_t dev = 0; dev < scenario_.devices; ++dev) {
    state.devices.push_back(freeze(*make_live(dev)));
  }
  return state;
}

void FleetSimulator::rotate_snapshots(Live& d) const {
  d.snapshot_prev = std::move(d.snapshot_cur);
  d.base_prev = d.base_cur;
  d.wear_prev = std::move(d.wear_cur);
  d.retained_journal = d.journal.bytes();
  d.journal.truncate();
  d.snapshot_cur = take_snapshot(*d.wl);
  d.base_cur = d.writes_done;
  d.wear_cur = wear_blob(*d.device);
}

bool FleetSimulator::verify_invariants(const Live& d,
                                       const CrashContext& ctx,
                                       const WearLeveler& recovered) const {
  bool ok = true;

  // Invariant 1: the recovered mapping is a bijection.
  ok = ok && recovered.invariants_hold();

  // Invariant 3: recovery lands on exactly k or k-1 committed writes; a
  // write rolls back only when its commit is missing, and the rolled
  // back write is the interrupted one. (When the WriteBegin itself was
  // lost to corruption, recovery legitimately reports no rollback.)
  const bool commit_survived = ctx.committed == ctx.k;
  ok = ok && (ctx.committed == ctx.k || ctx.committed + 1 == ctx.k);
  ok = ok && (!commit_survived || !ctx.rolled_back);
  ok = ok && (!ctx.rolled_back || ctx.rolled_back_la == ctx.crash_la);

  // Reference: re-execute exactly the committed writes since the used
  // snapshot on a device wound back to that snapshot's wear.
  const auto ref_device = make_latch_device(d.endurance, d.config);
  SnapshotReader wr(*ctx.wear);
  ref_device->load_state(wr);
  const auto reference = d.fresh_scheme(scenario_);
  restore_snapshot(*reference, *ctx.snapshot);
  MemoryController ref_controller(*ref_device, *reference, d.config,
                                  /*enable_timing=*/false);
  FleetStream ref_stream = d.fresh_stream(scenario_);
  ref_stream.skip(ctx.base);
  for (std::uint64_t i = ctx.base; i < ctx.committed; ++i) {
    ref_controller.submit(write_request(ref_stream.next()), 0);
  }

  // Invariant 2: byte-exact metadata equality with the reference — no
  // committed write lost, none double-applied.
  ok = ok && take_snapshot(recovered) == take_snapshot(*reference);

  // Invariant 4: wear drift between the live device and the reference is
  // at most the interrupted attempt's physical writes (zero when its
  // commit survived).
  std::uint64_t drift = 0;
  for (std::uint64_t p = 0; p < d.device->pages(); ++p) {
    const PhysicalPageAddr pa(static_cast<std::uint32_t>(p));
    const WriteCount a = d.device->writes(pa);
    const WriteCount b = ref_device->writes(pa);
    drift += (a > b) ? (a - b) : (b - a);
  }
  ok = ok && drift <= (commit_survived ? 0 : ctx.in_flight);

  // Invariant 5: post-recovery determinism — a clone of the recovered
  // scheme and the reference, continued on identical streams, stay
  // byte-identical. The reference stream stands at write `committed`, so
  // each continuation address is drawn once and fed to both.
  const auto clone = d.fresh_scheme(scenario_);
  restore_snapshot(*clone, take_snapshot(recovered));
  const auto clone_device = make_latch_device(d.endurance, d.config);
  MemoryController clone_controller(*clone_device, *clone, d.config,
                                    /*enable_timing=*/false);
  for (std::uint64_t i = 0; i < kContinuationProbeWrites; ++i) {
    const MemoryRequest req = write_request(ref_stream.next());
    clone_controller.submit(req, 0);
    ref_controller.submit(req, 0);
  }
  ok = ok && take_snapshot(*clone) == take_snapshot(*reference) &&
       clone->invariants_hold();

  return ok;
}

void FleetSimulator::inject(Live& d, const ChaosEvent& ev,
                            LogicalPageAddr la, std::uint64_t k) const {
  ++d.outcome.crashes;
  ++d.outcome.chaos_by_kind[static_cast<std::size_t>(ev.kind)];

  // Run the interrupted write to completion to learn what the journal
  // *would* have held; the crash is then modeled by what survives of it.
  const std::size_t journal_before = d.journal.bytes().size();
  const std::uint64_t phys_before = d.controller->stats().physical_writes();
  d.controller->submit(write_request(la), 0);
  const std::uint64_t in_flight =
      d.controller->stats().physical_writes() - phys_before;
  const ControllerStats stats_at_crash = d.controller->stats();
  const std::size_t appended = d.journal.bytes().size() - journal_before;
  assert(appended > 0);  // WriteBegin lands before the scheme runs.

  // What survives of the live journal, per chaos kind. The damage window
  // is restricted to the in-flight write's bytes so recovery must land
  // on exactly k or k-1 committed writes.
  std::vector<std::uint8_t> surviving = d.journal.bytes();
  const auto cut_mid_write = [&] {
    surviving.resize(journal_before + 1 + d.chaos_rng.next_below(appended));
  };
  bool mid_checkpoint = false;
  switch (ev.kind) {
    case ChaosKind::kCrashMidWrite:
    case ChaosKind::kJournalTruncate:
      cut_mid_write();
      break;
    case ChaosKind::kJournalTailBitFlip: {
      const std::uint64_t bit =
          journal_before * 8 + d.chaos_rng.next_below(appended * 8);
      surviving[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      break;
    }
    case ChaosKind::kJournalExtend:
      extend_garbage(surviving, d.chaos_rng);
      break;
    case ChaosKind::kSnapshotBitFlip:
      flip_random_bit(d.snapshot_cur, d.chaos_rng);
      cut_mid_write();
      break;
    case ChaosKind::kSnapshotTruncate:
      truncate_random(d.snapshot_cur, d.chaos_rng);
      cut_mid_write();
      break;
    case ChaosKind::kSnapshotExtend:
      extend_garbage(d.snapshot_cur, d.chaos_rng);
      cut_mid_write();
      break;
    case ChaosKind::kCrashMidCheckpoint:
      mid_checkpoint = true;  // Journal survives whole; see below.
      break;
  }

  // Recovery attempts, in the order a controller would try them. A
  // mid-checkpoint crash leaves a partially written new snapshot (the
  // journal not yet truncated); everything else recovers from the
  // current snapshot plus what survived of the live journal, falling
  // back to the previous snapshot plus the retained journal span when
  // the current snapshot is damaged.
  struct Attempt {
    std::vector<std::uint8_t> snapshot;
    std::uint64_t base;
    const std::vector<std::uint8_t>* wear;
    std::vector<std::uint8_t> journal;
  };
  std::vector<Attempt> attempts;
  std::vector<std::uint8_t> wear_now;
  if (mid_checkpoint) {
    std::vector<std::uint8_t> partial = take_snapshot(*d.wl);
    partial.resize(1 + d.chaos_rng.next_below(partial.size() - 1));
    wear_now = wear_blob(*d.device);
    attempts.push_back(Attempt{std::move(partial), k, &wear_now, {}});
    attempts.push_back(
        Attempt{d.snapshot_cur, d.base_cur, &d.wear_cur, d.journal.bytes()});
  } else {
    attempts.push_back(
        Attempt{d.snapshot_cur, d.base_cur, &d.wear_cur, surviving});
    std::vector<std::uint8_t> fallback_journal = d.retained_journal;
    fallback_journal.insert(fallback_journal.end(), surviving.begin(),
                            surviving.end());
    attempts.push_back(Attempt{d.snapshot_prev, d.base_prev, &d.wear_prev,
                               std::move(fallback_journal)});
  }

  std::unique_ptr<WearLeveler> recovered;
  RecoveryOutcome outcome;
  const Attempt* used = nullptr;
  for (const Attempt& attempt : attempts) {
    auto candidate = d.fresh_scheme(scenario_);
    try {
      outcome = recover(*candidate, attempt.snapshot, attempt.journal);
    } catch (const SnapshotError&) {
      ++d.outcome.snapshot_fallbacks;
      continue;
    }
    recovered = std::move(candidate);
    used = &attempt;
    break;
  }
  if (recovered == nullptr) {
    // Unreachable by construction: chaos never damages snapshot_prev.
    throw std::runtime_error("fleet device " + std::to_string(d.index) +
                             ": no recoverable snapshot at write " +
                             std::to_string(k));
  }
  ++d.outcome.recoveries;
  d.outcome.replayed_writes += outcome.replayed_writes;

  const std::uint64_t committed = used->base + outcome.replayed_writes;
  const bool commit_survived = committed == k;
  if (!commit_survived) ++d.outcome.rollbacks;

  CrashContext ctx;
  ctx.crash_la = la;
  ctx.k = k;
  ctx.in_flight = in_flight;
  ctx.committed = committed;
  ctx.snapshot = &used->snapshot;
  ctx.base = used->base;
  ctx.wear = used->wear;
  ctx.rolled_back = outcome.rolled_back_la.has_value();
  ctx.rolled_back_la = outcome.rolled_back_la.value_or(LogicalPageAddr{});
  if (!verify_invariants(d, ctx, *recovered)) {
    ++d.outcome.invariant_failures;
  }

  // Adopt the recovered scheme: rebuild the controller around it
  // (counters continue, so the published totals include the aborted
  // attempt's real device writes), take a fresh post-recovery snapshot,
  // and — when the interrupted write rolled back — re-submit it, exactly
  // as the host would re-issue the request that never completed.
  d.wl = std::move(recovered);
  d.controller = std::make_unique<MemoryController>(
      *d.device, *d.wl, d.config, /*enable_timing=*/false);
  d.controller->restore_stats(stats_at_crash);
  d.journal.truncate();
  d.controller->attach_journal(&d.journal);
  d.snapshot_cur = take_snapshot(*d.wl);
  d.snapshot_prev = d.snapshot_cur;
  d.retained_journal.clear();
  d.base_cur = committed;
  d.base_prev = committed;
  d.wear_cur = wear_blob(*d.device);
  d.wear_prev = d.wear_cur;
  if (!commit_survived) {
    d.controller->submit(write_request(la), 0);
  }
  d.writes_done = k;
}

std::uint64_t FleetSimulator::run_device(DeviceState& cold,
                                         std::uint32_t device,
                                         std::uint32_t from_day,
                                         std::uint32_t until_day) const {
  auto d = thaw(cold, device);
  const std::uint64_t writes_before = d->writes_done;
  for (std::uint32_t day = from_day; day < until_day; ++day) {
    for (std::uint64_t i = 0; i < scenario_.writes_per_day; ++i) {
      const std::uint64_t k = d->writes_done + 1;
      const LogicalPageAddr la = d->stream.next();
      const ChaosEvent* ev = nullptr;
      if (d->chaos_cursor < d->schedule.size() &&
          d->schedule[d->chaos_cursor].at_write <= k) {
        ev = &d->schedule[d->chaos_cursor];
        ++d->chaos_cursor;
      }
      if (ev != nullptr) {
        inject(*d, *ev, la, k);
      } else {
        d->controller->submit(write_request(la), 0);
        d->writes_done = k;
      }
    }
    if ((day + 1) % scenario_.snapshot_interval_days == 0) {
      rotate_snapshots(*d);
    }
  }
  cold = freeze(*d);
  return d->writes_done - writes_before;
}

void FleetSimulator::advance(FleetState& state, std::uint32_t until_day,
                             SimRunner& runner) const {
  if (state.devices.size() != scenario_.devices) {
    throw std::invalid_argument(
        "fleet state has " + std::to_string(state.devices.size()) +
        " devices, scenario '" + scenario_.name + "' expects " +
        std::to_string(scenario_.devices));
  }
  const std::uint32_t target =
      std::min(until_day, scenario_.horizon_days);
  if (target <= state.day) return;

  std::vector<SimCell> cells;
  cells.reserve(scenario_.devices);
  for (std::uint32_t dev = 0; dev < scenario_.devices; ++dev) {
    cells.push_back([this, &state, dev, from = state.day, target] {
      return run_device(state.devices[dev], dev, from, target);
    });
  }
  runner.run_all(cells);
  state.day = target;
}

FleetResult FleetSimulator::finalize(const FleetState& state,
                                     MetricsRegistry* metrics) const {
  FleetResult result;
  result.scenario = scenario_.name;
  result.devices.reserve(state.devices.size());

  std::vector<std::uint8_t> digest_bytes;
  for (std::size_t i = 0; i < state.devices.size(); ++i) {
    const DeviceState& s = state.devices[i];
    DeviceReport rep;
    rep.device = static_cast<std::uint32_t>(i);
    rep.committed_writes = s.writes_done;
    rep.outcome = s.outcome;
    rep.journal_bytes = s.journal_total_bytes;
    // Digest the snapshot *body*, excluding its own 4-byte CRC tail: by
    // the CRC residue property, crc32 over message ++ crc32(message) is a
    // constant, so chaining through the full blob would erase the scheme
    // state from the digest entirely.
    const std::size_t scheme_body =
        s.scheme.size() >= 4 ? s.scheme.size() - 4 : s.scheme.size();
    const std::uint32_t scheme_crc = crc32(s.scheme.data(), scheme_body);
    rep.state_digest =
        crc32(s.device_wear.data(), s.device_wear.size(), scheme_crc);
    for (int b = 0; b < 4; ++b) {
      digest_bytes.push_back(
          static_cast<std::uint8_t>(rep.state_digest >> (8 * b)));
    }

    result.committed_writes += rep.committed_writes;
    result.totals.crashes += s.outcome.crashes;
    result.totals.recoveries += s.outcome.recoveries;
    result.totals.rollbacks += s.outcome.rollbacks;
    result.totals.snapshot_fallbacks += s.outcome.snapshot_fallbacks;
    result.totals.invariant_failures += s.outcome.invariant_failures;
    result.totals.replayed_writes += s.outcome.replayed_writes;
    for (std::size_t kind = 0; kind < kNumChaosKinds; ++kind) {
      result.totals.chaos_by_kind[kind] += s.outcome.chaos_by_kind[kind];
    }

    if (metrics != nullptr) {
      ControllerStats stats;
      SnapshotReader cr(s.controller);
      stats.load_state(cr);
      stats.publish(*metrics);
      metrics->histogram("fleet.writes_per_device").add(s.writes_done);
      metrics->histogram("fleet.crashes_per_device").add(s.outcome.crashes);
    }
    result.devices.push_back(rep);
  }
  result.fleet_digest = crc32(digest_bytes.data(), digest_bytes.size());

  if (metrics != nullptr) {
    metrics->counter("fleet.devices").add(state.devices.size());
    metrics->counter("fleet.committed_writes").add(result.committed_writes);
    metrics->counter("fleet.crashes").add(result.totals.crashes);
    metrics->counter("fleet.recoveries").add(result.totals.recoveries);
    metrics->counter("fleet.rollbacks").add(result.totals.rollbacks);
    metrics->counter("fleet.snapshot_fallbacks")
        .add(result.totals.snapshot_fallbacks);
    metrics->counter("fleet.invariant_failures")
        .add(result.totals.invariant_failures);
    metrics->counter("fleet.replayed_writes")
        .add(result.totals.replayed_writes);
    for (std::size_t kind = 0; kind < kNumChaosKinds; ++kind) {
      metrics
          ->counter("fleet.chaos." +
                    to_string(static_cast<ChaosKind>(kind)))
          .add(result.totals.chaos_by_kind[kind]);
    }
  }
  return result;
}

}  // namespace twl
