#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "attack/attacks.h"
#include "common/checksum.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/sim_runner.h"
#include "fleet/fleet.h"
#include "fleet/scenario.h"
#include "fleet/workload.h"
#include "probe.h"
#include "recovery/snapshot.h"
#include "service/queue.h"
#include "service/service.h"
#include "service/shard.h"
#include "service/tenant.h"
#include "sim/attack_sim.h"
#include "sim/lifetime_sim.h"
#include "sim/memory_controller.h"
#include "spans.h"
#include "trace/parsec_model.h"
#include "wl/factory.h"

namespace perfbench {
namespace {

using twl::Config;
using twl::LogicalPageAddr;
using twl::MemoryRequest;
using twl::Op;

// ---------------------------------------------------------------------------
// Workload sizes. One unit of work ("rep") takes 0.05 to 0.4 s on one core
// of the 4-core Xeon VM the benchmark was tuned on, so a run repeats it
// dozens of times and reports medians over the reps.

// paper_lifetime: TWL_swp to first failure, attack half then zipf half.
constexpr std::uint64_t kAttackPages = 1024;
constexpr double kAttackEndurance = 1024;
constexpr std::uint64_t kZipfPages = 1024;
constexpr double kZipfEndurance = 2048;
constexpr const char* kParsec = "canneal";
/// Demand-write cap as a multiple of the ideal lifetime; the gate requires
/// both halves to reach first failure before it.
constexpr std::uint64_t kWriteCapFactor = 4;

// service_rt: the realtime engine at 1 shard x 1 client, bench_service's
// device scale (64 pages per shard, endurance 1e6).
constexpr std::uint64_t kRtPages = 64;
constexpr double kRtEndurance = 1e6;
constexpr std::uint64_t kRtRequests = 1u << 18;

// tenant_chaos: the virtual engine in tenant mode, under chaos.
constexpr std::uint64_t kTcPages = 256;
constexpr double kTcEndurance = 1e6;
constexpr std::uint64_t kTcRequestsPerClient = 1u << 13;

// fleet_chaos: four devices under the inconsistent attack, under chaos.
constexpr std::uint64_t kFcPages = 256;
constexpr double kFcEndurance = 1e6;

/// Share of a traced run's seconds given to its untraced phase.
constexpr double kUntracedShare = 0.4;
/// Untraced reps per run at least; set-up is timed once per rep.
constexpr int kMinReps = 3;

// ---------------------------------------------------------------------------
// Seed streams the library derives internally (client_seeds in
// service.cpp, shard_seeds in shard.cpp, device_seeds in fleet.cpp). The
// traced pass rebuilds the engines' streams and stacks from them. If one
// drifts, a check fails: service_rt's shard digest for the client salt,
// the mirrors' scheme-snapshot checks for the shard and device salts.
constexpr std::uint64_t kClientSalt = 0xC11E'A5E0'0000'0000ULL;
constexpr std::uint64_t kShardSalt = 0x5EAF'1CE5'0000'0000ULL;
constexpr std::uint64_t kDeviceSalt = 0xF1EE'7D0C'0000'0000ULL;

std::array<std::uint64_t, 5> derive_seeds(std::uint64_t seed,
                                          std::uint64_t salt) {
  twl::SplitMix64 mix(seed ^ salt);
  std::array<std::uint64_t, 5> s{};
  for (auto& v : s) v = mix.next();
  return s;
}

// ---------------------------------------------------------------------------
// Small helpers.

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Throughput of a run: the rate at the 75th percentile of per-rep time,
/// i.e. the lower quartile of the per-rep rates. The tuning VM alternates
/// between a common contended state and shorter faster periods; the lower
/// quartile follows the common state and moved least from run to run
/// (measured on fleet_chaos: 7% range over six runs against 8% for the
/// median, 16% against 29% over 5 s windows of one process).
double rep_rate(const std::vector<double>& rates) {
  std::vector<double> v = rates;
  std::sort(v.begin(), v.end());
  const double pos = 0.25 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string json_u64(std::uint64_t v) { return std::to_string(v); }

std::string json_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%llx\"", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Repeats a unit of work until `seconds` have passed, at least `min_reps`
/// times.
class RepClock {
 public:
  RepClock(double seconds, int min_reps)
      : start_(now_ns()), seconds_(seconds), min_reps_(min_reps) {}
  [[nodiscard]] bool more(int done) const {
    return done < min_reps_ || seconds_since(start_) < seconds_;
  }

 private:
  std::uint64_t start_;
  double seconds_;
  int min_reps_;
};

RepClock untraced_clock(const RunOptions& opt) {
  return opt.trace ? RepClock(opt.seconds * kUntracedShare, 1)
                   : RepClock(opt.seconds, kMinReps);
}

Config scaled_config(std::uint64_t pages, double endurance,
                     std::uint64_t seed) {
  twl::SimScale s;
  s.pages = pages;
  s.endurance_mean = endurance;
  s.seed = seed;
  return Config::scaled(s);
}

/// Median build time (ms) of a workload's stacks, summed over the stacks:
/// the endurance draws, then the device + scheme tables.
std::pair<double, double> stack_setup_ms(const std::vector<StackSpec>& specs) {
  std::vector<double> endurance;
  std::vector<double> scheme;
  for (int rep = 0; rep < 5; ++rep) {
    double e = 0.0;
    double s = 0.0;
    for (const StackSpec& spec : specs) {
      const Stack stack(spec);
      e += stack.endurance_s;
      s += stack.scheme_s;
    }
    endurance.push_back(e * 1e3);
    scheme.push_back(s * 1e3);
  }
  return {median(endurance), median(scheme)};
}

/// Every rep of a seed must reproduce the first rep's simulated outputs.
void merge_outputs(Result& r, const std::map<std::string, std::string>& rep) {
  if (r.outputs.empty()) {
    r.outputs = rep;
    r.checks["reps_agree"] = true;
  } else if (r.outputs != rep) {
    r.checks["reps_agree"] = false;
  }
}

/// The traced pass must leave every simulated output unchanged.
void check_traced(Result& r, const std::map<std::string, std::string>& traced) {
  bool same = true;
  for (const auto& [k, v] : traced) {
    const auto it = r.outputs.find(k);
    if (it == r.outputs.end() || it->second != v) same = false;
  }
  r.checks["traced_outputs_match"] = same;
}

void set_end_to_end(Result& r, const std::vector<double>& setups,
                    const std::vector<double>& rates) {
  r.metrics["setup_s"] = median(setups);
  r.metrics["writes_per_s"] = rep_rate(rates);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
}

/// Rows shared by every traced workload. `rows_sum` is the sum of the
/// workload's layer rows. Against the untraced phase the residual makes
/// them add up to the untraced ns per write, so it also holds the host's
/// drift between the phases; against the traced pass, measured in the same
/// pass as the rows, it is what the rows leave unexplained.
void set_ledger(Result& r, const std::string& workload, double untraced,
                double traced, double rows_sum, const SpanLog& log) {
  r.metrics["bench.untraced_ns"] = untraced;
  r.metrics["bench.traced_ns"] = traced;
  r.metrics["bench.trace_overhead_frac"] = traced / untraced - 1.0;
  r.metrics["bench.clock_read_ns"] = log.clock_ns();
  r.metrics["bench.traced_unattributed_ns"] = traced - rows_sum;
  r.metrics[workload + ".unattributed_ns"] = untraced - rows_sum;
}

/// Rows from a LayerProbe's spans, per mirrored write.
void set_probe_rows(Result& r, const std::map<std::string, double>& t,
                    double writes) {
  const auto total = [&t](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second;
  };
  auto& m = r.metrics;
  m["wl.write_ns"] = total("wl.write") / writes;
  m["wl.map_read_ns"] = total("wl.map_read") / writes;
  m["device.apply_write_ns"] = total("device.apply_write") / writes;
  m["sim.submit_ns"] = total("sim.submit") / writes;
  m["sim.self_ns"] =
      (total("sim.submit") - total("wl.write") - total("device.apply_write")) /
      writes;
  m["recovery.journal_ns"] =
      (total("recovery.journaled_submit") > 0.0
           ? total("recovery.journaled_submit") - total("sim.submit")
           : 0.0) /
      writes;
  m["recovery.journal_batch_ns"] =
      (total("recovery.journaled_batch") > 0.0
           ? total("recovery.journaled_batch") - total("sim.submit")
           : 0.0) /
      writes;
  m["recovery.snapshot_ns"] = total("recovery.snapshot") / writes;
}

void set_probe_counts(Result& r, const ProbeCounts& c,
                      const std::map<std::string, double>& t) {
  if (c.snapshots > 0) {
    r.metrics["recovery.snapshot_bytes"] =
        static_cast<double>(c.snapshot_bytes) /
        static_cast<double>(c.snapshots);
  }
  if (c.crash_samples > 0) {
    const double n = static_cast<double>(c.crash_samples);
    r.metrics["recovery.restore_ns"] = t.at("recovery.restore") / n;
    r.metrics["recovery.recover_ns"] = t.at("recovery.recover") / n;
  }
}

void add_counts(ProbeCounts& into, const ProbeCounts& c) {
  into.physical_writes += c.physical_writes;
  into.snapshots += c.snapshots;
  into.snapshot_bytes += c.snapshot_bytes;
  into.crash_samples += c.crash_samples;
}

// ===========================================================================
// paper_lifetime

StackSpec paper_spec(std::uint64_t pages, double endurance,
                     std::uint64_t seed, bool timing) {
  StackSpec s;
  s.config = scaled_config(pages, endurance, seed);
  s.scheme_spec = "TWL_swp";
  s.endurance_seed = s.config.seed;
  s.timing = timing;
  return s;
}

/// The scheme AttackSimulator and LifetimeSimulator run; "TWL_swp" in
/// the StackSpecs above.
constexpr twl::Scheme kPaperScheme = twl::Scheme::kTossUpStrongWeak;

std::string json_purposes(const twl::ControllerStats& stats) {
  std::string out = "[";
  for (std::size_t i = 0; i < stats.writes_by_purpose.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_u64(stats.writes_by_purpose[i]);
  }
  return out + "]";
}

std::map<std::string, std::string> half_outputs(
    const std::string& prefix, twl::WriteCount writes, double fraction,
    const twl::ControllerStats& stats) {
  return {{prefix + ".demand_writes", json_u64(writes)},
          {prefix + ".fraction_of_ideal", json_double(fraction)},
          {prefix + ".writes_by_purpose", json_purposes(stats)}};
}

/// One half of the traced pass: the simulator's loop on a Stack built
/// from the same spec, recording each write's address and, for the
/// attacker, the latency it was shown before choosing it.
struct Half {
  std::uint64_t writes = 0;
  double fraction = 0.0;
  double seconds = 0.0;
  twl::ControllerStats stats;
  std::vector<std::uint32_t> las;
  std::vector<twl::Cycles> latencies;
};

/// AttackSimulator::run's loop: the closed-loop §3.2 attacker, timing on.
Half record_attack(const StackSpec& spec, twl::AttackProgram& attack,
                   std::uint64_t cap) {
  Stack stack(spec);
  twl::MemoryController ctl(*stack.device, *stack.wl, spec.config,
                            /*enable_timing=*/true);
  const std::uint64_t space = stack.wl->logical_pages();
  Half h;
  twl::Cycles now = 0;
  twl::Cycles last = 0;
  const std::uint64_t t0 = now_ns();
  while (!ctl.device_failed() && ctl.stats().demand_writes < cap) {
    MemoryRequest req = attack.next(last);
    req.addr = LogicalPageAddr(req.addr.value() % space);
    h.latencies.push_back(last);
    h.las.push_back(req.addr.value());
    last = ctl.submit(req, now);
    now += last;
  }
  h.seconds = seconds_since(t0);
  h.writes = ctl.stats().demand_writes;
  h.fraction = static_cast<double>(h.writes) /
               static_cast<double>(stack.endurance.total_endurance());
  h.stats = ctl.stats();
  return h;
}

/// LifetimeSimulator::run's loop: a PARSEC-calibrated zipf stream, timing
/// off, reads skipped (they cause no wear).
Half record_zipf(const StackSpec& spec, twl::RequestSource& source,
                 std::uint64_t cap) {
  Stack stack(spec);
  twl::MemoryController ctl(*stack.device, *stack.wl, spec.config,
                            /*enable_timing=*/false);
  const std::uint64_t space = stack.wl->logical_pages();
  Half h;
  const std::uint64_t t0 = now_ns();
  while (!ctl.device_failed() && ctl.stats().demand_writes < cap) {
    MemoryRequest req = source.next();
    if (req.op != Op::kWrite) continue;
    req.addr = LogicalPageAddr(req.addr.value() % space);
    h.las.push_back(req.addr.value());
    ctl.submit(req, 0);
  }
  h.seconds = seconds_since(t0);
  h.writes = ctl.stats().demand_writes;
  h.fraction = static_cast<double>(h.writes) /
               static_cast<double>(stack.endurance.total_endurance());
  h.stats = ctl.stats();
  return h;
}

/// Traced replay of one half: per chunk, the request source regenerates the
/// recorded addresses (trace.next), then the probe stages run on them.
template <typename NextFn>
bool replay_half(const Half& h, const StackSpec& spec, SpanLog& log,
                 NextFn next, ProbeCounts& counts) {
  LayerProbe probe(spec, {}, log);
  const std::uint32_t n_next = log.name_id("trace.next");
  const std::uint64_t space = spec.config.geometry.pages();
  std::vector<std::uint32_t> regenerated(kChunk);
  bool same = true;
  for (std::size_t i = 0; i < h.las.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, h.las.size() - i);
    {
      const Scope s(log, n_next, SpanLog::kRoot, i);
      for (std::size_t j = 0; j < n; ++j) regenerated[j] = next(i + j);
    }
    for (std::size_t j = 0; j < n; ++j) {
      same = same && regenerated[j] % space == h.las[i + j];
    }
    probe.run(h.las.data() + i, n, i);
  }
  counts = probe.counts();
  return same && probe.device_failed();
}

Result run_paper_lifetime(const RunOptions& opt) {
  Result r;
  const StackSpec attack_spec =
      paper_spec(kAttackPages, kAttackEndurance, opt.seed, true);
  const StackSpec zipf_spec =
      paper_spec(kZipfPages, kZipfEndurance, opt.seed, false);
  const twl::ParsecBenchmark& parsec = twl::parsec_benchmark(kParsec);
  const auto make_attack = [&] {
    return twl::make_attack("inconsistent", kAttackPages,
                            attack_spec.config.seed);
  };
  const auto make_source = [&] {
    return parsec.make_source(kZipfPages, zipf_spec.config.seed);
  };

  // Untraced phase: the library's own simulators. Set-up is the two
  // constructors (the endurance draws) plus the device and scheme tables,
  // timed on Stacks since run() builds its own inside the timed phase.
  //
  // An attack write and a zipf write cost different host time, and each
  // half's lifetime, so the mix, changes with the seed. writes_per_s is
  // therefore the rate of an equal mix (the harmonic mean of the two
  // halves' rates), which the seed does not move; the traced ledger
  // explains the seed's actual mix.
  std::vector<double> rates, mix_rates, setups, endurance_ms, scheme_ms;
  std::uint64_t cap_a = 0;
  std::uint64_t cap_z = 0;
  bool failed_first = true;
  const RepClock clock = untraced_clock(opt);
  for (int rep = 0; clock.more(rep); ++rep) {
    const std::uint64_t t0 = now_ns();
    const twl::AttackSimulator asim(attack_spec.config);
    const twl::LifetimeSimulator lsim(zipf_spec.config);
    const double ctor_s = seconds_since(t0);
    const double tables_s =
        Stack(attack_spec).scheme_s + Stack(zipf_spec).scheme_s;
    setups.push_back(ctor_s + tables_s);
    endurance_ms.push_back(ctor_s * 1e3);
    scheme_ms.push_back(tables_s * 1e3);
    const auto attack = make_attack();
    const auto source = make_source();
    cap_a = kWriteCapFactor * asim.endurance().total_endurance();
    cap_z = kWriteCapFactor * lsim.ideal_demand_writes();

    const std::uint64_t t1 = now_ns();
    const twl::AttackResult ra = asim.run(kPaperScheme, *attack, cap_a);
    const double secs_a = seconds_since(t1);
    const std::uint64_t t2 = now_ns();
    const twl::LifetimeResult rz = lsim.run(kPaperScheme, *source, cap_z);
    const double secs_z = seconds_since(t2);
    failed_first = failed_first && ra.failed && rz.failed;
    r.attempted += ra.demand_writes + rz.demand_writes;
    const double wa = static_cast<double>(ra.demand_writes);
    const double wz = static_cast<double>(rz.demand_writes);
    rates.push_back(2.0 / (secs_a / wa + secs_z / wz));
    mix_rates.push_back((wa + wz) / (secs_a + secs_z));
    auto out = half_outputs("attack", ra.demand_writes, ra.fraction_of_ideal,
                            ra.stats);
    out.merge(half_outputs("zipf", rz.demand_writes, rz.fraction_of_ideal,
                           rz.stats));
    merge_outputs(r, out);
  }
  r.checks["first_failure_reached"] = failed_first;
  if (!opt.trace) {
    set_end_to_end(r, setups, rates);
    return r;
  }
  const double untraced_ns = 1e9 / rep_rate(mix_rates);

  // Traced pass: the simulators' loops on Stacks built from the same
  // specs, recording every address (and the latency the attacker saw);
  // they must reproduce the simulators' outputs exactly. Then each half is
  // replayed chunk by chunk through the request source and the probe
  // stages.
  SpanLog log;
  const Half a = record_attack(attack_spec, *make_attack(), cap_a);
  const Half z = record_zipf(zipf_spec, *make_source(), cap_z);
  auto traced_out = half_outputs("attack", a.writes, a.fraction, a.stats);
  traced_out.merge(half_outputs("zipf", z.writes, z.fraction, z.stats));
  check_traced(r, traced_out);

  ProbeCounts ca, cz;
  const auto attacker = make_attack();
  const bool attack_ok = replay_half(
      a, attack_spec, log,
      [&](std::size_t i) {
        return attacker->next(a.latencies[i]).addr.value();
      },
      ca);
  const auto source = make_source();
  const bool zipf_ok = replay_half(
      z, zipf_spec, log,
      [&](std::size_t) {
        MemoryRequest req = source->next();
        while (req.op != Op::kWrite) req = source->next();
        return req.addr.value();
      },
      cz);
  r.checks["probe_matches_controller"] =
      attack_ok && zipf_ok && ca.by_purpose == a.stats.writes_by_purpose &&
      cz.by_purpose == z.stats.writes_by_purpose;
  r.outputs["attack.physical_digest"] = json_hex(ca.physical_digest);
  r.outputs["zipf.physical_digest"] = json_hex(cz.physical_digest);

  const auto t = log.self_ns();
  const double w = static_cast<double>(a.writes + z.writes);
  set_probe_rows(r, t, w);
  auto& m = r.metrics;
  m["trace.next_ns"] = t.at("trace.next") / w;
  m["sim.submit_timed_ns"] =
      t.at("sim.submit_timed") / static_cast<double>(a.writes);
  m["sim.submit_ns"] = t.at("sim.submit") / static_cast<double>(z.writes);
  m["sim.self_ns"] = (t.at("sim.submit_timed") + t.at("sim.submit") -
                      t.at("wl.write") - t.at("device.apply_write")) /
                     w;
  m["wl.extra_writes_per_write"] =
      static_cast<double>(ca.physical_writes - a.writes) /
      static_cast<double>(a.writes);
  m["setup.endurance_ms"] = median(endurance_ms);
  m["setup.scheme_ms"] = median(scheme_ms);
  const double rows = m["trace.next_ns"] + m["wl.write_ns"] +
                      m["device.apply_write_ns"] + m["sim.self_ns"];
  set_ledger(r, "paper_lifetime", untraced_ns,
             (a.seconds + z.seconds) * 1e9 / w, rows, log);
  if (!opt.spans_path.empty()) log.write_csv(opt.spans_path);
  return r;
}

// ===========================================================================
// Service workloads: shared pieces.

/// ServiceFrontEnd::shard_params, as the engines build it.
twl::ShardParams shard_params(const twl::ServiceConfig& svc,
                              const twl::ServiceFrontEnd& fe) {
  twl::ShardParams p;
  p.scheme_spec = svc.scheme_spec;
  p.chaos = svc.chaos;
  p.horizon_writes = svc.clients * svc.requests_per_client;
  p.snapshot_interval_writes = svc.snapshot_interval_writes;
  p.degraded_window_writes = svc.degraded_window_writes;
  p.quarantine_cycles = svc.quarantine_cycles;
  p.recovery_base_cycles = svc.recovery_base_cycles;
  p.recovery_per_replay_cycles = svc.recovery_per_replay_cycles;
  p.keep_history = svc.verify_final_state;
  p.min_cache_hit_rate = svc.min_cache_hit_rate;
  if (svc.tenancy.active()) p.directory_blob = fe.directory().serialize();
  return p;
}

/// The stack ServiceShard `shard` builds over service config `config`.
StackSpec shard_spec(const Config& config, const twl::ServiceConfig& svc,
                     std::uint32_t shard) {
  const auto seeds = derive_seeds(config.seed, kShardSalt + shard);
  StackSpec s;
  s.config = config;
  s.config.seed = seeds[1];
  s.scheme_spec = svc.scheme_spec;
  s.endurance_seed = seeds[0];
  s.latch_device = true;
  return s;
}

/// Service set-up as a user pays it: the front-end plus every shard.
double service_setup_s(const Config& config, const twl::ServiceConfig& svc) {
  const std::uint64_t t0 = now_ns();
  const twl::ServiceFrontEnd fe(config, svc);
  const twl::ShardParams params = shard_params(svc, fe);
  for (std::uint32_t s = 0; s < svc.shards; ++s) {
    const twl::ServiceShard shard(config, params, s);
  }
  return seconds_since(t0);
}

void set_service_diagnostics(Result& r, const twl::ServiceRunResult& res) {
  auto& m = r.metrics;
  const twl::ServiceTotals& t = res.totals;
  std::uint64_t peak = 0;
  std::uint64_t journal = 0;
  for (const twl::ShardReport& s : res.shards) {
    peak = std::max(peak, s.peak_queue_depth);
    journal += s.journal_bytes;
  }
  m["service.blocked"] = static_cast<double>(t.blocked);
  m["service.peak_queue_depth"] = static_cast<double>(peak);
  m["service.retries"] = static_cast<double>(t.retries);
  m["service.quota_shed"] = static_cast<double>(t.quota_shed);
  m["service.failed_frac"] =
      static_cast<double>(t.shed_overflow + t.shed_unavailable +
                          t.quota_shed + t.timed_out) /
      static_cast<double>(t.submitted);
  m["recovery.crashes"] = static_cast<double>(res.chaos_totals.crashes);
  m["recovery.replayed_writes"] =
      static_cast<double>(res.chaos_totals.replayed_writes);
  m["recovery.snapshot_fallbacks"] =
      static_cast<double>(res.chaos_totals.snapshot_fallbacks);
  m["recovery.journal_bytes_per_write"] =
      static_cast<double>(journal) / static_cast<double>(t.accepted);
}

// ===========================================================================
// service_rt

twl::ServiceConfig rt_service() {
  twl::ServiceConfig svc;
  svc.shards = 1;
  svc.clients = 1;
  svc.requests_per_client = kRtRequests;
  svc.overflow = twl::OverflowPolicy::kBlock;
  return svc;
}

/// The realtime engine's queue item (client la, enqueue time, deadline).
struct RtItem {
  std::uint32_t la = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t deadline_ns = 0;
};

Result run_service_rt(const RunOptions& opt) {
  Result r;
  const Config config = scaled_config(kRtPages, kRtEndurance, opt.seed);
  const twl::ServiceConfig svc = rt_service();

  std::vector<double> rates, setups, p50, p99;
  twl::ServiceRunResult last;
  bool lossless = true;
  const RepClock clock = untraced_clock(opt);
  for (int rep = 0; clock.more(rep); ++rep) {
    setups.push_back(service_setup_s(config, svc));
    const twl::ServiceFrontEnd fe(config, svc);
    last = fe.run_realtime();
    const twl::ServiceTotals& t = last.totals;
    r.attempted += t.submitted;
    r.failed += t.submitted - std::min(t.accepted, t.submitted);
    lossless = lossless && t.accounting_exact() && t.accepted == t.submitted;
    rates.push_back(static_cast<double>(t.accepted) / last.wall_seconds);
    p50.push_back(last.latency_p50 * 1e-3);
    p99.push_back(last.latency_p99 * 1e-3);
    merge_outputs(r, {{"accepted", json_u64(t.accepted)},
                      {"shard_digest", json_hex(last.shards[0].state_digest)},
                      {"service_digest", json_hex(last.service_digest)}});
  }
  r.checks["books_exact_lossless"] = lossless;
  if (!opt.trace) {
    set_end_to_end(r, setups, rates);
    return r;
  }
  const double untraced_ns = 1e9 / rep_rate(rates);
  set_service_diagnostics(r, last);
  r.metrics["service.latency_p50_us"] = median(p50);
  r.metrics["service.latency_p99_us"] = median(p99);
  r.metrics["service.latency_samples"] =
      static_cast<double>(last.totals.accepted);

  // Traced pass: run_realtime's client and shard worker taking turns on one
  // thread. Per staging batch: generate, route, stage with an enqueue
  // stamp, hand the batch through the queue, execute it, stamp each
  // completion; then the probe stages on the same batch.
  SpanLog log;
  const std::uint32_t n_next = log.name_id("trace.next");
  const std::uint32_t n_route = log.name_id("service.route");
  const std::uint32_t n_stage = log.name_id("service.stage");
  const std::uint32_t n_queue = log.name_id("service.queue");
  const std::uint32_t n_exec = log.name_id("service.execute");
  const twl::ServiceFrontEnd fe(config, svc);
  twl::ServiceShard shard(config, shard_params(svc, fe), 0);
  twl::BoundedMpscQueue<RtItem> queue(svc.queue_capacity);
  twl::FleetStream stream(svc.workload, fe.global_pages(),
                          derive_seeds(config.seed, kClientSalt)[0]);
  LayerProbe probe(shard_spec(config, svc, 0),
                   {true, 0, svc.snapshot_interval_writes}, log);
  std::vector<std::uint32_t> globals(kChunk), locals(kChunk);
  std::vector<RtItem> staging, drained;
  staging.reserve(kChunk);
  drained.reserve(kChunk);

  const std::uint64_t n_req = svc.requests_per_client;
  double probe_s = 0.0;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < n_req; i += kChunk) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, n_req - i));
    {
      const Scope s(log, n_next, SpanLog::kRoot, i);
      for (std::size_t j = 0; j < n; ++j) globals[j] = stream.next().value();
    }
    {
      const Scope s(log, n_route, SpanLog::kRoot, i);
      for (std::size_t j = 0; j < n; ++j) {
        locals[j] = fe.route(globals[j]).second;
      }
    }
    {
      const Scope s(log, n_stage, SpanLog::kRoot, i);
      for (std::size_t j = 0; j < n; ++j) {
        staging.push_back(RtItem{locals[j], now_ns(), 0});
      }
    }
    {
      const Scope s(log, n_queue, SpanLog::kRoot, i);
      queue.push_batch(staging.data(), staging.size());
      queue.pop_batch(drained, kChunk);
    }
    staging.clear();
    {
      const Scope s(log, n_exec, SpanLog::kRoot, i);
      for (const RtItem& item : drained) {
        shard.execute(LogicalPageAddr(item.la));
      }
    }
    {
      const Scope s(log, n_stage, SpanLog::kRoot, i);
      for (std::size_t j = 0; j < drained.size(); ++j) {
        (void)now_ns();  // The worker stamps each completion.
      }
    }
    const std::uint64_t p0 = now_ns();
    probe.run(locals.data(), n, i);
    probe_s += seconds_since(p0);
  }
  const double traced_s = seconds_since(t0) - probe_s;
  check_traced(r, {{"accepted", json_u64(shard.accepted())},
                   {"shard_digest", json_hex(shard.state_digest())}});
  r.checks["probe_matches_controller"] =
      probe.counts().by_purpose == shard.controller().stats().writes_by_purpose;

  const auto t = log.self_ns();
  const double w = static_cast<double>(n_req);
  set_probe_rows(r, t, w);
  set_probe_counts(r, probe.counts(), t);
  auto& m = r.metrics;
  m["trace.next_ns"] = t.at("trace.next") / w;
  m["service.route_ns"] = t.at("service.route") / w;
  m["service.stage_ns"] = t.at("service.stage") / w;
  m["service.queue_ns"] = t.at("service.queue") / w;
  m["service.execute_ns"] = t.at("service.execute") / w;
  m["service.shard_self_ns"] =
      (t.at("service.execute") - t.at("recovery.journaled_submit") -
       t.at("recovery.snapshot")) /
      w;
  const auto [e_ms, s_ms] = stack_setup_ms({shard_spec(config, svc, 0)});
  m["setup.endurance_ms"] = e_ms;
  m["setup.scheme_ms"] = s_ms;
  const double rows = m["trace.next_ns"] + m["service.route_ns"] +
                      m["service.stage_ns"] + m["service.queue_ns"] +
                      m["service.execute_ns"];
  set_ledger(r, "service_rt", untraced_ns, traced_s * 1e9 / w, rows, log);
  if (!opt.spans_path.empty()) log.write_csv(opt.spans_path);
  return r;
}

// ===========================================================================
// tenant_chaos

twl::ServiceConfig tc_service() {
  twl::ServiceConfig svc;
  svc.shards = 4;
  svc.clients = 8;
  svc.requests_per_client = kTcRequestsPerClient;
  svc.overflow = twl::OverflowPolicy::kShed;
  svc.queue_capacity = 32;
  svc.service_cycles = 200;
  svc.mean_gap_cycles = 400;
  svc.tenancy.tenants = 4;
  svc.tenancy.blend = twl::TenantBlend::kHostile;
  svc.tenancy.quota_rate = 1;
  svc.tenancy.quota_burst = 16;
  svc.tenancy.drr_quantum = 16;
  svc.chaos.mean_interval_writes = 2000;
  svc.chaos.corruption = true;
  return svc;
}

/// Books balance per tenant, per shard and in aggregate, and the tenant
/// rows add up to the aggregate.
bool tenant_books_exact(const twl::ServiceRunResult& res,
                        std::uint32_t tenants) {
  bool exact = res.totals.accounting_exact() && res.tenants.size() == tenants;
  twl::ServiceTotals sum;
  for (const twl::TenantReport& tr : res.tenants) {
    exact = exact && tr.totals.accounting_exact();
    sum.add(tr.totals);
  }
  for (const twl::ShardReport& s : res.shards) {
    exact = exact && s.totals.accounting_exact() && s.directory_verified;
    for (const twl::TenantReport& tr : s.tenants) {
      exact = exact && tr.totals.accounting_exact();
    }
  }
  return exact && sum == res.totals;
}

Result run_tenant_chaos(const RunOptions& opt) {
  Result r;
  const Config config = scaled_config(kTcPages, kTcEndurance, opt.seed);
  const twl::ServiceConfig svc = tc_service();

  std::vector<double> rates, setups;
  twl::ServiceRunResult last;
  bool books = true;
  bool invariants = true;
  const RepClock clock = untraced_clock(opt);
  for (int rep = 0; clock.more(rep); ++rep) {
    setups.push_back(service_setup_s(config, svc));
    const twl::ServiceFrontEnd fe(config, svc);
    twl::SimRunner runner(1);
    const std::uint64_t t0 = now_ns();
    last = fe.run_virtual(runner);
    const double secs = seconds_since(t0);
    const twl::ServiceTotals& t = last.totals;
    r.attempted += t.submitted;
    // A refusal by quota, back-pressure or a crash window is the correct
    // outcome for its request; a request fails only if the books do not
    // account for it exactly.
    const bool exact = tenant_books_exact(last, svc.tenancy.tenants);
    if (!exact) r.failed += t.submitted;
    books = books && exact;
    invariants = invariants && last.chaos_totals.invariant_failures == 0;
    rates.push_back(static_cast<double>(t.accepted) / secs);
    std::map<std::string, std::string> out{
        {"service_digest", json_hex(last.service_digest)},
        {"submitted", json_u64(t.submitted)},
        {"accepted", json_u64(t.accepted)},
        {"shed_overflow", json_u64(t.shed_overflow)},
        {"shed_unavailable", json_u64(t.shed_unavailable)},
        {"quota_shed", json_u64(t.quota_shed)},
        {"timed_out", json_u64(t.timed_out)},
        {"crashes", json_u64(last.chaos_totals.crashes)}};
    for (const twl::TenantReport& tr : last.tenants) {
      const std::string p = "tenant" + std::to_string(tr.tenant);
      out[p + ".accepted"] = json_u64(tr.totals.accepted);
      out[p + ".quota_shed"] = json_u64(tr.totals.quota_shed);
      out[p + ".shed"] = json_u64(tr.totals.shed_overflow +
                                  tr.totals.shed_unavailable);
    }
    merge_outputs(r, out);
  }
  r.checks["books_exact"] = books;
  r.checks["zero_invariant_failures"] = invariants;
  if (!opt.trace) {
    set_end_to_end(r, setups, rates);
    return r;
  }
  const double untraced_ns = 1e9 / rep_rate(rates);
  set_service_diagnostics(r, last);

  // Traced pass. The virtual engine is one call, spanned whole; its inner
  // layers are measured by replaying its inputs. The client streams and
  // directory translation run as generate_arrivals builds them. The engine
  // does not expose which arrivals it admitted, so each shard's mirror
  // ServiceShard executes, per tenant, as many of that tenant's arrivals
  // (in arrival order) as the engine admitted there, drained in DRR turns
  // of the quantum as execute_batch groups; the probe stages run on the
  // same stream. The mirror then meets the same chaos events at the same
  // write counts as the engine's shard, so their chaos outcomes must be
  // equal, and its final scheme state must equal the crash-free probe's.
  SpanLog log;
  const twl::ServiceFrontEnd fe(config, svc);
  {
    const Scope s(log, log.name_id("service.run_virtual"), SpanLog::kRoot, 0);
    twl::SimRunner runner(1);
    const twl::ServiceRunResult traced = fe.run_virtual(runner);
    check_traced(r, {{"service_digest", json_hex(traced.service_digest)},
                     {"accepted", json_u64(traced.totals.accepted)}});
  }

  struct Arrival {
    twl::Cycles t;
    std::uint32_t client;
    std::uint64_t seq;
    std::uint32_t local;
  };
  const twl::TenantDirectory& dir = fe.directory();
  std::vector<std::vector<Arrival>> per_shard(svc.shards);
  {
    const std::uint32_t n_next = log.name_id("trace.next");
    const std::uint32_t n_xlate = log.name_id("service.tenant_translate");
    std::vector<std::uint32_t> tlas(kChunk);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> routed(kChunk);
    for (std::uint32_t c = 0; c < svc.clients; ++c) {
      const twl::TenantId tenant = c % svc.tenancy.tenants;
      const auto seeds = derive_seeds(config.seed, kClientSalt + c);
      twl::FleetStream stream(
          twl::blend_workload(svc.tenancy.blend, tenant, svc.workload),
          dir.tenant_pages(tenant), seeds[0]);
      twl::XorShift64Star gap_rng(seeds[1]);
      twl::Cycles t = 0;
      for (std::uint64_t i = 0; i < svc.requests_per_client; i += kChunk) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, svc.requests_per_client - i));
        {
          const Scope s(log, n_next, SpanLog::kRoot, i);
          for (std::size_t j = 0; j < n; ++j) tlas[j] = stream.next().value();
        }
        {
          const Scope s(log, n_xlate, SpanLog::kRoot, i);
          for (std::size_t j = 0; j < n; ++j) {
            routed[j] = dir.translate(tenant, tlas[j], svc.sharding);
          }
        }
        for (std::size_t j = 0; j < n; ++j) {
          t += 1 + gap_rng.next_below(2 * svc.mean_gap_cycles - 1);
          per_shard[routed[j].first].push_back(
              Arrival{t, c, i + j, routed[j].second});
        }
      }
    }
  }

  const std::uint32_t n_batch = log.name_id("service.execute_batch");
  const twl::ShardParams params = shard_params(svc, fe);
  const std::uint32_t tenants = svc.tenancy.tenants;
  const std::size_t quantum = svc.tenancy.drr_quantum;
  std::uint64_t mirrored = 0;
  bool mirror_matches = last.shards.size() == svc.shards;
  ProbeCounts counts;
  for (std::uint32_t s = 0; s < svc.shards && mirror_matches; ++s) {
    const twl::ShardReport& report = last.shards[s];
    auto& arr = per_shard[s];
    std::sort(arr.begin(), arr.end(), [](const Arrival& a, const Arrival& b) {
      return a.t != b.t ? a.t < b.t
                        : (a.client != b.client ? a.client < b.client
                                                : a.seq < b.seq);
    });
    std::vector<std::vector<std::uint32_t>> queues(tenants);
    for (const Arrival& x : arr) queues[x.client % tenants].push_back(x.local);
    std::vector<std::uint64_t> left(tenants, 0);
    for (const twl::TenantReport& tr : report.tenants) {
      left[tr.tenant] =
          std::min<std::uint64_t>(tr.totals.accepted, queues[tr.tenant].size());
    }
    // DRR turns: each tenant with writes left drains up to the quantum.
    std::vector<std::uint32_t> las;
    std::vector<std::size_t> group_end;
    std::vector<std::size_t> head(tenants, 0);
    for (bool more = true; more;) {
      more = false;
      for (std::uint32_t tn = 0; tn < tenants; ++tn) {
        const std::size_t g =
            static_cast<std::size_t>(std::min<std::uint64_t>(quantum, left[tn]));
        if (g == 0) continue;
        las.insert(las.end(), queues[tn].begin() + head[tn],
                   queues[tn].begin() + head[tn] + g);
        head[tn] += g;
        left[tn] -= g;
        group_end.push_back(las.size());
        more = true;
      }
    }

    twl::ServiceShard shard(config, params, s);
    LayerProbe probe(shard_spec(config, svc, s),
                     {true, static_cast<std::uint32_t>(quantum),
                      svc.snapshot_interval_writes},
                     log);
    std::vector<LogicalPageAddr> group;
    std::size_t begin = 0;
    std::size_t next_group = 0;
    while (begin < las.size() && !shard.dead()) {
      std::size_t end = begin;
      {
        const Scope sp(log, n_batch, SpanLog::kRoot, begin);
        while (next_group < group_end.size() && end - begin < kChunk) {
          group.clear();
          for (std::size_t k = end; k < group_end[next_group]; ++k) {
            group.emplace_back(las[k]);
          }
          (void)shard.execute_batch(group.data(), group.size());
          end = group_end[next_group++];
        }
      }
      probe.run(las.data() + begin, end - begin, begin);
      mirrored += end - begin;
      begin = end;
    }
    mirror_matches = shard.accepted() == report.totals.accepted &&
                     shard.outcome() == report.outcome &&
                     probe.journaled_snapshot() ==
                         twl::take_snapshot(shard.controller().wear_leveler());
    add_counts(counts, probe.counts());
  }
  r.checks["mirror_matches_engine"] =
      mirror_matches && mirrored == last.totals.accepted;

  const auto t = log.self_ns();
  const double e = static_cast<double>(mirrored);
  const double a = static_cast<double>(last.totals.accepted);
  set_probe_rows(r, t, e);
  set_probe_counts(r, counts, t);
  auto& m = r.metrics;
  const double engine = t.at("service.run_virtual");
  const double exec_batch = t.at("service.execute_batch");
  m["trace.next_ns"] = t.at("trace.next") / a;
  m["service.tenant_translate_ns"] = t.at("service.tenant_translate") / a;
  m["service.execute_batch_ns"] = exec_batch / e;
  m["service.shard_self_ns"] =
      (exec_batch - t.at("recovery.journaled_batch") -
       t.at("recovery.snapshot")) /
      e;
  m["service.engine_self_ns"] =
      (engine - t.at("trace.next") - t.at("service.tenant_translate")) / a -
      exec_batch / e;
  std::vector<StackSpec> specs;
  for (std::uint32_t s = 0; s < svc.shards; ++s) {
    specs.push_back(shard_spec(config, svc, s));
  }
  const auto [e_ms, s_ms] = stack_setup_ms(specs);
  m["setup.endurance_ms"] = e_ms;
  m["setup.scheme_ms"] = s_ms;
  const double rows = m["trace.next_ns"] + m["service.tenant_translate_ns"] +
                      m["service.execute_batch_ns"] +
                      m["service.engine_self_ns"];
  set_ledger(r, "tenant_chaos", untraced_ns, engine / a, rows, log);
  if (!opt.spans_path.empty()) log.write_csv(opt.spans_path);
  return r;
}

// ===========================================================================
// fleet_chaos

twl::Scenario fleet_scenario() {
  twl::Scenario s;
  s.name = "perfbench_fleet_chaos";
  s.scheme_spec = "TWL";
  s.workload.kind = twl::WorkloadKind::kInconsistentAttack;
  s.chaos.mean_interval_writes = 4096;
  s.chaos.corruption = true;
  s.devices = 4;
  s.horizon_days = 16;
  s.writes_per_day = 4096;
  s.snapshot_interval_days = 2;
  return s;
}

Result run_fleet_chaos(const RunOptions& opt) {
  Result r;
  const Config config = scaled_config(kFcPages, kFcEndurance, opt.seed);
  const twl::Scenario scenario = fleet_scenario();
  const std::uint64_t horizon = scenario.devices * scenario.horizon_writes();

  std::vector<double> rates, setups;
  twl::FleetResult last;
  bool invariants = true;
  const RepClock clock = untraced_clock(opt);
  for (int rep = 0; clock.more(rep); ++rep) {
    const std::uint64_t t0 = now_ns();
    const twl::FleetSimulator fleet(config, scenario);
    twl::FleetState state = fleet.fresh_state();
    setups.push_back(seconds_since(t0));
    twl::SimRunner runner(1);
    const std::uint64_t t1 = now_ns();
    for (std::uint32_t day = 1; day <= scenario.horizon_days; ++day) {
      fleet.advance(state, day, runner);
    }
    last = fleet.finalize(state);
    const double secs = seconds_since(t1);
    r.attempted += horizon;
    r.failed += horizon - std::min(last.committed_writes, horizon);
    invariants = invariants && last.totals.invariant_failures == 0 &&
                 last.totals.recoveries == last.totals.crashes;
    rates.push_back(static_cast<double>(last.committed_writes) / secs);
    merge_outputs(r, {{"fleet_digest", json_hex(last.fleet_digest)},
                      {"committed_writes", json_u64(last.committed_writes)},
                      {"crashes", json_u64(last.totals.crashes)},
                      {"snapshot_fallbacks",
                       json_u64(last.totals.snapshot_fallbacks)}});
  }
  r.checks["zero_invariant_failures"] = invariants;
  r.checks["every_write_committed"] = r.failed == 0;
  if (!opt.trace) {
    set_end_to_end(r, setups, rates);
    return r;
  }
  const double untraced_ns = 1e9 / rep_rate(rates);

  // Traced pass: the fleet's own calls, one span per simulated day, then
  // each device's stream regenerated chunk by chunk and run through the
  // probe stages.
  SpanLog log;
  twl::FleetState state;
  {
    const std::uint32_t n_day = log.name_id("fleet.advance_day");
    const twl::FleetSimulator fleet(config, scenario);
    state = fleet.fresh_state();
    twl::SimRunner runner(1);
    for (std::uint32_t day = 1; day <= scenario.horizon_days; ++day) {
      const Scope s(log, n_day, SpanLog::kRoot, day);
      fleet.advance(state, day, runner);
    }
    twl::FleetResult traced;
    {
      const Scope s(log, log.name_id("fleet.finalize"), SpanLog::kRoot, 0);
      traced = fleet.finalize(state);
    }
    check_traced(r,
                 {{"fleet_digest", json_hex(traced.fleet_digest)},
                  {"committed_writes", json_u64(traced.committed_writes)}});
  }

  const std::uint32_t n_next = log.name_id("trace.next");
  std::vector<StackSpec> specs;
  ProbeCounts counts;
  bool mirror_matches = true;
  std::vector<std::uint32_t> las(kChunk);
  for (std::uint32_t d = 0; d < scenario.devices; ++d) {
    const auto seeds = derive_seeds(config.seed, kDeviceSalt + d);
    StackSpec spec;
    spec.config = config;
    spec.config.seed = seeds[1];
    spec.config.device.backend = scenario.device_backend;
    spec.scheme_spec = scenario.scheme_spec;
    spec.endurance_seed = seeds[0];
    spec.latch_device = true;
    specs.push_back(spec);
    LayerProbe probe(spec,
                     {true, 0,
                      scenario.snapshot_interval_days * scenario.writes_per_day},
                     log);
    // TWL exposes the whole device as its logical space.
    twl::FleetStream stream(scenario.workload, config.geometry.pages(),
                            seeds[2]);
    for (std::uint64_t i = 0; i < scenario.horizon_writes(); i += kChunk) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kChunk, scenario.horizon_writes() - i));
      {
        const Scope s(log, n_next, SpanLog::kRoot, i);
        for (std::size_t j = 0; j < n; ++j) las[j] = stream.next().value();
      }
      probe.run(las.data(), n, i);
    }
    // Crash recovery restores the scheme exactly, so the device's final
    // scheme state is the crash-free probe's.
    mirror_matches = mirror_matches && d < state.devices.size() &&
                     probe.journaled_snapshot() == state.devices[d].scheme;
    add_counts(counts, probe.counts());
  }
  r.checks["mirror_matches_fleet"] = mirror_matches;

  const auto t = log.self_ns();
  const double e = static_cast<double>(horizon);
  const double w = static_cast<double>(last.committed_writes);
  set_probe_rows(r, t, e);
  set_probe_counts(r, counts, t);
  auto& m = r.metrics;
  const double fleet_total = t.at("fleet.advance_day") + t.at("fleet.finalize");
  m["trace.next_ns"] = t.at("trace.next") / e;
  m["fleet.advance_day_ms"] = t.at("fleet.advance_day") /
                              static_cast<double>(scenario.horizon_days) * 1e-6;
  m["fleet.finalize_ms"] = t.at("fleet.finalize") * 1e-6;
  m["fleet.self_ns"] = fleet_total / w - (t.at("trace.next") +
                                          t.at("recovery.journaled_submit") +
                                          t.at("recovery.snapshot")) /
                                             e;
  m["recovery.crashes"] = static_cast<double>(last.totals.crashes);
  m["recovery.replayed_writes"] =
      static_cast<double>(last.totals.replayed_writes);
  m["recovery.snapshot_fallbacks"] =
      static_cast<double>(last.totals.snapshot_fallbacks);
  std::uint64_t journal = 0;
  for (const twl::DeviceReport& d : last.devices) journal += d.journal_bytes;
  m["recovery.journal_bytes_per_write"] = static_cast<double>(journal) / w;
  const auto [e_ms, s_ms] = stack_setup_ms(specs);
  m["setup.endurance_ms"] = e_ms;
  m["setup.scheme_ms"] = s_ms;
  const double rows = m["trace.next_ns"] + m["wl.write_ns"] +
                      m["device.apply_write_ns"] + m["sim.self_ns"] +
                      m["recovery.journal_ns"] + m["recovery.snapshot_ns"] +
                      m["fleet.self_ns"];
  set_ledger(r, "fleet_chaos", untraced_ns, fleet_total / w, rows, log);
  if (!opt.spans_path.empty()) log.write_csv(opt.spans_path);
  return r;
}

}  // namespace

Result run_workload(const RunOptions& opt) {
  if (opt.workload == "paper_lifetime") return run_paper_lifetime(opt);
  if (opt.workload == "service_rt") return run_service_rt(opt);
  if (opt.workload == "tenant_chaos") return run_tenant_chaos(opt);
  if (opt.workload == "fleet_chaos") return run_fleet_chaos(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

}  // namespace perfbench
