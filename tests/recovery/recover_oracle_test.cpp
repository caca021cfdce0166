// Slow oracle for recover(): the straightforward two-pass replay — decode
// every record with scan_journal(), group them into demand-write groups,
// then re-execute the committed groups — checked against the one-pass
// in-place recover() on randomised journals and every kind of damage a
// crash or a corrupt medium leaves: every truncation prefix, single-bit
// flips, garbage tails and well-formed but malformed record sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/attacks.h"
#include "common/config.h"
#include "common/rng.h"
#include "pcm/device.h"
#include "recovery/journal.h"
#include "recovery/recovery.h"
#include "recovery/snapshot.h"
#include "sim/memory_controller.h"
#include "wl/factory.h"
#include "wl/wear_leveler.h"

namespace twl {
namespace {

/// The reference algorithm: first pass groups scan_journal()'s records,
/// second pass replays every committed group in order.
RecoveryOutcome reference_recover(
    WearLeveler& wl, const std::vector<std::uint8_t>& snapshot_blob,
    const std::vector<std::uint8_t>& journal_bytes) {
  restore_snapshot(wl, snapshot_blob);

  const JournalScan scan = scan_journal(journal_bytes);

  RecoveryOutcome outcome;
  outcome.torn_tail = scan.torn_tail;
  outcome.journal_bytes_replayed = scan.valid_bytes;

  struct PendingGroup {
    std::vector<LogicalPageAddr> las;  ///< 1 per write in the group.
    bool committed = false;
    std::uint64_t committed_swaps = 0;
    std::uint64_t orphan_swaps = 0;
  };
  std::vector<PendingGroup> groups;
  std::uint64_t open_intents = 0;
  for (const JournalRecord& rec : scan.records) {
    switch (rec.type) {
      case JournalRecordType::kWriteBegin:
        groups.push_back(PendingGroup{{rec.la}});
        open_intents = 0;
        break;
      case JournalRecordType::kBatchBegin:
        groups.push_back(PendingGroup{rec.batch_las});
        open_intents = 0;
        break;
      case JournalRecordType::kSwapIntent:
        if (!groups.empty()) ++open_intents;
        break;
      case JournalRecordType::kSwapCommit:
        if (!groups.empty() && open_intents > 0) {
          --open_intents;
          ++groups.back().committed_swaps;
        }
        break;
      case JournalRecordType::kWriteCommit:
      case JournalRecordType::kBatchCommit:
        if (!groups.empty()) {
          groups.back().committed = true;
          groups.back().orphan_swaps = open_intents;
        }
        break;
    }
  }
  if (!groups.empty() && !groups.back().committed) {
    groups.back().orphan_swaps = open_intents;
  }

  NullWriteSink sink;
  for (const PendingGroup& g : groups) {
    if (g.committed) {
      for (LogicalPageAddr la : g.las) {
        wl.write(la, sink);
        ++outcome.replayed_writes;
      }
      outcome.committed_swaps += g.committed_swaps;
    } else {
      if (!outcome.rolled_back_la && !g.las.empty()) {
        outcome.rolled_back_la = g.las.front();
      }
      outcome.rolled_back_writes += g.las.size();
      outcome.orphan_swap_intents += g.orphan_swaps;
    }
  }
  return outcome;
}

/// Small and swap-happy, so a journal of a few dozen writes already
/// carries SwapIntent/SwapCommit pairs for every scheme.
Config small_config() {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 100000;
  Config config = Config::scaled(scale);
  config.twl.tossup_interval = 4;
  config.twl.interpair_swap_interval = 8;
  config.sr.refresh_interval = 4;
  config.start_gap.gap_write_interval = 4;
  config.rbsg.gap_write_interval = 4;
  config.bwl.filter_bits = 1024;
  config.bwl.epoch_writes = 32;
  config.bwl.epoch_min = 32;
  config.bwl.epoch_max = 64;
  config.validate();
  return config;
}

/// A scheme, the snapshot of its fresh state, and a journal recorded by a
/// controller running a random mix of single and batched writes on it.
struct JournaledRun {
  JournaledRun(const std::string& scheme_spec, std::uint64_t seed)
      : spec(scheme_spec),
        config(small_config()),
        endurance(config.geometry.pages(), config.endurance, config.seed) {
    PcmDevice device(endurance, config.fault, config.seed);
    const auto wl = make_wear_leveler_spec(spec, endurance, config);
    pages = wl->logical_pages();
    snapshot = take_snapshot(*wl);
    MemoryController controller(device, *wl, config, /*enable_timing=*/false);
    MetadataJournal log;
    controller.attach_journal(&log);

    // The inconsistent attack for swap-heavy stretches, uniform addresses
    // in between; batches of 1..40 cross the kMaxJournalBatch chunking.
    const auto attack = make_attack("inconsistent", pages, seed, {});
    XorShift64Star rng(seed);
    std::uint64_t written = 0;
    while (written < 80) {
      const std::size_t n = rng.next_below(3) == 0 ? 1 + rng.next_below(40) : 1;
      std::vector<LogicalPageAddr> las;
      for (std::size_t i = 0; i < n; ++i) {
        las.push_back(rng.next_below(2) == 0
                          ? attack->next(0).addr
                          : LogicalPageAddr(static_cast<std::uint32_t>(
                                rng.next_below(pages))));
      }
      if (n == 1 && rng.next_below(2) == 0) {
        controller.submit(MemoryRequest{Op::kWrite, las[0]}, 0);
      } else {
        controller.submit_write_batch(las.data(), las.size(), 0);
      }
      written += n;
    }
    journal = log.bytes();
  }

  /// Recovers `bytes` both ways and asserts every outcome field and the
  /// restored scheme state agree.
  void expect_same_recovery(const std::vector<std::uint8_t>& bytes,
                            const std::string& what) const {
    const auto fast = make_wear_leveler_spec(spec, endurance, config);
    const auto slow = make_wear_leveler_spec(spec, endurance, config);
    const RecoveryOutcome got = recover(*fast, snapshot, bytes);
    const RecoveryOutcome want = reference_recover(*slow, snapshot, bytes);
    ASSERT_EQ(got.replayed_writes, want.replayed_writes) << what;
    ASSERT_EQ(got.rolled_back_la, want.rolled_back_la) << what;
    ASSERT_EQ(got.rolled_back_writes, want.rolled_back_writes) << what;
    ASSERT_EQ(got.committed_swaps, want.committed_swaps) << what;
    ASSERT_EQ(got.orphan_swap_intents, want.orphan_swap_intents) << what;
    ASSERT_EQ(got.torn_tail, want.torn_tail) << what;
    ASSERT_EQ(got.journal_bytes_replayed, want.journal_bytes_replayed)
        << what;
    ASSERT_EQ(take_snapshot(*fast), take_snapshot(*slow)) << what;
  }

  std::string spec;
  Config config;
  EnduranceMap endurance;
  std::uint64_t pages = 0;
  std::vector<std::uint8_t> snapshot;
  std::vector<std::uint8_t> journal;
};

class RecoverOracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RecoverOracleTest, EveryTruncationPrefix) {
  const JournaledRun run(GetParam(), 11);
  std::uint64_t swaps = 0;
  for (const JournalRecord& rec : scan_journal(run.journal).records) {
    swaps += rec.type == JournalRecordType::kSwapIntent ? 1 : 0;
  }
  if (GetParam() != "NOWL") {
    EXPECT_GT(swaps, 0u) << "no swap journaled";
  }
  for (std::size_t cut = 0; cut <= run.journal.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(
        run.journal.begin(),
        run.journal.begin() + static_cast<std::ptrdiff_t>(cut));
    run.expect_same_recovery(prefix, "cut " + std::to_string(cut));
  }
}

TEST_P(RecoverOracleTest, SingleBitFlips) {
  const JournaledRun run(GetParam(), 23);
  XorShift64Star rng(23);
  for (std::size_t pos = 0; pos < run.journal.size(); ++pos) {
    std::vector<std::uint8_t> damaged = run.journal;
    const unsigned bit = static_cast<unsigned>(rng.next_below(8));
    damaged[pos] ^= static_cast<std::uint8_t>(1U << bit);
    run.expect_same_recovery(damaged, "flip byte " + std::to_string(pos) +
                                          " bit " + std::to_string(bit));
  }
}

TEST_P(RecoverOracleTest, GarbageTails) {
  const JournaledRun run(GetParam(), 37);
  XorShift64Star rng(37);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t cut = rng.next_below(run.journal.size() + 1);
    std::vector<std::uint8_t> damaged(
        run.journal.begin(),
        run.journal.begin() + static_cast<std::ptrdiff_t>(cut));
    const std::uint64_t garbage = 1 + rng.next_below(24);
    for (std::uint64_t i = 0; i < garbage; ++i) {
      damaged.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    run.expect_same_recovery(damaged, "cut " + std::to_string(cut) +
                                          " + " + std::to_string(garbage) +
                                          " garbage bytes");
  }
}

// Well-formed records in an order the controller never writes: intents
// before any Begin, Begins without commits followed by more Begins,
// stray and repeated commits, swap commits without intents. Recovery
// must skip and count exactly as the reference does.
TEST_P(RecoverOracleTest, MalformedRecordSequences) {
  const JournaledRun run(GetParam(), 41);
  XorShift64Star rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    MetadataJournal soup;
    const std::uint64_t records = 1 + rng.next_below(30);
    for (std::uint64_t r = 0; r < records; ++r) {
      const auto la = [&] {
        return LogicalPageAddr(
            static_cast<std::uint32_t>(rng.next_below(run.pages)));
      };
      switch (rng.next_below(6)) {
        case 0:
          soup.append_write_begin(r, la());
          break;
        case 1:
          soup.append_swap_intent(PhysicalPageAddr(1), PhysicalPageAddr(2),
                                  SwapKind::kExchange);
          break;
        case 2:
          soup.append_swap_commit();
          break;
        case 3:
          soup.append_write_commit(r);
          break;
        case 4: {
          std::vector<LogicalPageAddr> las(1 +
                                           rng.next_below(kMaxJournalBatch));
          for (LogicalPageAddr& a : las) a = la();
          soup.append_batch_begin(r, las.data(), las.size());
          break;
        }
        default:
          soup.append_batch_commit(r, 1 + rng.next_below(kMaxJournalBatch));
          break;
      }
    }
    run.expect_same_recovery(soup.bytes(),
                             "malformed trial " + std::to_string(trial));
  }
}

std::string spec_test_name(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), ':', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Schemes, RecoverOracleTest,
                         ::testing::Values("NOWL", "StartGap", "SR", "RBSG",
                                           "BWL", "TWL", "guard:TWL_swp"),
                         spec_test_name);

}  // namespace
}  // namespace twl
