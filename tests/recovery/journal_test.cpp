#include "recovery/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/attacks.h"
#include "common/checksum.h"
#include "common/config.h"
#include "pcm/device.h"
#include "sim/memory_controller.h"
#include "wl/factory.h"

namespace twl {
namespace {

TEST(Journal, EmptyScanIsCleanAndEmpty) {
  const JournalScan scan = scan_journal({});
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(Journal, RoundTripsAllRecordTypes) {
  MetadataJournal journal;
  journal.append_write_begin(7, LogicalPageAddr(42));
  journal.append_swap_intent(PhysicalPageAddr(1), PhysicalPageAddr(2),
                             SwapKind::kExchange);
  journal.append_swap_commit();
  journal.append_swap_intent(PhysicalPageAddr(3), PhysicalPageAddr(4),
                             SwapKind::kMigrate);
  journal.append_swap_commit();
  journal.append_write_commit(7);

  const JournalScan scan = scan_journal(journal.bytes());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, journal.bytes().size());
  ASSERT_EQ(scan.records.size(), 6u);

  EXPECT_EQ(scan.records[0].type, JournalRecordType::kWriteBegin);
  EXPECT_EQ(scan.records[0].seq, 7u);
  EXPECT_EQ(scan.records[0].la.value(), 42u);
  EXPECT_EQ(scan.records[1].type, JournalRecordType::kSwapIntent);
  EXPECT_EQ(scan.records[1].pa_a.value(), 1u);
  EXPECT_EQ(scan.records[1].pa_b.value(), 2u);
  EXPECT_EQ(scan.records[1].kind, SwapKind::kExchange);
  EXPECT_EQ(scan.records[2].type, JournalRecordType::kSwapCommit);
  EXPECT_EQ(scan.records[3].kind, SwapKind::kMigrate);
  EXPECT_EQ(scan.records[5].type, JournalRecordType::kWriteCommit);
  EXPECT_EQ(scan.records[5].seq, 7u);
}

TEST(Journal, EveryTruncationPointScansCleanPrefix) {
  MetadataJournal journal;
  journal.append_write_begin(1, LogicalPageAddr(5));
  journal.append_swap_intent(PhysicalPageAddr(0), PhysicalPageAddr(9),
                             SwapKind::kExchange);
  journal.append_swap_commit();
  journal.append_write_commit(1);
  const std::vector<std::uint8_t>& bytes = journal.bytes();

  // Record boundaries are the only cut points with no torn tail.
  std::size_t clean_cuts = 0;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + cut);
    const JournalScan scan = scan_journal(prefix);
    EXPECT_LE(scan.valid_bytes, cut);
    EXPECT_EQ(scan.torn_tail, scan.valid_bytes != cut);
    if (!scan.torn_tail) ++clean_cuts;
    // Records never change retroactively: the scan of a prefix is a
    // prefix of the full scan.
    EXPECT_LE(scan.records.size(), 4u);
  }
  EXPECT_EQ(clean_cuts, 5u);  // Empty prefix + one per record.
}

TEST(Journal, DetectsCorruptedRecord) {
  MetadataJournal journal;
  journal.append_write_begin(1, LogicalPageAddr(5));
  journal.append_write_commit(1);
  std::vector<std::uint8_t> bytes = journal.bytes();
  bytes[3] ^= 0xFF;  // Flip a payload byte of the first record.
  const JournalScan scan = scan_journal(bytes);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(Journal, StopsAtGarbageTail) {
  MetadataJournal journal;
  journal.append_write_begin(1, LogicalPageAddr(5));
  journal.append_write_commit(1);
  std::vector<std::uint8_t> bytes = journal.bytes();
  const std::size_t clean = bytes.size();
  bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  const JournalScan scan = scan_journal(bytes);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, clean);
}

TEST(Journal, TruncateKeepsLifetimeTotals) {
  MetadataJournal journal;
  journal.append_write_begin(1, LogicalPageAddr(0));
  journal.append_write_commit(1);
  const std::uint64_t bytes_before = journal.total_bytes_appended();
  EXPECT_GT(bytes_before, 0u);
  journal.truncate();
  EXPECT_TRUE(journal.bytes().empty());
  EXPECT_EQ(journal.total_bytes_appended(), bytes_before);
  EXPECT_EQ(journal.total_records_appended(), 2u);
  EXPECT_EQ(journal.truncations(), 1u);

  journal.append_write_begin(2, LogicalPageAddr(1));
  EXPECT_GT(journal.total_bytes_appended(), bytes_before);
  const JournalScan scan = scan_journal(journal.bytes());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 2u);
}

TEST(Journal, BatchBeginRejectsCountsOutsideOneToMax) {
  MetadataJournal journal;
  std::vector<LogicalPageAddr> las(kMaxJournalBatch + 1, LogicalPageAddr(3));
  EXPECT_THROW(journal.append_batch_begin(1, las.data(), 0),
               std::invalid_argument);
  EXPECT_THROW(journal.append_batch_begin(1, las.data(), las.size()),
               std::invalid_argument);
  EXPECT_TRUE(journal.bytes().empty());
  EXPECT_EQ(journal.total_records_appended(), 0u);
  journal.append_batch_begin(1, las.data(), kMaxJournalBatch);
  EXPECT_EQ(scan_journal(journal.bytes()).records.size(), 1u);
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// Wire-format golden: the exact bytes of one record of every type (a
// BatchBegin with 1 and with kMaxJournalBatch addresses included). The
// format carries no version, so any encoder change must leave these
// bytes alone.
TEST(JournalGolden, EveryRecordTypeEncodesToPinnedBytes) {
  MetadataJournal journal;
  journal.append_write_begin(0x0102030405060708ULL,
                             LogicalPageAddr(0xA1B2C3D4));
  journal.append_swap_intent(PhysicalPageAddr(0x11223344),
                             PhysicalPageAddr(0x55667788),
                             SwapKind::kExchange);
  journal.append_swap_commit();
  journal.append_swap_intent(PhysicalPageAddr(7), PhysicalPageAddr(9),
                             SwapKind::kMigrate);
  journal.append_swap_commit();
  journal.append_write_commit(0x0102030405060708ULL);
  const LogicalPageAddr one[] = {LogicalPageAddr(5)};
  journal.append_batch_begin(9, one, 1);
  journal.append_batch_commit(9, 1);
  std::vector<LogicalPageAddr> full;
  for (std::uint32_t i = 0; i < kMaxJournalBatch; ++i) {
    full.emplace_back(0x01000000U * i + 3 * i + 1);
  }
  journal.append_batch_begin(10, full.data(), full.size());
  journal.append_batch_commit(10, full.size());

  const std::string expected =
      // WriteBegin
      "010c0807060504030201d4c3b2a170b24736"
      // SwapIntent (exchange)
      "02094433221188776655019a91855c"
      // SwapCommit
      "03003c41f46a"
      // SwapIntent (migrate)
      "02090700000009000000005f2c8fa6"
      // SwapCommit
      "03003c41f46a"
      // WriteCommit
      "0408080706050403020158585791"
      // BatchBegin, 1 address
      "050d090000000000000001050000005d1e85de"
      // BatchCommit
      "0609090000000000000001a8d683a4"
      // BatchBegin, 32 addresses
      "05890a00000000000000200100000004000001070000020a0000030d00000410"
      "0000051300000616000007190000081c0000091f00000a2200000b2500000c28"
      "00000d2b00000e2e00000f3100001034000011370000123a0000133d00001440"
      "0000154300001646000017490000184c0000194f00001a5200001b5500001c58"
      "00001d5b00001e5e00001fc6de11e7"
      // BatchCommit
      "06090a000000000000002033fa67d1";
  EXPECT_EQ(to_hex(journal.bytes()), expected);
  EXPECT_EQ(journal.total_bytes_appended(), journal.bytes().size());
  EXPECT_EQ(journal.total_records_appended(), 10u);
}

struct JournalDigest {
  std::size_t size = 0;
  std::uint32_t crc = 0;
};

/// Journal of a TWL controller under the §3.2 inconsistent attack, whose
/// tossup and inter-pair swaps put SwapIntent/SwapCommit pairs between
/// the write brackets. `batch` = 0 submits one write at a time; otherwise
/// the same addresses go through submit_write_batch() `batch` at a time.
JournalDigest attack_journal(std::size_t batch) {
  SimScale scale;
  scale.pages = 64;
  scale.endurance_mean = 100000;
  const Config config = Config::scaled(scale);
  const EnduranceMap endurance(config.geometry.pages(), config.endurance,
                               config.seed);
  PcmDevice device(endurance, config.fault, config.seed);
  const auto wl = make_wear_leveler_spec("TWL", endurance, config);
  MemoryController controller(device, *wl, config, /*enable_timing=*/false);
  MetadataJournal journal;
  controller.attach_journal(&journal);
  const auto attack =
      make_attack("inconsistent", wl->logical_pages(), config.seed, {});
  std::vector<LogicalPageAddr> las;
  for (int i = 0; i < 3000; ++i) las.push_back(attack->next(0).addr);
  if (batch == 0) {
    for (const LogicalPageAddr la : las) {
      MemoryRequest req;
      req.op = Op::kWrite;
      req.addr = la;
      controller.submit(req, 0);
    }
  } else {
    for (std::size_t i = 0; i < las.size(); i += batch) {
      controller.submit_write_batch(las.data() + i,
                                    std::min(batch, las.size() - i), 0);
    }
  }
  EXPECT_EQ(journal.total_bytes_appended(), journal.bytes().size());
  std::uint64_t swaps = 0;
  for (const JournalRecord& rec : scan_journal(journal.bytes()).records) {
    swaps += rec.type == JournalRecordType::kSwapIntent ? 1 : 0;
  }
  EXPECT_GT(swaps, 0u);
  return {journal.bytes().size(), crc32(journal.bytes().data(),
                                        journal.bytes().size())};
}

TEST(JournalGolden, ControllerAttackJournalSingleSubmit) {
  const JournalDigest d = attack_journal(0);
  EXPECT_EQ(d.size, 97218u);
  EXPECT_EQ(d.crc, 3882895649u);
}

TEST(JournalGolden, ControllerAttackJournalBatched) {
  const JournalDigest d = attack_journal(50);
  EXPECT_EQ(d.size, 16818u);
  EXPECT_EQ(d.crc, 634816267u);
}

}  // namespace
}  // namespace twl
