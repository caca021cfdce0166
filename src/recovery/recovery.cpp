#include "recovery/recovery.h"

#include "recovery/journal.h"
#include "recovery/snapshot.h"
#include "wl/wear_leveler.h"

namespace twl {

RecoveryOutcome recover(WearLeveler& wl,
                        const std::vector<std::uint8_t>& snapshot_blob,
                        const std::vector<std::uint8_t>& journal_bytes) {
  restore_snapshot(wl, snapshot_blob);

  RecoveryOutcome outcome;
  NullWriteSink sink;

  // One pass over the records. The open group — a single write, or a
  // failure-atomic batch of them — is the last Begin seen; its addresses
  // stay in the journal bytes. Its fate is known when the next Begin (or
  // the end of the valid stream) arrives: a committed group re-executes
  // in order, an uncommitted one rolls back whole. Only the last group can
  // be uncommitted (the controller appends its commit before the next
  // Begin), but a malformed stream's earlier uncommitted groups are
  // skipped and counted too. Records before the first Begin cannot occur
  // (the journal is truncated at snapshot time, between writes); they
  // only touch state the first Begin resets.
  JournalRecordView group;
  bool have_group = false;
  bool committed = false;
  std::uint64_t group_swaps = 0;  ///< Commits matched to open intents.
  std::uint64_t open_intents = 0;
  const auto settle = [&](std::uint64_t orphans) {
    if (!have_group) return;
    if (committed) {
      for (std::size_t i = 0; i < group.address_count(); ++i) {
        wl.write(group.address(i), sink);
      }
      outcome.replayed_writes += group.address_count();
      outcome.committed_swaps += group_swaps;
    } else {
      if (!outcome.rolled_back_la) outcome.rolled_back_la = group.address(0);
      outcome.rolled_back_writes += group.address_count();
      outcome.orphan_swap_intents += orphans;
    }
  };

  JournalReader reader(journal_bytes);
  JournalRecordView rec;
  while (reader.next(rec)) {
    switch (rec.type) {
      case JournalRecordType::kWriteBegin:
      case JournalRecordType::kBatchBegin:
        // An uncommitted group followed by another Begin never had its
        // dangling intents attributed to it.
        settle(0);
        group = rec;
        have_group = true;
        committed = false;
        group_swaps = 0;
        open_intents = 0;
        break;
      case JournalRecordType::kSwapIntent:
        ++open_intents;
        break;
      case JournalRecordType::kSwapCommit:
        if (open_intents > 0) {
          --open_intents;
          ++group_swaps;
        }
        break;
      case JournalRecordType::kWriteCommit:
      case JournalRecordType::kBatchCommit:
        committed = true;
        break;
    }
  }
  // The in-flight group at the cut owns every intent still open.
  settle(open_intents);

  outcome.torn_tail = reader.torn_tail();
  outcome.journal_bytes_replayed = reader.valid_bytes();
  return outcome;
}

}  // namespace twl
