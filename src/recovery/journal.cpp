#include "recovery/journal.h"

#include <array>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/checksum.h"

namespace twl {

namespace {

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(read_u32(p)) |
         (static_cast<std::uint64_t>(read_u32(p + 4)) << 32);
}

/// Variable-length record marker for payload_length().
constexpr int kVariableLength = -2;

/// Expected payload length per record type; -1 for unknown types, -2 for
/// types whose length is validated against their own payload (BatchBegin).
int payload_length(std::uint8_t type) {
  switch (static_cast<JournalRecordType>(type)) {
    case JournalRecordType::kWriteBegin:
      return 12;  // seq u64 + la u32.
    case JournalRecordType::kSwapIntent:
      return 9;  // pa_a u32 + pa_b u32 + kind u8.
    case JournalRecordType::kSwapCommit:
      return 0;
    case JournalRecordType::kWriteCommit:
      return 8;  // seq u64.
    case JournalRecordType::kBatchBegin:
      return kVariableLength;  // seq u64 + count u8 + count * la u32.
    case JournalRecordType::kBatchCommit:
      return 9;  // seq u64 + count u8.
  }
  return -1;
}

/// Structural validation of a BatchBegin payload length: the internal
/// count byte must agree with the declared record length, or the tail is
/// garbage (a torn or corrupt append).
bool batch_begin_length_ok(std::uint8_t len, const std::uint8_t* payload) {
  if (len < 13 || (len - 9) % 4 != 0) return false;  // >= 1 address.
  return payload[8] == (len - 9) / 4;
}

/// Header + the largest payload (a full BatchBegin) + CRC.
constexpr std::size_t kMaxRecordBytes = 2 + 9 + 4 * kMaxJournalBatch + 4;

}  // namespace

/// Encodes one record — header, payload, CRC-32 — in a fixed-size stack
/// buffer, so an append allocates nothing beyond the log's own amortised
/// growth.
class MetadataJournal::RecordEncoder {
 public:
  explicit RecordEncoder(JournalRecordType type) {
    buf_[0] = static_cast<std::uint8_t>(type);
  }

  RecordEncoder& u8(std::uint8_t v) {
    buf_[size_++] = v;
    return *this;
  }
  RecordEncoder& u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      buf_[size_++] = static_cast<std::uint8_t>(v >> shift);
    }
    return *this;
  }
  RecordEncoder& u64(std::uint64_t v) {
    return u32(static_cast<std::uint32_t>(v))
        .u32(static_cast<std::uint32_t>(v >> 32));
  }

  /// Fills in the payload length and appends the CRC-32 of header +
  /// payload, completing the record in [data(), data() + size()).
  void seal() {
    const std::size_t len = size_ - 2;
    const int expected = payload_length(buf_[0]);
    assert(expected == kVariableLength ||
           len == static_cast<std::size_t>(expected));
    assert(len <= 0xFF);
    (void)expected;
    buf_[1] = static_cast<std::uint8_t>(len);
    u32(crc32(buf_.data(), size_));
  }

  [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  // Left uninitialized on purpose: only [0, size_) is ever read, and all
  // of it is written first. Zero-filling the buffer cost about 55 ns per
  // journaled write (three to four records) on a 4-vCPU Xeon VM.
  std::array<std::uint8_t, kMaxRecordBytes> buf_;
  std::size_t size_ = 2;  // Past the header.
};

void MetadataJournal::append(RecordEncoder& record) {
  record.seal();
  bytes_.insert(bytes_.end(), record.data(), record.data() + record.size());
  total_bytes_ += record.size();
  ++total_records_;
}

void MetadataJournal::append_write_begin(std::uint64_t seq,
                                         LogicalPageAddr la) {
  RecordEncoder rec(JournalRecordType::kWriteBegin);
  rec.u64(seq).u32(la.value());
  append(rec);
}

void MetadataJournal::append_swap_intent(PhysicalPageAddr a,
                                         PhysicalPageAddr b, SwapKind kind) {
  RecordEncoder rec(JournalRecordType::kSwapIntent);
  rec.u32(a.value()).u32(b.value()).u8(static_cast<std::uint8_t>(kind));
  append(rec);
}

void MetadataJournal::append_swap_commit() {
  RecordEncoder rec(JournalRecordType::kSwapCommit);
  append(rec);
}

void MetadataJournal::append_write_commit(std::uint64_t seq) {
  RecordEncoder rec(JournalRecordType::kWriteCommit);
  rec.u64(seq);
  append(rec);
}

void MetadataJournal::append_batch_begin(std::uint64_t seq,
                                         const LogicalPageAddr* las,
                                         std::size_t count) {
  // A hard check: the record is encoded in a buffer sized for
  // kMaxJournalBatch addresses.
  if (count < 1 || count > kMaxJournalBatch) {
    throw std::invalid_argument("BatchBegin needs 1.." +
                                std::to_string(kMaxJournalBatch) +
                                " addresses, got " + std::to_string(count));
  }
  RecordEncoder rec(JournalRecordType::kBatchBegin);
  rec.u64(seq).u8(static_cast<std::uint8_t>(count));
  for (std::size_t i = 0; i < count; ++i) rec.u32(las[i].value());
  append(rec);
}

void MetadataJournal::append_batch_commit(std::uint64_t seq,
                                          std::size_t count) {
  assert(count >= 1 && count <= kMaxJournalBatch);
  RecordEncoder rec(JournalRecordType::kBatchCommit);
  rec.u64(seq).u8(static_cast<std::uint8_t>(count));
  append(rec);
}

void MetadataJournal::truncate() {
  bytes_.clear();
  ++truncations_;
}

void MetadataJournal::restore(std::vector<std::uint8_t> bytes,
                              std::uint64_t total_bytes,
                              std::uint64_t total_records,
                              std::uint64_t truncations) {
  bytes_ = std::move(bytes);
  total_bytes_ = total_bytes;
  total_records_ = total_records;
  truncations_ = truncations;
}

std::uint64_t JournalRecordView::seq() const {
  switch (type) {
    case JournalRecordType::kSwapIntent:
    case JournalRecordType::kSwapCommit:
      return 0;
    default:
      return read_u64(payload);
  }
}

std::size_t JournalRecordView::address_count() const {
  switch (type) {
    case JournalRecordType::kWriteBegin:
      return 1;
    case JournalRecordType::kBatchBegin:
      return payload[8];
    default:
      return 0;
  }
}

LogicalPageAddr JournalRecordView::address(std::size_t i) const {
  assert(i < address_count());
  const std::size_t first = type == JournalRecordType::kWriteBegin ? 8 : 9;
  return LogicalPageAddr(read_u32(payload + first + 4 * i));
}

bool JournalReader::next(JournalRecordView& out) {
  // Header: type + payload length.
  if (size_ - pos_ < 2) return false;  // End, or torn inside a header.
  const std::uint8_t* rec = data_ + pos_;
  const std::uint8_t type = rec[0];
  const std::uint8_t len = rec[1];
  const int expected = payload_length(type);
  if (expected == -1 || (expected >= 0 && len != expected)) {
    return false;  // Garbage tail.
  }
  const std::size_t total = 2 + static_cast<std::size_t>(len) + 4;
  if (size_ - pos_ < total) return false;  // Torn inside payload/CRC.
  if (crc32(rec, 2 + len) != read_u32(rec + 2 + len)) return false;
  const std::uint8_t* payload = rec + 2;
  if (expected == kVariableLength && !batch_begin_length_ok(len, payload)) {
    return false;  // Structurally inconsistent (count byte vs length).
  }
  out.type = static_cast<JournalRecordType>(type);
  out.payload = payload;
  out.len = len;
  pos_ += total;
  return true;
}

JournalScan scan_journal(const std::vector<std::uint8_t>& bytes) {
  JournalScan scan;
  JournalReader reader(bytes);
  JournalRecordView view;
  while (reader.next(view)) {
    JournalRecord rec;
    rec.type = view.type;
    rec.seq = view.seq();
    switch (view.type) {
      case JournalRecordType::kWriteBegin:
        rec.la = view.address(0);
        break;
      case JournalRecordType::kSwapIntent:
        rec.pa_a = PhysicalPageAddr(read_u32(view.payload));
        rec.pa_b = PhysicalPageAddr(read_u32(view.payload + 4));
        rec.kind = static_cast<SwapKind>(view.payload[8]);
        break;
      case JournalRecordType::kBatchBegin:
        rec.batch_count = static_cast<std::uint8_t>(view.address_count());
        rec.batch_las.reserve(rec.batch_count);
        for (std::size_t i = 0; i < rec.batch_count; ++i) {
          rec.batch_las.push_back(view.address(i));
        }
        break;
      case JournalRecordType::kBatchCommit:
        rec.batch_count = view.payload[8];
        break;
      case JournalRecordType::kSwapCommit:
      case JournalRecordType::kWriteCommit:
        break;
    }
    scan.records.push_back(std::move(rec));
  }
  scan.valid_bytes = reader.valid_bytes();
  scan.torn_tail = reader.torn_tail();
  return scan;
}

}  // namespace twl
