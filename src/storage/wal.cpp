#include "fastcast/storage/wal.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

#include "fastcast/common/assert.hpp"

namespace fastcast::storage {

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

namespace {

/// Slice-by-8 tables: kCrcTables[0] is the classic bytewise table, and
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so one
/// lookup per byte of an 8-byte word advances the CRC over the whole word.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

std::uint32_t read_u32_le(const std::byte* p) {
  return static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[0])) |
         (static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[1])) << 8) |
         (static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[2])) << 16) |
         (static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[3])) << 24);
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  // The word loads below read the input little-endian, like the codec.
  static_assert(std::endian::native == std::endian::little);
  std::uint32_t c = 0xffffffffu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kCrcTables[7][lo & 0xffu] ^ kCrcTables[6][(lo >> 8) & 0xffu] ^
        kCrcTables[5][(lo >> 16) & 0xffu] ^ kCrcTables[4][lo >> 24] ^
        kCrcTables[3][hi & 0xffu] ^ kCrcTables[2][(hi >> 8) & 0xffu] ^
        kCrcTables[1][(hi >> 16) & 0xffu] ^ kCrcTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kCrcTables[0][(c ^ std::to_integer<std::uint8_t>(*p)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void seal_frame(std::span<std::byte> frame) {
  FC_ASSERT_MSG(frame.size() >= kFrameHeader, "frame shorter than its header");
  const std::span<const std::byte> body = frame.subspan(kFrameHeader);
  const auto len = static_cast<std::uint32_t>(body.size());
  const std::uint32_t crc = crc32(body);
  std::memcpy(frame.data(), &len, 4);
  std::memcpy(frame.data() + 4, &crc, 4);
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

WalRecord WalRecord::promise(GroupId g, Ballot b) {
  WalRecord rec;
  rec.type = WalRecordType::kPromise;
  rec.group = g;
  rec.ballot = b;
  return rec;
}

WalRecord WalRecord::accept(GroupId g, InstanceId inst, Ballot b,
                            std::span<const std::byte> value) {
  WalRecord rec;
  rec.type = WalRecordType::kAccept;
  rec.group = g;
  rec.instance = inst;
  rec.ballot = b;
  rec.value.assign(value.begin(), value.end());
  return rec;
}

WalRecord WalRecord::rm_next_seq(NodeId dest, std::uint64_t next) {
  WalRecord rec;
  rec.type = WalRecordType::kRmNextSeq;
  rec.node = dest;
  rec.seq = next;
  return rec;
}

WalRecord WalRecord::rm_stage(NodeId dest, std::uint64_t seq,
                              std::span<const std::byte> frame) {
  WalRecord rec;
  rec.type = WalRecordType::kRmStage;
  rec.node = dest;
  rec.seq = seq;
  rec.value.assign(frame.begin(), frame.end());
  return rec;
}

WalRecord WalRecord::rm_settle(NodeId dest, std::uint64_t seq) {
  WalRecord rec;
  rec.type = WalRecordType::kRmSettle;
  rec.node = dest;
  rec.seq = seq;
  return rec;
}

WalRecord WalRecord::rm_progress(NodeId origin, std::uint64_t next_expected) {
  WalRecord rec;
  rec.type = WalRecordType::kRmProgress;
  rec.node = origin;
  rec.seq = next_expected;
  return rec;
}

WalRecord WalRecord::delivered(MsgId mid) {
  WalRecord rec;
  rec.type = WalRecordType::kDelivered;
  rec.seq = mid;
  return rec;
}

WalRecord WalRecord::body(const MulticastMessage& msg) {
  WalRecord rec;
  rec.type = WalRecordType::kBody;
  rec.seq = msg.id;
  rec.value = encode_msg_batch_of_one(msg);
  return rec;
}

bool decode_body(std::span<const std::byte> value, MulticastMessage& out) {
  std::vector<MulticastMessage> batch;
  if (!decode_msg_batch(value, batch) || batch.size() != 1) return false;
  out = std::move(batch.front());
  return true;
}

WalRecord WalRecord::settled(GroupId g, InstanceId frontier, std::uint64_t clock) {
  WalRecord rec;
  rec.type = WalRecordType::kSettled;
  rec.group = g;
  rec.instance = frontier;
  rec.seq = clock;
  return rec;
}

WalRecord WalRecord::prune_accepted(GroupId g, InstanceId floor) {
  WalRecord rec;
  rec.type = WalRecordType::kPruneAccepted;
  rec.group = g;
  rec.instance = floor;
  return rec;
}

WalRecord WalRecord::repair_install(GroupId g, InstanceId from, InstanceId through) {
  WalRecord rec;
  rec.type = WalRecordType::kRepairInstall;
  rec.group = g;
  rec.seq = from;
  rec.instance = through;
  return rec;
}

WalRecord WalRecord::drop_body(MsgId mid) {
  WalRecord rec;
  rec.type = WalRecordType::kDropBody;
  rec.seq = mid;
  return rec;
}

template <class Io>
void layout(Io& io, WalRecord& rec) {
  io.enum8(rec.type, WalRecordType::kPromise, WalRecordType::kLast);
  io.u32(rec.group);
  layout(io, rec.ballot);
  io.varint(rec.instance);
  io.u32(rec.node);
  io.varint(rec.seq);
  io.bytes(rec.value);
}

void encode_record(Writer& w, const WalRecord& rec) { encode_layout(w, rec); }

bool decode_record(Reader& r, WalRecord& rec) { return decode_layout(r, rec); }

// ---------------------------------------------------------------------------
// Wal
// ---------------------------------------------------------------------------

Wal::Wal(StorageBackend* backend, std::size_t segment_bytes)
    : backend_(backend), segment_bytes_(segment_bytes) {
  FC_ASSERT_MSG(backend_ != nullptr, "Wal needs a backend");
  FC_ASSERT_MSG(segment_bytes_ > 0, "segment size must be positive");
}

std::string Wal::segment_name(Lsn first) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "wal-%016llx.seg",
                static_cast<unsigned long long>(first));
  return buf;
}

bool Wal::parse_segment_name(const std::string& name, Lsn& first) {
  // "wal-" + 16 hex digits + ".seg"
  if (name.size() != 24 || !name.starts_with("wal-") || !name.ends_with(".seg")) {
    return false;
  }
  Lsn v = 0;
  for (std::size_t i = 4; i < 20; ++i) {
    const char c = name[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a') + 10;
    else return false;
    v = (v << 4) | digit;
  }
  first = v;
  return true;
}

WalReplayStats Wal::open(Lsn skip_through,
                         const std::function<void(Lsn, const WalRecord&)>& fn) {
  WalReplayStats stats;
  segments_.clear();
  last_lsn_ = 0;

  // Collect segments; backend listing is lexicographic, which for the
  // fixed-width hex names is also first-lsn order.
  std::vector<std::pair<Lsn, std::string>> found;
  for (const std::string& name : backend_->list()) {
    Lsn first = 0;
    if (parse_segment_name(name, first)) found.emplace_back(first, name);
  }

  bool stop = false;  // corruption found: drop every later segment
  std::vector<std::byte> content;
  for (const auto& [first, name] : found) {
    if (stop) {
      backend_->remove(name);
      ++stats.dropped_segments;
      continue;
    }
    // A gap means the segment holding the successor record is missing;
    // records after the gap are unreachable by contiguous replay.
    if (!segments_.empty() || last_lsn_ != 0) {
      if (first != last_lsn_ + 1) {
        backend_->remove(name);
        ++stats.dropped_segments;
        stop = true;
        continue;
      }
    }

    FC_ASSERT_MSG(backend_->read(name, content), "listed segment unreadable");
    Lsn lsn = first - 1;
    std::size_t pos = 0;
    std::size_t valid_end = 0;
    bool corrupt = false;
    while (pos < content.size()) {
      if (content.size() - pos < kFrameHeader) {
        stats.torn_tail = true;
        break;
      }
      const std::uint32_t len = read_u32_le(content.data() + pos);
      const std::uint32_t crc = read_u32_le(content.data() + pos + 4);
      if (content.size() - pos - kFrameHeader < len) {
        stats.torn_tail = true;
        break;
      }
      const std::span<const std::byte> body(content.data() + pos + kFrameHeader,
                                            len);
      if (crc32(body) != crc) {
        ++stats.checksum_rejections;
        corrupt = true;
        break;
      }
      WalRecord rec;
      Reader r(body);
      if (!decode_record(r, rec)) {
        ++stats.checksum_rejections;
        corrupt = true;
        break;
      }
      pos += kFrameHeader + len;
      valid_end = pos;
      ++lsn;
      ++stats.records;
      if (fn && lsn > skip_through) {
        fn(lsn, rec);
        ++stats.replayed;
      }
    }

    const bool has_records = lsn >= first;
    if (valid_end < content.size()) {
      // Torn or corrupt tail: rewrite the segment to its valid prefix so
      // the bad bytes can never be re-read (and appends go after them).
      backend_->write_atomic(
          name, std::span<const std::byte>(content.data(), valid_end));
      stop = true;
      if (!has_records) {
        // Nothing valid at all — the file is pure garbage; drop it.
        backend_->remove(name);
        ++stats.dropped_segments;
        continue;
      }
    }
    (void)corrupt;
    segments_.push_back(Segment{name, first, valid_end, false});
    last_lsn_ = lsn;
  }

  if (last_lsn_ < skip_through) {
    // The snapshot is ahead of the surviving log (no-fsync policy: the
    // snapshot was written atomically while the covering WAL bytes were
    // still unsynced, and a crash lost them). Everything left in the log
    // is folded into the snapshot already; drop it and resume numbering
    // after the watermark so lsns stay monotone.
    for (const Segment& seg : segments_) {
      backend_->remove(seg.name);
      ++stats.dropped_segments;
    }
    segments_.clear();
    last_lsn_ = skip_through;
  }
  durable_lsn_ = last_lsn_;
  opened_ = true;
  return stats;
}

void Wal::start_segment(Lsn first) {
  segments_.push_back(Segment{segment_name(first), first, 0, false});
}

Lsn Wal::append(const WalRecord& rec) {
  FC_ASSERT_MSG(opened_, "Wal::append before open");
  const Lsn lsn = last_lsn_ + 1;
  if (segments_.empty() || segments_.back().bytes >= segment_bytes_) {
    start_segment(lsn);
  }
  encode_frame(frame_, [&rec](Writer& w) { encode_record(w, rec); });

  Segment& seg = segments_.back();
  backend_->append(seg.name, frame_);
  seg.bytes += frame_.size();
  seg.dirty = true;
  last_lsn_ = lsn;
  return lsn;
}

void Wal::commit_all(bool fsync) {
  if (fsync) {
    for (Segment& seg : segments_) {
      if (!seg.dirty) continue;
      backend_->sync(seg.name);
      seg.dirty = false;
    }
  }
  durable_lsn_ = last_lsn_;
}

std::size_t Wal::truncate_through(Lsn lsn) {
  std::size_t removed = 0;
  // A segment is removable once the *next* segment starts at or below
  // lsn + 1, i.e. every record in it is covered by the snapshot.
  while (segments_.size() > 1 && segments_[1].first <= lsn + 1) {
    backend_->remove(segments_.front().name);
    segments_.erase(segments_.begin());
    ++removed;
  }
  return removed;
}

}  // namespace fastcast::storage
