// Storage subsystem tests: WAL wire format (golden bytes), CRC behavior,
// torn-tail and bit-flip recovery, snapshot+replay equivalence, fsync
// policies and the durability gate, and the file-backed backend.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "fastcast/storage/storage.hpp"

namespace fastcast::storage {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<std::uint8_t> raw) {
  std::vector<std::byte> out;
  out.reserve(raw.size());
  for (const std::uint8_t b : raw) out.push_back(std::byte{b});
  return out;
}

std::string segment_1() { return "wal-0000000000000001.seg"; }

/// A kBody record around arbitrary bytes: the codec and the fold never look
/// inside the value (WalRecord::body would encode a real message).
WalRecord body_record(MsgId mid, std::vector<std::byte> value) {
  WalRecord rec;
  rec.type = WalRecordType::kBody;
  rec.seq = mid;
  rec.value = std::move(value);
  return rec;
}

/// A scratch directory under the test's working directory, removed on exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "./fc_storage_XXXXXX";
    char* got = ::mkdtemp(tmpl);
    EXPECT_NE(got, nullptr);
    path_ = got;
  }
  ~TempDir() {
    std::error_code ec;  // best effort: a leftover dir fails no test
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// CRC and wire format
// ---------------------------------------------------------------------------

TEST(Crc32, MatchesKnownCheckValue) {
  // The standard CRC-32 (IEEE, reflected 0xedb88320) check vector.
  const char* check = "123456789";
  const std::uint32_t got = crc32(std::as_bytes(std::span(check, 9)));
  EXPECT_EQ(got, 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

/// The plain bit-at-a-time CRC-32, kept as the reference the sliced
/// implementation must match bit for bit.
std::uint32_t crc32_bytewise(std::span<const std::byte> data) {
  std::uint32_t c = 0xffffffffu;
  for (const std::byte b : data) {
    c ^= std::to_integer<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, SlicedMatchesBytewiseReference) {
  // Every length 0-300 at each of 8 start offsets covers every alignment of
  // the 8-byte loop and every tail length it leaves.
  constexpr std::size_t kBig = 64 * 1024;
  Rng rng(2026);
  std::vector<std::byte> buf(kBig + 8);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::byte> s(buf.data() + offset, len);
      ASSERT_EQ(crc32(s), crc32_bytewise(s))
          << "offset " << offset << ", length " << len;
    }
  }
  const std::span<const std::byte> big(buf.data(), kBig);
  EXPECT_EQ(crc32(big), crc32_bytewise(big));
}

TEST(WalWireFormat, GoldenPromiseBody) {
  // Pinned bytes: changing the record layout must be a deliberate,
  // version-bumped decision, not an accident.
  const WalRecord rec = WalRecord::promise(1, Ballot{7, 2});
  Writer w;
  encode_record(w, rec);
  const auto golden = bytes_of({
      0x01,                    // type = kPromise
      0x01, 0x00, 0x00, 0x00,  // group = 1
      0x07, 0x00, 0x00, 0x00,  // ballot.round = 7
      0x02, 0x00, 0x00, 0x00,  // ballot.node = 2
      0x00,                    // instance varint = 0
      0xFF, 0xFF, 0xFF, 0xFF,  // node = kInvalidNode
      0x00,                    // seq varint = 0
      0x00,                    // value length varint = 0
  });
  EXPECT_EQ(w.data(), golden);
}

TEST(WalWireFormat, GoldenAcceptBody) {
  const auto value = bytes_of({0xAA, 0xBB});
  const WalRecord rec = WalRecord::accept(2, 5, Ballot{3, 1}, value);
  Writer w;
  encode_record(w, rec);
  const auto golden = bytes_of({
      0x02,                    // type = kAccept
      0x02, 0x00, 0x00, 0x00,  // group = 2
      0x03, 0x00, 0x00, 0x00,  // ballot.round = 3
      0x01, 0x00, 0x00, 0x00,  // ballot.node = 1
      0x05,                    // instance varint = 5
      0xFF, 0xFF, 0xFF, 0xFF,  // node = kInvalidNode
      0x00,                    // seq varint = 0
      0x02, 0xAA, 0xBB,        // value = [AA BB]
  });
  EXPECT_EQ(w.data(), golden);
}

TEST(WalWireFormat, GoldenFrameInSegment) {
  // The full on-disk frame is [u32 body len][u32 crc32(body)][body], and
  // the first segment is named wal-0000000000000001.seg.
  MemBackend backend;
  Wal wal(&backend, 1 << 20);
  wal.open(0, [](Lsn, const WalRecord&) {});
  wal.append(WalRecord::promise(1, Ballot{7, 2}));
  wal.commit_all(true);

  Writer w;
  encode_record(w, WalRecord::promise(1, Ballot{7, 2}));
  const std::vector<std::byte>& body = w.data();
  Writer frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.u32(crc32(body));
  for (const std::byte b : body) frame.u8(std::to_integer<std::uint8_t>(b));

  std::vector<std::byte> disk;
  ASSERT_TRUE(backend.read(segment_1(), disk));
  EXPECT_EQ(disk, frame.data());
}

/// One record of every type, in type order.
std::vector<WalRecord> one_record_per_type() {
  const auto payload = bytes_of({0x01, 0x02, 0x03});
  return {
      WalRecord::promise(1, Ballot{4, 0}),
      WalRecord::accept(1, 9, Ballot{4, 0}, payload),
      WalRecord::rm_next_seq(3, 17),
      WalRecord::rm_stage(3, 16, payload),
      WalRecord::rm_settle(3, 16),
      WalRecord::rm_progress(5, 8),
      WalRecord::delivered(make_msg_id(7, 42)),
      body_record(make_msg_id(7, 43), payload),
      WalRecord::settled(2, 300, 77),
      WalRecord::prune_accepted(2, 128),
      WalRecord::repair_install(2, 64, 200),
      WalRecord::drop_body(make_msg_id(7, 43)),
  };
}

std::string hex(const std::vector<std::byte>& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (const std::byte x : b) {
    s += digits[std::to_integer<int>(x) >> 4];
    s += digits[std::to_integer<int>(x) & 0xf];
  }
  return s;
}

// Captured from the tree before the codec moved to one layout function per
// type, like the snapshot golden below.
TEST(WalWireFormat, GoldenBodyOfEveryType) {
  const std::vector<std::string> golden = {
      "0101000000040000000000000000ffffffff0000",  // kPromise
      "0201000000040000000000000009ffffffff0003010203",  // kAccept
      "03ffffffff00000000ffffffff00030000001100",  // kRmNextSeq
      "04ffffffff00000000ffffffff00030000001003010203",  // kRmStage
      "05ffffffff00000000ffffffff00030000001000",  // kRmSettle
      "06ffffffff00000000ffffffff00050000000800",  // kRmProgress
      "07ffffffff00000000ffffffff00ffffffffaa8080807000",  // kDelivered
      "08ffffffff00000000ffffffff00ffffffffab8080807003010203",  // kBody
      "090200000000000000ffffffffac02ffffffff4d00",  // kSettled
      "0a0200000000000000ffffffff8001ffffffff0000",  // kPruneAccepted
      "0b0200000000000000ffffffffc801ffffffff4000",  // kRepairInstall
      "0cffffffff00000000ffffffff00ffffffffab8080807000",  // kDropBody
  };
  const std::vector<WalRecord> records = one_record_per_type();
  ASSERT_EQ(records.size(), golden.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    Writer w;
    encode_record(w, records[i]);
    EXPECT_EQ(hex(w.data()), golden[i]) << "type " << i + 1;
  }
}

TEST(WalWireFormat, DecodeRoundTripsEveryType) {
  const std::vector<WalRecord> records = one_record_per_type();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(WalRecordType::kLast));
  for (std::size_t i = 0; i < records.size(); ++i) {
    const WalRecord& rec = records[i];
    EXPECT_EQ(static_cast<std::size_t>(rec.type), i + 1);
    Writer w;
    encode_record(w, rec);
    Reader r(w.data());
    WalRecord out;
    ASSERT_TRUE(decode_record(r, out));
    EXPECT_EQ(out, rec);
  }
}

TEST(WalWireFormat, DecodeRejectsEveryStrictPrefix) {
  for (const WalRecord& rec : one_record_per_type()) {
    Writer w;
    encode_record(w, rec);
    for (std::size_t cut = 0; cut < w.size(); ++cut) {
      Reader r(std::span(w.data().data(), cut));
      WalRecord out;
      EXPECT_FALSE(decode_record(r, out))
          << "type " << static_cast<int>(rec.type) << " cut at " << cut;
    }
  }
}

TEST(WalWireFormat, DecodeRejectsBadTypeAndTrailingBytes) {
  Writer w;
  encode_record(w, WalRecord::promise(1, Ballot{1, 1}));
  for (const std::uint8_t type :
       {std::uint8_t{0},
        static_cast<std::uint8_t>(static_cast<int>(WalRecordType::kLast) + 1)}) {
    auto bad = w.data();
    bad[0] = std::byte{type};  // type out of range (valid: 1..kLast)
    Reader r(bad);
    WalRecord out;
    EXPECT_FALSE(decode_record(r, out)) << "type " << int{type};
  }
  {
    auto bad = w.data();
    bad.push_back(std::byte{0x00});  // trailing garbage
    Reader r(bad);
    WalRecord out;
    EXPECT_FALSE(decode_record(r, out));
  }
}

TEST(WalWireFormat, BodyRecordHoldsExactlyOneMessage) {
  MulticastMessage m;
  m.id = make_msg_id(7, 43);
  m.sender = 7;
  m.dst = {0, 2};
  m.payload = "body";
  const WalRecord rec = WalRecord::body(m);
  EXPECT_EQ(rec.type, WalRecordType::kBody);
  EXPECT_EQ(rec.seq, m.id);
  EXPECT_EQ(rec.value, encode_msg_batch({m}));  // a one-element batch

  MulticastMessage out;
  ASSERT_TRUE(decode_body(rec.value, out));
  EXPECT_EQ(out, m);
  EXPECT_FALSE(decode_body({}, out));
  EXPECT_FALSE(decode_body(encode_msg_batch({}), out));
  EXPECT_FALSE(decode_body(encode_msg_batch({m, m}), out));
}

// ---------------------------------------------------------------------------
// WAL append / replay / corruption
// ---------------------------------------------------------------------------

std::vector<WalRecord> replay_all(StorageBackend* backend,
                                  WalReplayStats* stats = nullptr) {
  Wal wal(backend, 1 << 20);
  std::vector<WalRecord> seen;
  const WalReplayStats s =
      wal.open(0, [&seen](Lsn, const WalRecord& rec) { seen.push_back(rec); });
  if (stats != nullptr) *stats = s;
  return seen;
}

TEST(Wal, AppendReplayRoundTrip) {
  MemBackend backend;
  std::vector<WalRecord> written;
  {
    Wal wal(&backend, 1 << 20);
    wal.open(0, [](Lsn, const WalRecord&) {});
    for (std::uint32_t i = 0; i < 50; ++i) {
      WalRecord rec = WalRecord::rm_next_seq(i % 4, i);
      EXPECT_EQ(wal.append(rec), static_cast<Lsn>(i + 1));
      written.push_back(std::move(rec));
    }
    wal.commit_all(true);
  }
  WalReplayStats stats;
  EXPECT_EQ(replay_all(&backend, &stats), written);
  EXPECT_EQ(stats.replayed, 50u);
  EXPECT_EQ(stats.checksum_rejections, 0u);
  EXPECT_FALSE(stats.torn_tail);
}

TEST(Wal, RollsSegmentsAndReplaysAcrossThem) {
  MemBackend backend;
  Wal wal(&backend, 64);  // tiny segments: force several rolls
  wal.open(0, [](Lsn, const WalRecord&) {});
  for (std::uint32_t i = 0; i < 20; ++i) {
    wal.append(WalRecord::rm_next_seq(1, i));
  }
  wal.commit_all(true);
  EXPECT_GT(wal.segment_count(), 1u);
  EXPECT_EQ(replay_all(&backend).size(), 20u);
}

TEST(Wal, TornTailIsRepairedAndAppendContinues) {
  MemBackend backend;
  {
    Wal wal(&backend, 1 << 20);
    wal.open(0, [](Lsn, const WalRecord&) {});
    wal.append(WalRecord::promise(1, Ballot{1, 0}));
    wal.append(WalRecord::promise(1, Ballot{2, 0}));
    wal.commit_all(true);
  }
  // A crash mid-append leaves a partial frame at the end of the segment.
  backend.append(segment_1(), bytes_of({0x10, 0x00, 0x00}));
  backend.sync(segment_1());

  WalReplayStats stats;
  {
    Wal wal(&backend, 1 << 20);
    std::uint64_t replayed = 0;
    stats = wal.open(0, [&replayed](Lsn, const WalRecord&) { ++replayed; });
    EXPECT_EQ(replayed, 2u);
    EXPECT_TRUE(stats.torn_tail);
    // The repaired log accepts new appends right after the valid prefix.
    EXPECT_EQ(wal.append(WalRecord::promise(1, Ballot{3, 0})), 3u);
    wal.commit_all(true);
  }
  EXPECT_EQ(replay_all(&backend).size(), 3u);
}

TEST(Wal, BitFlipStopsReplayAtLastValidRecord) {
  MemBackend backend;
  {
    Wal wal(&backend, 1 << 20);
    wal.open(0, [](Lsn, const WalRecord&) {});
    for (std::uint32_t r = 1; r <= 5; ++r) {
      wal.append(WalRecord::promise(1, Ballot{r, 0}));
    }
    wal.commit_all(true);
  }
  // Flip one bit inside the fourth record's body.
  std::vector<std::byte> raw;
  ASSERT_TRUE(backend.read(segment_1(), raw));
  const std::size_t frame = 8 + 20;  // header + promise body
  const std::size_t target = 3 * frame + 8 + 5;
  ASSERT_LT(target, raw.size());
  raw[target] ^= std::byte{0x01};
  backend.write_atomic(segment_1(), raw);

  WalReplayStats stats;
  std::vector<WalRecord> seen = replay_all(&backend, &stats);
  // Replay stops at the corruption: records 1..3 survive, 4..5 are gone.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.back().ballot.round, 3u);
  EXPECT_EQ(stats.checksum_rejections, 1u);
}

TEST(Wal, CorruptionNeverRegressesAPromiseBelowTheValidPrefix) {
  // The acceptor invariant behind the checksum: a recovered node's promise
  // floor comes from the valid prefix only — corrupt bytes may cost the
  // *tail*, never resurrect an older ballot as "newer".
  MemBackend backend;
  {
    Wal wal(&backend, 1 << 20);
    wal.open(0, [](Lsn, const WalRecord&) {});
    wal.append(WalRecord::promise(1, Ballot{5, 0}));
    wal.append(WalRecord::promise(1, Ballot{9, 0}));
    wal.commit_all(true);
  }
  std::vector<std::byte> raw;
  ASSERT_TRUE(backend.read(segment_1(), raw));
  raw[raw.size() - 1] ^= std::byte{0xFF};  // corrupt the *last* record
  backend.write_atomic(segment_1(), raw);

  DurableState state;
  Wal wal(&backend, 1 << 20);
  wal.open(0, [&state](Lsn, const WalRecord& rec) { state.apply(rec); });
  // Ballot 9 is lost to the bit flip (it was never externalized if the
  // system gated on durability), but ballot 5 must still be there.
  EXPECT_EQ(state.groups.at(1).promised, (Ballot{5, 0}));
}

TEST(Wal, TruncateThroughDropsOnlyWholeColdSegments) {
  MemBackend backend;
  Wal wal(&backend, 64);
  wal.open(0, [](Lsn, const WalRecord&) {});
  for (std::uint32_t i = 0; i < 20; ++i) {
    wal.append(WalRecord::rm_next_seq(1, i));
  }
  wal.commit_all(true);
  const std::size_t before = wal.segment_count();
  ASSERT_GT(before, 2u);
  const std::size_t removed = wal.truncate_through(wal.last_lsn());
  EXPECT_EQ(removed, before - 1);  // the active segment always survives
  EXPECT_EQ(wal.segment_count(), 1u);
  // Untouched tail still replays.
  EXPECT_FALSE(replay_all(&backend).empty());
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

DurableState sample_state() {
  DurableState s;
  s.apply(WalRecord::promise(1, Ballot{3, 2}));
  s.apply(WalRecord::accept(1, 7, Ballot{3, 2}, bytes_of({0x01, 0x02})));
  s.apply(WalRecord::rm_next_seq(4, 12));
  s.apply(WalRecord::rm_stage(4, 11, bytes_of({0x0A})));
  s.apply(WalRecord::rm_progress(9, 6));
  s.apply(body_record(make_msg_id(2, 1), bytes_of({0x0B})));
  s.apply(WalRecord::delivered(make_msg_id(2, 2)));
  return s;
}

/// A state with every snapshot section non-empty.
DurableState full_state() {
  DurableState s = sample_state();
  s.apply(WalRecord::accept(1, 300, Ballot{3, 2}, bytes_of({0x03})));
  s.apply(WalRecord::settled(1, 5, 900));
  s.apply(WalRecord::prune_accepted(1, 2));
  s.apply(WalRecord::promise(2, Ballot{1, 0}));
  s.apply(WalRecord::rm_next_seq(5, 200));
  s.apply(WalRecord::rm_stage(5, 199, bytes_of({0x0C, 0x0D})));
  s.apply(body_record(make_msg_id(3, 1), bytes_of({})));
  return s;
}

TEST(Snapshot, GoldenBodyWithEverySectionNonEmpty) {
  const DurableState state = full_state();
  EXPECT_FALSE(state.groups.empty());
  EXPECT_FALSE(state.groups.at(1).accepted.empty());
  EXPECT_FALSE(state.rm_next_seq.empty());
  EXPECT_FALSE(state.rm_staged.empty());
  EXPECT_FALSE(state.rm_next_expected.empty());
  EXPECT_FALSE(state.delivered.empty());
  EXPECT_FALSE(state.bodies.empty());
  Writer w;
  encode_state(w, state);
  EXPECT_EQ(hex(w.data()),
            "02020100000003000000020000000584070202070300000002000000020102ac0203"
            "0000000200000001030200000001000000000000000000000002040000000c050000"
            "00c80102040000000b010a05000000c701020c0d0109000000060182808080200281"
            "80808020010b818080803000");
  Reader r(w.data());
  DurableState decoded;
  ASSERT_TRUE(decode_state(r, decoded));
  EXPECT_EQ(decoded, state);
}

TEST(Snapshot, DecodeRejectsStrictPrefixesAndTrailingBytes) {
  Writer w;
  encode_state(w, full_state());
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    Reader r(std::span(w.data().data(), cut));
    DurableState out;
    EXPECT_FALSE(decode_state(r, out)) << "cut at " << cut;
  }
  std::vector<std::byte> longer = w.data();
  longer.push_back(std::byte{0});
  Reader r(longer);
  DurableState out;
  EXPECT_FALSE(decode_state(r, out));
}

TEST(Snapshot, DecodeRejectsARepeatedKey) {
  // The encoder never writes a key twice, so a repeated one is corruption.
  for (const MsgId second : {MsgId{6}, MsgId{5}}) {
    Writer w;
    w.u8(2);  // snapshot version
    for (int empty_section = 0; empty_section < 4; ++empty_section) w.varint(0);
    w.varint(2);  // delivered: 5, then `second`
    w.varint(5);
    w.varint(second);
    w.varint(0);  // bodies
    Reader r(w.data());
    DurableState out;
    EXPECT_EQ(decode_state(r, out), second != 5) << "second id " << second;
  }
}

TEST(Snapshot, WriteLoadRoundTrip) {
  MemBackend backend;
  SnapshotStore store(&backend);
  const DurableState state = sample_state();
  store.write(42, state);
  DurableState loaded;
  EXPECT_EQ(store.load_latest(loaded), 42u);
  EXPECT_EQ(loaded, state);
}

TEST(Snapshot, KeepsNewestTwoAndFallsBackOnCorruption) {
  MemBackend backend;
  SnapshotStore store(&backend);
  DurableState a = sample_state();
  store.write(10, a);
  a.apply(WalRecord::delivered(make_msg_id(2, 3)));
  store.write(20, a);
  a.apply(WalRecord::delivered(make_msg_id(2, 4)));
  store.write(30, a);
  EXPECT_EQ(store.count(), 2u);  // lsn 10 garbage-collected

  // Corrupt the newest snapshot: load falls back to the previous one.
  std::vector<std::byte> raw;
  ASSERT_TRUE(backend.read("snap-000000000000001e.snap", raw));
  raw[raw.size() / 2] ^= std::byte{0x40};
  backend.write_atomic("snap-000000000000001e.snap", raw);
  DurableState loaded;
  std::uint64_t rejected = 0;
  EXPECT_EQ(store.load_latest(loaded, &rejected), 20u);
  EXPECT_EQ(rejected, 1u);
}

TEST(Snapshot, ApplySemantics) {
  DurableState s;
  // Promise/accept are monotone in ballot order.
  s.apply(WalRecord::promise(1, Ballot{5, 1}));
  s.apply(WalRecord::promise(1, Ballot{3, 0}));  // stale: ignored
  EXPECT_EQ(s.groups.at(1).promised, (Ballot{5, 1}));
  s.apply(WalRecord::accept(1, 2, Ballot{6, 0}, bytes_of({0x01})));
  EXPECT_EQ(s.groups.at(1).promised, (Ballot{6, 0}));  // accept implies promise
  s.apply(WalRecord::accept(1, 2, Ballot{5, 0}, bytes_of({0x02})));  // stale
  EXPECT_EQ(s.groups.at(1).accepted.at(2).value, bytes_of({0x01}));

  // rmcast floors are monotone; stage/settle pair up.
  s.apply(WalRecord::rm_next_seq(3, 10));
  s.apply(WalRecord::rm_next_seq(3, 8));
  EXPECT_EQ(s.rm_next_seq.at(3), 10u);
  s.apply(WalRecord::rm_stage(3, 9, bytes_of({0x0C})));
  s.apply(WalRecord::rm_settle(3, 9));
  EXPECT_TRUE(s.rm_staged.empty());

  // A delivered mid erases (and suppresses) its pending body.
  const MsgId mid = make_msg_id(1, 1);
  s.apply(body_record(mid, bytes_of({0x0D})));
  s.apply(WalRecord::delivered(mid));
  EXPECT_TRUE(s.bodies.empty());
  s.apply(body_record(mid, bytes_of({0x0D})));  // replay after delivery
  EXPECT_TRUE(s.bodies.empty());
  EXPECT_TRUE(s.delivered.contains(mid));
}

TEST(Snapshot, DecidedAcceptReplacesAnEarlierVote) {
  // A round-0 accept is only logged for a decided value (the acceptor's
  // alignment on the decide path), so it replaces a vote at any ballot;
  // later real accepts carry the same value and supersede it as usual.
  DurableState s;
  s.apply(WalRecord::accept(1, 4, Ballot{1, 0}, bytes_of({0x01})));
  s.apply(WalRecord::accept(1, 4, Ballot{}, bytes_of({0x02})));
  EXPECT_EQ(s.groups.at(1).accepted.at(4).value, bytes_of({0x02}));
  EXPECT_EQ(s.groups.at(1).accepted.at(4).ballot, Ballot{});
  EXPECT_EQ(s.groups.at(1).promised, (Ballot{1, 0}));
  s.apply(WalRecord::accept(1, 4, Ballot{3, 2}, bytes_of({0x02})));
  EXPECT_EQ(s.groups.at(1).accepted.at(4).ballot, (Ballot{3, 2}));
}

// ---------------------------------------------------------------------------
// MemBackend: the crash model at byte level
// ---------------------------------------------------------------------------

TEST(MemBackend, CrashKeepsSyncedBytesPlusADrawnPrefixOfTheRest) {
  const auto synced = bytes_of({0x01, 0x02, 0x03});
  const auto unsynced = bytes_of({0x04, 0x05, 0x06, 0x07, 0x08});
  std::vector<std::byte> all = synced;
  all.insert(all.end(), unsynced.begin(), unsynced.end());
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    MemBackend be;
    be.append("f", synced);
    be.sync("f");
    be.append("f", unsynced);
    std::vector<std::byte> got;
    ASSERT_TRUE(be.read("f", got));
    EXPECT_EQ(got, all) << "a live reader sees the unsynced bytes too";

    // The kept prefix is exactly one uniform(pending + 1) draw.
    Rng torn(seed);
    Rng same(seed);
    const auto keep = static_cast<std::size_t>(same.uniform(unsynced.size() + 1));
    be.drop_unsynced(&torn);
    ASSERT_TRUE(be.read("f", got));
    std::vector<std::byte> want = synced;
    want.insert(want.end(), unsynced.begin(),
                unsynced.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(torn.next(), same.next()) << "one draw per file with pending bytes";

    // What survived the crash is durable: another crash loses none of it.
    be.drop_unsynced(nullptr);
    ASSERT_TRUE(be.read("f", got));
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(MemBackend, CrashWithoutTornTailKeepsOnlySyncedBytes) {
  MemBackend be;
  be.append("f", bytes_of({0x01, 0x02}));
  be.sync("f");
  be.append("f", bytes_of({0x03}));
  be.append("g", bytes_of({0x04}));  // never synced at all
  be.drop_unsynced(nullptr);
  std::vector<std::byte> got;
  ASSERT_TRUE(be.read("f", got));
  EXPECT_EQ(got, bytes_of({0x01, 0x02}));
  ASSERT_TRUE(be.read("g", got));
  EXPECT_TRUE(got.empty());
}

TEST(MemBackend, WriteAtomicLeavesNothingPending) {
  MemBackend be;
  be.append("f", bytes_of({0x01, 0x02}));  // unsynced, then replaced
  be.write_atomic("f", bytes_of({0x09, 0x08, 0x07}));
  Rng torn(7);
  Rng fresh(7);
  be.drop_unsynced(&torn);
  std::vector<std::byte> got;
  ASSERT_TRUE(be.read("f", got));
  EXPECT_EQ(got, bytes_of({0x09, 0x08, 0x07}));
  EXPECT_EQ(torn.next(), fresh.next()) << "no pending bytes, so no draw";
}

// ---------------------------------------------------------------------------
// NodeStorage: gate, policies, snapshot+replay equivalence, crash model
// ---------------------------------------------------------------------------

NodeStorage::Config config_with(FsyncPolicy::Mode mode,
                                std::uint64_t snapshot_every = 1u << 30) {
  NodeStorage::Config cfg;
  cfg.fsync.mode = mode;
  cfg.snapshot_every = snapshot_every;
  return cfg;
}

TEST(NodeStorage, ColdStartIsEmptyAndAppendsFromOne) {
  NodeStorage st(std::make_unique<MemBackend>(),
                 config_with(FsyncPolicy::Mode::kAlways));
  EXPECT_TRUE(st.state().empty());
  EXPECT_EQ(st.last_lsn(), 0u);
  EXPECT_EQ(st.recovery_info().recoveries, 1u);
  EXPECT_EQ(st.log(WalRecord::promise(1, Ballot{1, 0})), 1u);
}

TEST(NodeStorage, AlwaysPolicyReleasesGateOnCommit) {
  NodeStorage st(std::make_unique<MemBackend>(),
                 config_with(FsyncPolicy::Mode::kAlways));
  bool ran = false;
  const Lsn lsn = st.log(WalRecord::promise(1, Ballot{1, 0}));
  st.when_durable(lsn, [&ran] { ran = true; });
  EXPECT_FALSE(ran);
  st.commit();
  EXPECT_TRUE(ran);
  EXPECT_EQ(st.durable_lsn(), st.last_lsn());
}

TEST(NodeStorage, BatchPolicyGatesUntilBatchFullOrFlush) {
  NodeStorage::Config cfg = config_with(FsyncPolicy::Mode::kBatch);
  cfg.fsync.batch_records = 3;
  NodeStorage st(std::make_unique<MemBackend>(), cfg);
  int released = 0;
  for (int i = 1; i <= 2; ++i) {
    const Lsn lsn =
        st.log(WalRecord::rm_next_seq(1, static_cast<std::uint64_t>(i)));
    st.when_durable(lsn, [&released] { ++released; });
    st.commit();
  }
  EXPECT_EQ(released, 0);  // batch of 3 not full yet
  EXPECT_EQ(st.gated_count(), 2u);
  const Lsn lsn = st.log(WalRecord::rm_next_seq(1, 3));
  st.when_durable(lsn, [&released] { ++released; });
  st.commit();  // third record fills the batch
  EXPECT_EQ(released, 3);

  // A partial batch is released by the interval flush().
  st.when_durable(st.log(WalRecord::rm_next_seq(1, 4)),
                  [&released] { ++released; });
  st.commit();
  EXPECT_EQ(released, 3);
  st.flush();
  EXPECT_EQ(released, 4);
}

TEST(NodeStorage, CrashDropsUnsyncedRecordsAndGatedClosures) {
  NodeStorage::Config cfg = config_with(FsyncPolicy::Mode::kBatch);
  cfg.fsync.batch_records = 100;  // nothing auto-flushes
  NodeStorage st(std::make_unique<MemBackend>(), cfg);
  st.log(WalRecord::promise(1, Ballot{1, 0}));
  st.flush();  // durable floor

  bool leaked = false;
  const Lsn lsn = st.log(WalRecord::promise(1, Ballot{2, 0}));
  st.when_durable(lsn, [&leaked] { leaked = true; });
  st.commit();                      // batched, not yet durable
  st.on_crash(/*torn_rng=*/nullptr);  // kill -9: keep no unsynced bytes
  EXPECT_FALSE(leaked);

  const DurableState& recovered = st.reset_and_recover();
  EXPECT_EQ(recovered.groups.at(1).promised, (Ballot{1, 0}));
  EXPECT_FALSE(leaked);  // dropped closures never run
  // Appends resume after the surviving prefix, reusing the lost lsn.
  EXPECT_EQ(st.log(WalRecord::promise(1, Ballot{3, 0})), 2u);
}

TEST(NodeStorage, TornCrashSurvivesRecoveryAcrossSeeds) {
  // Whatever prefix of the unsynced bytes survives, recovery must end in a
  // consistent state that is a prefix of what was appended.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    NodeStorage::Config cfg = config_with(FsyncPolicy::Mode::kBatch);
    cfg.fsync.batch_records = 1000;
    NodeStorage st(std::make_unique<MemBackend>(), cfg);
    st.log(WalRecord::promise(1, Ballot{1, 0}));
    st.flush();
    for (std::uint32_t r = 2; r <= 10; ++r) {
      st.log(WalRecord::promise(1, Ballot{r, 0}));
    }
    Rng torn(seed);
    st.on_crash(&torn);
    const DurableState& recovered = st.reset_and_recover();
    const Ballot promised = recovered.groups.at(1).promised;
    EXPECT_GE(promised.round, 1u) << "seed " << seed;
    EXPECT_LE(promised.round, 10u) << "seed " << seed;
    // The flushed record is a hard floor regardless of the torn suffix.
    EXPECT_GE(promised, (Ballot{1, 0})) << "seed " << seed;
  }
}

TEST(NodeStorage, SnapshotPlusReplayEqualsFullReplay) {
  // Reference: fold every record into a DurableState directly.
  std::vector<WalRecord> records;
  for (std::uint32_t i = 0; i < 200; ++i) {
    switch (i % 5) {
      case 0: records.push_back(WalRecord::promise(1, Ballot{i, 0})); break;
      case 1:
        records.push_back(
            WalRecord::accept(1, i, Ballot{i, 0}, bytes_of({0x01})));
        break;
      case 2: records.push_back(WalRecord::rm_next_seq(i % 3, i)); break;
      case 3: records.push_back(WalRecord::rm_progress(i % 3, i)); break;
      case 4: records.push_back(WalRecord::delivered(make_msg_id(1, i))); break;
    }
  }
  DurableState reference;
  for (const WalRecord& rec : records) reference.apply(rec);

  // Run the same records through NodeStorage with aggressive snapshotting:
  // recovery then sees snapshot + a short log suffix, never the full log.
  NodeStorage st(std::make_unique<MemBackend>(),
                 config_with(FsyncPolicy::Mode::kAlways, /*snapshot_every=*/32));
  for (const WalRecord& rec : records) {
    switch (rec.type) {
      case WalRecordType::kPromise:
        st.log(WalRecord::promise(rec.group, rec.ballot));
        break;
      case WalRecordType::kAccept:
        st.log(
            WalRecord::accept(rec.group, rec.instance, rec.ballot, rec.value));
        break;
      case WalRecordType::kRmNextSeq:
        st.log(WalRecord::rm_next_seq(rec.node, rec.seq));
        break;
      case WalRecordType::kRmProgress:
        st.log(WalRecord::rm_progress(rec.node, rec.seq));
        break;
      case WalRecordType::kDelivered:
        st.log(WalRecord::delivered(rec.seq));
        break;
      default: FAIL();
    }
    st.commit();
  }
  EXPECT_GT(st.snapshots_taken(), 0u);
  EXPECT_EQ(st.state(), reference);  // live fold agrees

  const DurableState& recovered = st.reset_and_recover();
  EXPECT_EQ(recovered, reference);  // snapshot + replay agrees
  EXPECT_LT(st.recovery_info().replay.replayed, records.size());
  EXPECT_GT(st.recovery_info().snapshot_lsn, 0u);
}

TEST(NodeStorage, DropBodySnapshotPlusReplayEqualsFullReplay) {
  // Bodies come and go the two ways a live run retires them: kDelivered
  // (this node delivered the message) and kDropBody (it never will, and
  // the retention ring let the copy go). Both must fold identically
  // whether recovery sees them in the log or inside a snapshot.
  std::vector<WalRecord> records;
  for (std::uint32_t i = 0; i < 120; ++i) {
    records.push_back(body_record(make_msg_id(1, i), bytes_of({0x0B})));
    if (i >= 3) records.push_back(WalRecord::drop_body(make_msg_id(1, i - 3)));
    if (i % 10 == 0) records.push_back(WalRecord::delivered(make_msg_id(1, i)));
  }
  DurableState reference;
  for (const WalRecord& rec : records) reference.apply(rec);
  EXPECT_LE(reference.bodies.size(), 3u);  // only the last few survive

  NodeStorage st(std::make_unique<MemBackend>(),
                 config_with(FsyncPolicy::Mode::kAlways, /*snapshot_every=*/16));
  for (const WalRecord& rec : records) {
    switch (rec.type) {
      case WalRecordType::kBody:
        st.log(body_record(rec.seq, rec.value));
        break;
      case WalRecordType::kDropBody:
        st.log(WalRecord::drop_body(rec.seq));
        break;
      case WalRecordType::kDelivered:
        st.log(WalRecord::delivered(rec.seq));
        break;
      default: FAIL();
    }
    st.commit();
  }
  EXPECT_GT(st.snapshots_taken(), 0u);
  EXPECT_EQ(st.state(), reference);
  const DurableState& recovered = st.reset_and_recover();
  EXPECT_EQ(recovered, reference);
  EXPECT_GT(st.recovery_info().snapshot_lsn, 0u);
  // Dropped bodies are not deliveries: nothing is re-externalized for them.
  for (const auto& d : st.in_doubt_deliveries()) {
    EXPECT_EQ(msg_id_seq(d.mid) % 10, 0u);
  }
}

TEST(NodeStorage, NeverPolicySnapshotAheadOfLostLogStaysConsistent) {
  // Under never-for-sim a snapshot can outlive the WAL bytes it covers; a
  // crash then must not let new appends collide with snapshotted lsns.
  NodeStorage st(std::make_unique<MemBackend>(),
                 config_with(FsyncPolicy::Mode::kNever, /*snapshot_every=*/4));
  for (std::uint32_t r = 1; r <= 8; ++r) {
    st.log(WalRecord::promise(1, Ballot{r, 0}));
    st.commit();
  }
  ASSERT_GT(st.snapshots_taken(), 0u);
  st.on_crash(/*torn_rng=*/nullptr);  // every unsynced WAL byte lost

  const DurableState& recovered = st.reset_and_recover();
  // The snapshot is durable (write_atomic) even though the log is gone.
  EXPECT_GE(recovered.groups.at(1).promised.round, 4u);
  const Lsn resume = st.log(WalRecord::promise(1, Ballot{100, 0}));
  EXPECT_GT(resume, st.recovery_info().snapshot_lsn);
  st.flush();
  const DurableState& again = st.reset_and_recover();
  EXPECT_EQ(again.groups.at(1).promised, (Ballot{100, 0}));
}

TEST(FsyncPolicyParse, AcceptsAllSpellingsRejectsGarbage) {
  EXPECT_EQ(FsyncPolicy::parse("always")->mode, FsyncPolicy::Mode::kAlways);
  EXPECT_EQ(FsyncPolicy::parse("never")->mode, FsyncPolicy::Mode::kNever);
  EXPECT_EQ(FsyncPolicy::parse("never-for-sim")->mode, FsyncPolicy::Mode::kNever);
  EXPECT_EQ(FsyncPolicy::parse("batch")->mode, FsyncPolicy::Mode::kBatch);
  const auto batch = FsyncPolicy::parse("batch:16:2");
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->batch_records, 16u);
  EXPECT_EQ(batch->batch_interval, milliseconds(2));
  EXPECT_EQ(batch->to_string(), "batch:16:2");
  EXPECT_FALSE(FsyncPolicy::parse("").has_value());
  EXPECT_FALSE(FsyncPolicy::parse("batch:0:2").has_value());
  EXPECT_FALSE(FsyncPolicy::parse("batch:16:-1").has_value());
  EXPECT_FALSE(FsyncPolicy::parse("sometimes").has_value());
}

// ---------------------------------------------------------------------------
// FileBackend: the same recovery invariants against real files
// ---------------------------------------------------------------------------

TEST(FileBackend, NodeStorageSurvivesProcessStyleReopen) {
  TempDir dir;
  {
    NodeStorage st(std::make_unique<FileBackend>(dir.path() + "/node-0"),
                   config_with(FsyncPolicy::Mode::kAlways, /*snapshot_every=*/16));
    for (std::uint32_t r = 1; r <= 40; ++r) {
      st.log(WalRecord::promise(1, Ballot{r, 0}));
      st.log(WalRecord::delivered(make_msg_id(1, r)));
      st.commit();
    }
    EXPECT_GT(st.snapshots_taken(), 0u);
  }  // handle destroyed: only the files remain, like a dead process

  NodeStorage st(std::make_unique<FileBackend>(dir.path() + "/node-0"),
                 config_with(FsyncPolicy::Mode::kAlways));
  EXPECT_EQ(st.state().groups.at(1).promised, (Ballot{40, 0}));
  EXPECT_EQ(st.state().delivered.size(), 40u);
  // The new handle appends past everything the old one wrote.
  const Lsn lsn = st.log(WalRecord::promise(1, Ballot{41, 0}));
  EXPECT_EQ(lsn, 81u);
  EXPECT_EQ(st.last_lsn(), 81u);
}

TEST(FileBackend, TornTailOnDiskIsRepaired) {
  TempDir dir;
  const std::string node_dir = dir.path() + "/node-0";
  {
    NodeStorage st(std::make_unique<FileBackend>(node_dir),
                   config_with(FsyncPolicy::Mode::kAlways));
    st.log(WalRecord::promise(1, Ballot{1, 0}));
    st.log(WalRecord::promise(1, Ballot{2, 0}));
    st.commit();
  }
  {
    FileBackend raw(node_dir);
    raw.append(segment_1(), bytes_of({0x14, 0x00}));  // partial frame
    raw.sync(segment_1());
  }
  NodeStorage st(std::make_unique<FileBackend>(node_dir),
                 config_with(FsyncPolicy::Mode::kAlways));
  EXPECT_TRUE(st.recovery_info().replay.torn_tail);
  EXPECT_EQ(st.state().groups.at(1).promised, (Ballot{2, 0}));
  EXPECT_EQ(st.log(WalRecord::promise(1, Ballot{3, 0})), 3u);
}

}  // namespace
}  // namespace fastcast::storage
