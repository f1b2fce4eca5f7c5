// Wire-format tests: every Message payload must round-trip exactly, and
// decode must reject malformed input without crashing (the TCP transport
// feeds it raw network bytes).

#include <gtest/gtest.h>

#include "fastcast/common/rng.hpp"
#include "fastcast/runtime/message.hpp"

namespace fastcast {
namespace {

template <typename T>
T round_trip(const T& payload) {
  Message in{payload};
  const auto bytes = encode_message(in);
  Message out;
  EXPECT_TRUE(decode_message(bytes, out));
  const T* decoded = std::get_if<T>(&out.payload);
  EXPECT_NE(decoded, nullptr);
  return *decoded;
}

MulticastMessage sample_msg() {
  MulticastMessage m;
  m.id = make_msg_id(7, 42);
  m.sender = 7;
  m.dst = {0, 3, 5};
  m.payload = std::string(64, 'p');
  return m;
}

TEST(MessageCodec, RmDataRoundTrip) {
  RmData d;
  d.origin = 9;
  d.dest_nodes = {3, 4, 5, 6, 7, 8};
  d.dest_seqs = {10, 11, 12, 13, 14, 15};
  d.inner = AmStart{sample_msg()};
  const RmData out = round_trip(d);
  EXPECT_EQ(out.origin, 9u);
  EXPECT_EQ(out.dest_nodes, d.dest_nodes);
  EXPECT_EQ(out.dest_seqs, d.dest_seqs);
  EXPECT_EQ(std::get<AmStart>(out.inner).msg, sample_msg());
}

TEST(MessageCodec, RmDataCarriesSendSoftAndHard) {
  for (int which = 0; which < 2; ++which) {
    RmData d;
    d.origin = 1;
    d.dest_nodes = {4};
    d.dest_seqs = {2};
    if (which == 0) {
      d.inner = AmSendSoft{3, 99, make_msg_id(1, 2), {0, 1}};
    } else {
      d.inner = AmSendHard{3, 99, make_msg_id(1, 2), {0, 1}};
    }
    const RmData out = round_trip(d);
    if (which == 0) {
      const auto& s = std::get<AmSendSoft>(out.inner);
      EXPECT_EQ(s.from_group, 3u);
      EXPECT_EQ(s.ts, 99u);
    } else {
      const auto& s = std::get<AmSendHard>(out.inner);
      EXPECT_EQ(s.from_group, 3u);
      EXPECT_EQ(s.ts, 99u);
    }
  }
}

TEST(MessageCodec, RmAckRoundTrip) {
  const RmAck out = round_trip(RmAck{5, 77});
  EXPECT_EQ(out.origin, 5u);
  EXPECT_EQ(out.seq, 77u);
}

TEST(MessageCodec, PaxosPhase1RoundTrip) {
  P1a p1a{2, Ballot{3, 1}, 17};
  const P1a a = round_trip(p1a);
  EXPECT_EQ(a.group, 2u);
  EXPECT_EQ(a.ballot, (Ballot{3, 1}));
  EXPECT_EQ(a.from_instance, 17u);

  P1b p1b;
  p1b.group = 2;
  p1b.ballot = Ballot{3, 1};
  p1b.from_instance = 17;
  p1b.accepted.push_back({18, Ballot{2, 0}, encode_tuples({})});
  p1b.accepted.push_back({20, Ballot{1, 2}, {std::byte{1}, std::byte{2}}});
  const P1b b = round_trip(p1b);
  ASSERT_EQ(b.accepted.size(), 2u);
  EXPECT_EQ(b.accepted[0].instance, 18u);
  EXPECT_EQ(b.accepted[1].vballot, (Ballot{1, 2}));
  EXPECT_EQ(b.accepted[1].value.size(), 2u);
}

TEST(MessageCodec, PaxosPhase2RoundTrip) {
  const std::vector<std::byte> value = encode_tuples(
      {Tuple{TupleKind::kSyncHard, 1, 9, make_msg_id(4, 4), {0, 1}}});
  const P2a a = round_trip(P2a{1, Ballot{1, 0}, 5, value});
  EXPECT_EQ(a.instance, 5u);
  EXPECT_EQ(a.value, value);
  const P2b b = round_trip(P2b{1, Ballot{1, 0}, 5, 2, value});
  EXPECT_EQ(b.acceptor, 2u);
  EXPECT_EQ(b.value, value);
  const PaxosNack n = round_trip(PaxosNack{1, Ballot{9, 2}, 5});
  EXPECT_EQ(n.promised, (Ballot{9, 2}));
}

TEST(MessageCodec, ClientMessagesRoundTrip) {
  const MpSubmit s = round_trip(MpSubmit{sample_msg()});
  EXPECT_EQ(s.msg, sample_msg());
  const AmAck a = round_trip(AmAck{make_msg_id(7, 42), 3, 11});
  EXPECT_EQ(a.mid, make_msg_id(7, 42));
  EXPECT_EQ(a.from_group, 3u);
  EXPECT_EQ(a.deliverer, 11u);
  const FdHeartbeat h = round_trip(FdHeartbeat{4, 12, 99});
  EXPECT_EQ(h.epoch, 99u);
}

TEST(MessageCodec, TupleRoundTrip) {
  const std::vector<Tuple> tuples = {
      {TupleKind::kSetHard, 0, 0, make_msg_id(1, 1), {0, 1, 2}},
      {TupleKind::kSyncSoft, 1, 5, make_msg_id(2, 2), {1}},
      {TupleKind::kSyncHard, 2, 7, make_msg_id(3, 3), {0, 2}},
  };
  const auto bytes = encode_tuples(tuples);
  std::vector<Tuple> out;
  ASSERT_TRUE(decode_tuples(bytes, out));
  EXPECT_EQ(out, tuples);
}

TEST(MessageCodec, MsgBatchRoundTrip) {
  std::vector<MulticastMessage> batch = {sample_msg(), sample_msg()};
  batch[1].id = make_msg_id(8, 1);
  const auto bytes = encode_msg_batch(batch);
  std::vector<MulticastMessage> out;
  ASSERT_TRUE(decode_msg_batch(bytes, out));
  EXPECT_EQ(out, batch);
}

TEST(MessageCodec, IdOrderingMessagesRoundTrip) {
  const MpBody b = round_trip(MpBody{sample_msg()});
  EXPECT_EQ(b.msg, sample_msg());
  const MpBodyRequest q = round_trip(MpBodyRequest{make_msg_id(7, 42)});
  EXPECT_EQ(q.mid, make_msg_id(7, 42));
}

TEST(MessageCodec, IdBatchRoundTrip) {
  std::vector<MpIdRecord> batch = {
      {make_msg_id(1, 1), 1, {0, 1, 2}},
      {make_msg_id(2, 9), 2, {3}},
      {make_msg_id(3, 77), 5, {}},
  };
  const auto bytes = encode_id_batch(batch);
  std::vector<MpIdRecord> out;
  ASSERT_TRUE(decode_id_batch(bytes, out));
  EXPECT_EQ(out, batch);
}

TEST(MessageCodec, IdBatchRejectsTruncation) {
  const auto bytes = encode_id_batch({{make_msg_id(4, 4), 3, {0, 1}}});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::byte> cut(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(len));
    std::vector<MpIdRecord> out;
    EXPECT_FALSE(decode_id_batch(cut, out)) << "prefix " << len;
  }
}

TEST(MessageCodec, ApproxWireBytesTracksDominantFields) {
  // The estimate only needs to rank frames: a payload-carrying frame must
  // dwarf a control frame, and grow with its payload.
  MulticastMessage small = sample_msg();
  MulticastMessage big = sample_msg();
  big.payload = std::string(4096, 'q');
  const auto small_body = approx_wire_bytes(Message{MpBody{small}});
  const auto big_body = approx_wire_bytes(Message{MpBody{big}});
  const auto ack = approx_wire_bytes(Message{AmAck{small.id, 0, 1}});
  EXPECT_GT(small_body, ack);
  EXPECT_GE(big_body, small_body + 4000);
  // P2a/P2b cost tracks the proposed value, the heart of the
  // payload-vs-id ordering contrast.
  const auto fat = approx_wire_bytes(
      Message{P2a{0, {}, 1, std::vector<std::byte>(1000)}});
  const auto thin = approx_wire_bytes(Message{P2a{0, {}, 1, {}}});
  EXPECT_GE(fat, thin + 1000);
}

TEST(MessageCodec, DecodeRejectsTruncation) {
  const auto bytes = encode_message(Message{MpSubmit{sample_msg()}});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Message out;
    EXPECT_FALSE(decode_message(std::span(bytes.data(), cut), out))
        << "prefix of length " << cut << " decoded successfully";
  }
}

TEST(MessageCodec, DecodeRejectsTrailingGarbage) {
  auto bytes = encode_message(Message{RmAck{1, 2}});
  bytes.push_back(std::byte{0});
  Message out;
  EXPECT_FALSE(decode_message(bytes, out));
}

TEST(MessageCodec, DecodeRejectsUnknownTag) {
  std::vector<std::byte> bytes = {std::byte{200}};
  Message out;
  EXPECT_FALSE(decode_message(bytes, out));
}

TEST(MessageCodec, FuzzDecodeNeverCrashes) {
  Rng rng(0xfaceb00c);
  for (int i = 0; i < 5000; ++i) {
    const std::size_t len = rng.uniform(200);
    std::vector<std::byte> junk(len);
    for (auto& b : junk) b = static_cast<std::byte>(rng.uniform(256));
    Message out;
    (void)decode_message(junk, out);  // must not crash or hang
  }
  SUCCEED();
}

TEST(MessageCodec, FuzzMutatedValidMessages) {
  Rng rng(0x5eed1);
  RmData d;
  d.origin = 1;
  d.dest_nodes = {0, 1, 2};
  d.dest_seqs = {1, 1, 1};
  d.inner = AmStart{sample_msg()};
  const auto base = encode_message(Message{d});
  for (int i = 0; i < 5000; ++i) {
    auto bytes = base;
    const std::size_t pos = rng.uniform(bytes.size());
    bytes[pos] = static_cast<std::byte>(rng.uniform(256));
    Message out;
    (void)decode_message(bytes, out);  // either decodes or fails cleanly
  }
  SUCCEED();
}

TEST(MessageCodec, MessageKindNames) {
  EXPECT_STREQ(message_kind(Message{RmAck{}}), "RmAck");
  EXPECT_STREQ(message_kind(Message{P2b{}}), "P2b");
  EXPECT_STREQ(message_kind(Message{MpSubmit{}}), "MpSubmit");
}

TEST(MessageCodec, TsKeyOrdering) {
  EXPECT_LT((TsKey{1, 5}), (TsKey{2, 1}));
  EXPECT_LT((TsKey{2, 1}), (TsKey{2, 2}));
  EXPECT_EQ((TsKey{3, 3}), (TsKey{3, 3}));
}

TEST(MessageCodec, MsgIdPacking) {
  const MsgId id = make_msg_id(0xabcd, 0x1234);
  EXPECT_EQ(msg_id_sender(id), 0xabcdu);
  EXPECT_EQ(msg_id_seq(id), 0x1234u);
}

// --- Overload control: Busy frames and deadline/sent_at stamps -------------

TEST(MessageCodec, BusyRoundTrip) {
  for (const auto reason : {Busy::Reason::kOverload, Busy::Reason::kExpired}) {
    for (const bool advisory : {false, true}) {
      Busy b;
      b.mid = make_msg_id(3, 77);
      b.reason = reason;
      b.advisory = advisory;
      b.retry_after = milliseconds(7);
      EXPECT_EQ(round_trip(b), b);
    }
  }
}

TEST(MessageCodec, BusyGoldenBytes) {
  Busy b;
  b.mid = 0x0102030405060708;
  b.reason = Busy::Reason::kExpired;
  b.advisory = true;
  b.retry_after = 300;
  const std::vector<std::byte> expect = {
      std::byte{18},                                       // WireTag::kBusy
      std::byte{0x08}, std::byte{0x07}, std::byte{0x06},   // mid, u64 LE
      std::byte{0x05}, std::byte{0x04}, std::byte{0x03},
      std::byte{0x02}, std::byte{0x01},
      std::byte{1},                                        // kExpired
      std::byte{1},                                        // advisory
      std::byte{0xAC}, std::byte{0x02},                    // varint 300
  };
  EXPECT_EQ(encode_message(Message{b}), expect);
}

TEST(MessageCodec, BusyRejectsTruncation) {
  Busy b;
  b.mid = make_msg_id(1, 9);
  b.retry_after = 300;  // 2-byte varint, so the last cut lands mid-varint
  const auto bytes = encode_message(Message{b});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Message out;
    EXPECT_FALSE(decode_message(std::span(bytes.data(), cut), out))
        << "prefix of length " << cut << " decoded successfully";
  }
}

TEST(MessageCodec, BusyRejectsInvalidEnums) {
  Busy b;
  b.mid = make_msg_id(1, 9);
  auto bytes = encode_message(Message{b});
  // Layout: tag (1) + mid (8) + reason (1) + advisory (1) + retry_after.
  auto patched = bytes;
  patched[9] = std::byte{2};  // beyond kExpired
  Message out;
  EXPECT_FALSE(decode_message(patched, out));
  patched = bytes;
  patched[10] = std::byte{2};  // advisory must be 0 or 1
  EXPECT_FALSE(decode_message(patched, out));
}

MulticastMessage stamped_msg() {
  MulticastMessage m = sample_msg();
  m.deadline = 50'000'000;   // 50 ms, absolute
  m.sent_at = 49'900'000;
  return m;
}

TEST(MessageCodec, StampedMessagesRoundTrip) {
  // All three client-facing carriers, with both stamps, and with each stamp
  // alone (the pair is emitted whenever either is set).
  for (const auto& msg :
       {stamped_msg(),
        [] { auto m = stamped_msg(); m.sent_at = 0; return m; }(),
        [] { auto m = stamped_msg(); m.deadline = 0; return m; }()}) {
    EXPECT_EQ(round_trip(MpSubmit{msg}).msg, msg);
    EXPECT_EQ(round_trip(MpBody{msg}).msg, msg);
    RmData d;
    d.origin = 9;
    d.dest_nodes = {0};
    d.dest_seqs = {4};
    d.inner = AmStart{msg};
    EXPECT_EQ(std::get<AmStart>(round_trip(d).inner).msg, msg);
  }
}

TEST(MessageCodec, StampPairIsTrailingSuffix) {
  // The stamps ride as two trailing varints appended to the pre-stamp
  // encoding, which is what keeps old decoders' view of the frame intact
  // and the batch codecs byte-stable.
  const MulticastMessage stamped = stamped_msg();
  MulticastMessage plain = stamped;
  plain.deadline = 0;
  plain.sent_at = 0;
  auto expect = encode_message(Message{MpSubmit{plain}});
  Writer w{std::move(expect)};
  w.varint(static_cast<std::uint64_t>(stamped.deadline));
  w.varint(static_cast<std::uint64_t>(stamped.sent_at));
  EXPECT_EQ(encode_message(Message{MpSubmit{stamped}}), w.take());
}

TEST(MessageCodec, StampedFrameTruncationAndBackwardCompat) {
  // Truncating a stamped frame at the pre-stamp boundary yields exactly a
  // legacy frame: it must decode, with zeroed stamps. One varint further is
  // a deadline-only frame (sent_at optional). Every other cut must fail.
  const MulticastMessage stamped = stamped_msg();
  MulticastMessage plain = stamped;
  plain.deadline = 0;
  plain.sent_at = 0;
  const auto bytes = encode_message(Message{MpSubmit{stamped}});
  const std::size_t plain_len = encode_message(Message{MpSubmit{plain}}).size();
  Writer w;
  w.varint(static_cast<std::uint64_t>(stamped.deadline));
  const std::size_t deadline_len = w.take().size();

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    Message out;
    const bool ok = decode_message(std::span(bytes.data(), cut), out);
    if (cut == plain_len || cut == plain_len + deadline_len ||
        cut == bytes.size()) {
      ASSERT_TRUE(ok) << "cut " << cut;
      const auto& m = std::get<MpSubmit>(out.payload).msg;
      EXPECT_EQ(m.id, stamped.id);
      EXPECT_EQ(m.deadline, cut > plain_len ? stamped.deadline : 0);
      EXPECT_EQ(m.sent_at, cut == bytes.size() ? stamped.sent_at : 0);
    } else {
      EXPECT_FALSE(ok) << "cut " << cut;
    }
  }
}

}  // namespace
}  // namespace fastcast
