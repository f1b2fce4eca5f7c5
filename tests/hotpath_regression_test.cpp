// Regression anchors for the hot-path optimizations: the wire format and
// the fixed-seed delivery orders must not drift when the encoding or event
// engine changes. Every golden constant below was captured from the
// pre-optimization tree, so a failure here means observable behavior
// changed, not just performance.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fastcast/harness/experiment.hpp"
#include "fastcast/net/frame.hpp"
#include "fastcast/repair/repair.hpp"
#include "fastcast/runtime/message.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast {
namespace {

using namespace fastcast::harness;

std::string hex(const std::vector<std::byte>& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(b.size() * 2);
  for (std::byte x : b) {
    s += digits[std::to_integer<int>(x) >> 4];
    s += digits[std::to_integer<int>(x) & 0xf];
  }
  return s;
}

// ---------------------------------------------------------------------------
// Golden wire bytes (one representative per Message variant).
// ---------------------------------------------------------------------------

MulticastMessage golden_mm() {
  MulticastMessage mm;
  mm.id = make_msg_id(3, 7);
  mm.sender = 3;
  mm.dst = {0, 2};
  mm.payload = "golden";
  return mm;
}

MulticastMessage stamped_mm() {
  MulticastMessage mm = golden_mm();
  mm.deadline = 50'000'000;
  mm.sent_at = 49'900'000;
  return mm;
}

// The RmData cases were re-captured when the frame became one frame for
// every destination, without a per-copy seq or the destination groups.
RmData golden_rmdata() {
  RmData rd;
  rd.origin = 1;
  rd.dest_nodes = {0, 1, 6, 7};
  rd.dest_seqs = {11, 12, 13, 14};
  rd.inner = AmStart{golden_mm()};
  return rd;
}

struct GoldenCase {
  const char* name;
  Message msg;
  const char* hex;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  cases.push_back(
      {"RmData_AmStart", Message{golden_rmdata()},
       "010100000004000000000b010000000c060000000d070000000e"
       "0107000000030000000300000002000206676f6c64656e"});
  RmData soft = golden_rmdata();
  soft.inner = AmSendSoft{2, 99, make_msg_id(3, 7), {0, 2}};
  cases.push_back(
      {"RmData_AmSendSoft", Message{soft},
       "010100000004000000000b010000000c060000000d070000000e"
       "0202630700000003000000020002"});
  RmData hard = golden_rmdata();
  hard.inner = AmSendHard{2, 100, make_msg_id(3, 7), {0, 2}};
  cases.push_back(
      {"RmData_AmSendHard", Message{hard},
       "010100000004000000000b010000000c060000000d070000000e"
       "0302640700000003000000020002"});
  cases.push_back({"RmAck", Message{RmAck{5, 1234}}, "0205000000d204000000000000"});
  cases.push_back({"P1a", Message{P1a{1, Ballot{3, 2}, 17}},
                   "030103000000020000001100000000000000"});
  P1b p1b;
  p1b.group = 1;
  p1b.ballot = Ballot{3, 2};
  p1b.from_instance = 17;
  p1b.accepted.push_back({18, Ballot{2, 1}, to_bytes("val-a")});
  p1b.accepted.push_back({19, Ballot{3, 0}, to_bytes("val-b")});
  cases.push_back(
      {"P1b", Message{p1b},
       "04010300000002000000110000000000000002120000000000000002000000010000000"
       "576616c2d61130000000000000003000000000000000576616c2d62"});
  cases.push_back({"P2a", Message{P2a{1, Ballot{3, 2}, 20, to_bytes("value!")}},
                   "0501030000000200000014000000000000000676616c756521"});
  cases.push_back(
      {"P2b", Message{P2b{1, Ballot{3, 2}, 20, 4, to_bytes("value!")}},
       "060103000000020000001400000000000000040000000676616c756521"});
  cases.push_back({"PaxosNack", Message{PaxosNack{1, Ballot{9, 1}, 21}},
                   "070109000000010000001500000000000000"});
  cases.push_back({"P2bRequest", Message{P2bRequest{1, 22}},
                   "0b011600000000000000"});
  cases.push_back({"MpSubmit", Message{MpSubmit{golden_mm()}},
                   "0807000000030000000300000002000206676f6c64656e"});
  cases.push_back({"AmAck", Message{AmAck{make_msg_id(3, 7), 2, 6}},
                   "0907000000030000000206000000"});
  cases.push_back({"FdHeartbeat", Message{FdHeartbeat{1, 2, 33}},
                   "0a01020000002100000000000000"});
  // The cases below were captured from the tree before the codec moved to
  // one layout function per type.
  cases.push_back({"WatermarkAnnounce", Message{WatermarkAnnounce{1, 2, 30, 40}},
                   "0c01020000001e000000000000002800000000000000"});
  cases.push_back({"RepairRequest", Message{RepairRequest{1, 23}},
                   "0d011700000000000000"});
  cases.push_back({"RepairSnapshot",
                   Message{RepairSnapshot{1, 24, 50, true, 0xdeadbeef,
                                          to_bytes("chunk")}},
                   "0e011800000000000000320000000000000001efbeadde056368756e6b"});
  cases.push_back({"P2bMore", Message{P2bMore{1, 25}}, "0f011900000000000000"});
  cases.push_back({"MpBody", Message{MpBody{golden_mm()}},
                   "1007000000030000000300000002000206676f6c64656e"});
  cases.push_back({"MpBodyRequest", Message{MpBodyRequest{make_msg_id(3, 7)}},
                   "110700000003000000"});
  Busy busy;
  busy.mid = 0x0102030405060708;
  busy.reason = Busy::Reason::kExpired;
  busy.advisory = true;
  busy.retry_after = 300;
  cases.push_back({"Busy", Message{busy}, "1208070605040302010101ac02"});
  // The client-facing carriers with both stamps set: the deadline/sent_at
  // pair rides as two trailing varints after the unstamped encoding.
  RmData stamped = golden_rmdata();
  stamped.inner = AmStart{stamped_mm()};
  cases.push_back(
      {"RmData_AmStart_Stamped", Message{stamped},
       "010100000004000000000b010000000c060000000d070000000e"
       "0107000000030000000300000002000206676f6c64656e80e1eb17e0d3e517"});
  cases.push_back(
      {"MpSubmit_Stamped", Message{MpSubmit{stamped_mm()}},
       "0807000000030000000300000002000206676f6c64656e80e1eb17e0d3e517"});
  cases.push_back(
      {"MpBody_Stamped", Message{MpBody{stamped_mm()}},
       "1007000000030000000300000002000206676f6c64656e80e1eb17e0d3e517"});
  return cases;
}

/// The message whose optional deadline/sent_at suffix a frame can carry, or
/// nullptr for frames that never carry stamps.
const MulticastMessage* stamp_carrier(const Message& m) {
  if (const auto* d = std::get_if<RmData>(&m.payload)) {
    const auto* start = std::get_if<AmStart>(&d->inner);
    return start != nullptr ? &start->msg : nullptr;
  }
  if (const auto* s = std::get_if<MpSubmit>(&m.payload)) return &s->msg;
  if (const auto* b = std::get_if<MpBody>(&m.payload)) return &b->msg;
  return nullptr;
}

std::size_t varint_len(std::uint64_t v) {
  Writer w;
  w.varint(v);
  return w.size();
}

TEST(WireGolden, MessageEncodingsMatchSeedBytes) {
  for (const GoldenCase& c : golden_cases()) {
    EXPECT_EQ(hex(encode_message(c.msg)), c.hex) << c.name;
  }
}

TEST(WireGolden, ReusableEncodersAreByteIdentical) {
  std::vector<std::byte> buf;
  for (const GoldenCase& c : golden_cases()) {
    // Encode twice into the same buffer: the second pass runs with warmed
    // capacity (the pooled-buffer steady state) and must produce the same
    // bytes as the allocating encoder.
    encode_message_into(c.msg, buf);
    encode_message_into(c.msg, buf);
    EXPECT_EQ(hex(buf), c.hex) << c.name;
  }
}

TEST(WireGolden, TupleAndBatchValuesMatchSeedBytes) {
  std::vector<Tuple> ts;
  ts.push_back(Tuple{TupleKind::kSetHard, 1, 0, make_msg_id(3, 7), {0, 1}});
  ts.push_back(Tuple{TupleKind::kSyncSoft, 0, 55, make_msg_id(2, 9), {0}});
  ts.push_back(Tuple{TupleKind::kSyncHard, 2, 77, make_msg_id(1, 4), {1, 2}});
  const char* tuples_hex =
      "0300010007000000030000000200010100370900000002000000010002024d0400000001"
      "000000020102";
  EXPECT_EQ(hex(encode_tuples(ts)), tuples_hex);

  std::vector<MulticastMessage> batch;
  MulticastMessage a;
  a.id = make_msg_id(9, 1);
  a.sender = 9;
  a.dst = {0};
  a.payload = "x";
  batch.push_back(a);
  a.id = make_msg_id(9, 2);
  a.dst = {0, 1};
  a.payload = "yy";
  batch.push_back(a);
  const char* batch_hex =
      "0201000000090000000900000001000178020000000900000009000000020001027979";
  EXPECT_EQ(hex(encode_msg_batch(batch)), batch_hex);
}

TEST(WireGolden, EveryVariantHasAGolden) {
  std::set<std::size_t> covered;
  for (const GoldenCase& c : golden_cases()) covered.insert(c.msg.payload.index());
  EXPECT_EQ(covered.size(), std::variant_size_v<Payload>);
}

TEST(WireGolden, StrictPrefixesAndTrailingBytesAreRejected) {
  // A frame decodes only whole. The one exception is the stamp suffix of
  // the client-facing carriers: cut before it, or between its two varints,
  // a stamped frame is a valid frame with fewer stamps.
  for (const GoldenCase& c : golden_cases()) {
    const std::vector<std::byte> bytes = encode_message(c.msg);
    std::set<std::size_t> sanctioned;
    const MulticastMessage* carrier = stamp_carrier(c.msg);
    const bool stamped =
        carrier != nullptr && (carrier->deadline > 0 || carrier->sent_at > 0);
    if (stamped) {
      const std::size_t deadline_len =
          varint_len(static_cast<std::uint64_t>(carrier->deadline));
      const std::size_t plain =
          bytes.size() - deadline_len -
          varint_len(static_cast<std::uint64_t>(carrier->sent_at));
      sanctioned = {plain, plain + deadline_len};
    }
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      Message out;
      EXPECT_EQ(decode_message(std::span(bytes.data(), cut), out),
                sanctioned.contains(cut))
          << c.name << " cut at " << cut;
    }
    if (carrier == nullptr || stamped) {
      std::vector<std::byte> longer = bytes;
      longer.push_back(std::byte{0});
      Message out;
      EXPECT_FALSE(decode_message(longer, out)) << c.name << " + trailing byte";
    }
  }
}

TEST(WireGolden, IdBatchValueMatchesSeedBytes) {
  const std::vector<MpIdRecord> ids = {
      {make_msg_id(3, 7), 3, {0, 2}},
      {make_msg_id(4, 300), 4, {1}},
      {make_msg_id(5, 1), 5, {}},
  };
  EXPECT_EQ(hex(encode_id_batch(ids)), "030700000003000000030000000200022c010000040000000400000001010100000005"
                                       "0000000500000000");
}

TEST(WireGolden, RepairEntriesPayloadMatchesSeedBytes) {
  std::vector<std::byte> payload;
  repair::encode_repair_entries({{64, to_bytes("a")}, {300, to_bytes("bb")}},
                                payload);
  EXPECT_EQ(hex(payload), "02400161ac02026262");
}

TEST(WireGolden, ConsensusValuesRejectStrictPrefixesAndTrailingBytes) {
  struct Value {
    const char* name;
    std::vector<std::byte> bytes;
    std::function<bool(std::span<const std::byte>)> decodes;
  };
  std::vector<Value> values;
  values.push_back(
      {"tuples",
       encode_tuples({Tuple{TupleKind::kSetHard, 1, 0, make_msg_id(3, 7), {0, 1}},
                      Tuple{TupleKind::kSyncHard, 2, 300, make_msg_id(1, 4), {2}}}),
       [](std::span<const std::byte> b) {
         std::vector<Tuple> out;
         return decode_tuples(b, out);
       }});
  values.push_back({"msg batch", encode_msg_batch({golden_mm(), golden_mm()}),
                    [](std::span<const std::byte> b) {
                      std::vector<MulticastMessage> out;
                      return decode_msg_batch(b, out);
                    }});
  values.push_back({"id batch",
                    encode_id_batch({{make_msg_id(3, 7), 3, {0, 2}},
                                     {make_msg_id(5, 1), 5, {}}}),
                    [](std::span<const std::byte> b) {
                      std::vector<MpIdRecord> out;
                      return decode_id_batch(b, out);
                    }});
  Value entries{"repair entries", {}, [](std::span<const std::byte> b) {
                  std::vector<repair::RepairEntry> out;
                  return repair::decode_repair_entries(b, out);
                }};
  repair::encode_repair_entries({{64, to_bytes("a")}, {300, to_bytes("bb")}},
                                entries.bytes);
  values.push_back(std::move(entries));

  for (const Value& v : values) {
    ASSERT_TRUE(v.decodes(v.bytes)) << v.name;
    for (std::size_t cut = 0; cut < v.bytes.size(); ++cut) {
      EXPECT_FALSE(v.decodes(std::span(v.bytes.data(), cut)))
          << v.name << " cut at " << cut;
    }
    std::vector<std::byte> longer = v.bytes;
    longer.push_back(std::byte{0});
    EXPECT_FALSE(v.decodes(longer)) << v.name << " + trailing byte";
  }
}

TEST(WireGolden, FramingIsLengthPrefixPlusGoldenBody) {
  for (const GoldenCase& c : golden_cases()) {
    const std::vector<std::byte> framed = net::frame_message(c.msg);
    ASSERT_GE(framed.size(), 4u) << c.name;
    std::uint32_t len = 0;
    std::memcpy(&len, framed.data(), 4);
    EXPECT_EQ(len, framed.size() - 4) << c.name;
    EXPECT_EQ(hex({framed.begin() + 4, framed.end()}), c.hex) << c.name;

    // The appending variant must coalesce without disturbing earlier frames.
    std::vector<std::byte> two;
    net::frame_message_into(c.msg, two);
    net::frame_message_into(c.msg, two);
    ASSERT_EQ(two.size(), framed.size() * 2) << c.name;
    EXPECT_EQ(hex({two.begin(), two.begin() + static_cast<std::ptrdiff_t>(
                                                  framed.size())}),
              hex(framed))
        << c.name;
    EXPECT_EQ(hex({two.begin() + static_cast<std::ptrdiff_t>(framed.size()),
                   two.end()}),
              hex(framed))
        << c.name;
  }
}

TEST(WireGolden, BufferPoolRecyclesCapacity) {
  BufferPool pool;
  std::vector<std::byte> b = pool.acquire();
  b.resize(512);
  const std::byte* data = b.data();
  pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), 1u);
  std::vector<std::byte> again = pool.acquire();
  EXPECT_EQ(again.data(), data);  // same storage came back
  EXPECT_TRUE(again.empty());     // but cleared
  EXPECT_GE(again.capacity(), 512u);
}

// ---------------------------------------------------------------------------
// Fixed-seed delivery-order fingerprints. The FNV-1a hash covers every
// replica's full a-delivery sequence, so any reordering anywhere in a
// ~2600-delivery run changes the value. Constants captured from the
// pre-optimization tree: the engine/codec/transport work must not move a
// single delivery.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

ExperimentConfig fingerprint_config(Protocol proto, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 2;
  cfg.topo.clients = 4;
  cfg.topo.protocol = proto;
  cfg.seed = seed;
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    if (i % 2 == 0) return fixed_group(static_cast<GroupId>(i % 2));
    return random_subset(2, 2);
  };
  return cfg;
}

/// Clients stop at 150 ms. Lossy links, heartbeats and the batch fsync
/// policy's commit tick keep timers armed forever, so those runs stop at a
/// fixed 1 s horizon instead of at idle. A durable run also folds in every
/// replica's final storage files (WAL segments and snapshots, name and
/// bytes, synced or not): that pins record contents and order, and through
/// snapshot placement and gated-send release, where commits flush.
std::pair<std::size_t, std::uint64_t> delivery_fingerprint(
    const ExperimentConfig& cfg) {
  Cluster cluster(cfg);
  std::map<NodeId, std::vector<MsgId>> orders;
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    cluster.replica(n).add_observer(
        [&orders](Context& ctx, const MulticastMessage& m) {
          orders[ctx.self()].push_back(m.id);
        });
  }
  cluster.start();
  cluster.stop_clients(milliseconds(150));
  if (cfg.drop_probability > 0.0 || cfg.heartbeats || cfg.durability.durable) {
    cluster.simulator().run_until(seconds(1));
  } else {
    cluster.simulator().run_to_idle(seconds(30));
  }
  std::uint64_t h = 1469598103934665603ULL;
  std::size_t count = 0;
  for (const auto& [n, mids] : orders) {
    h = fnv1a(h, n);
    for (MsgId m : mids) h = fnv1a(h, m);
    count += mids.size();
  }
  if (storage::StorageManager* sm = cluster.storage()) {
    for (NodeId n : cluster.deployment().membership.all_replicas()) {
      storage::StorageBackend& backend = sm->node(n)->backend();
      h = fnv1a(h, n);
      for (const std::string& name : backend.list()) {
        for (char c : name) h = fnv1a(h, static_cast<unsigned char>(c));
        std::vector<std::byte> bytes;
        EXPECT_TRUE(backend.read(name, bytes));
        h = fnv1a(h, bytes.size());
        for (std::byte b : bytes) h = fnv1a(h, std::to_integer<std::uint64_t>(b));
      }
    }
  }
  return {count, h};
}

std::pair<std::size_t, std::uint64_t> delivery_fingerprint(Protocol proto,
                                                           std::uint64_t seed) {
  return delivery_fingerprint(fingerprint_config(proto, seed));
}

TEST(DeliveryDeterminism, FastCastSeed42MatchesSeedTree) {
  const auto [count, hash] = delivery_fingerprint(Protocol::kFastCast, 42);
  EXPECT_EQ(count, 2640u);
  EXPECT_EQ(hash, 10455674691533602191ULL);
}

TEST(DeliveryDeterminism, FastCastSeed7MatchesSeedTree) {
  const auto [count, hash] = delivery_fingerprint(Protocol::kFastCast, 7);
  EXPECT_EQ(count, 2646u);
  EXPECT_EQ(hash, 1020431585985440960ULL);
}

TEST(DeliveryDeterminism, BaseCastSeed42MatchesSeedTree) {
  const auto [count, hash] = delivery_fingerprint(Protocol::kBaseCast, 42);
  EXPECT_EQ(count, 2394u);
  EXPECT_EQ(hash, 9779690896982847635ULL);
}

// Lossy links with re-election: covers rmcast retransmission, consensus
// retries and the periodic repropose tick.
TEST(DeliveryDeterminism, FastCastLossySeed42MatchesSeedTree) {
  ExperimentConfig cfg = fingerprint_config(Protocol::kFastCast, 42);
  cfg.drop_probability = 0.01;
  cfg.heartbeats = true;
  const auto [count, hash] = delivery_fingerprint(cfg);
  EXPECT_EQ(count, 651u);
  EXPECT_EQ(hash, 1740009422946716649ULL);
}

// Id-mode MultiPaxos with batching: covers body dissemination, batch
// accumulation and body retention.
TEST(DeliveryDeterminism, MultiPaxosIdsBatchedSeed42MatchesSeedTree) {
  ExperimentConfig cfg = fingerprint_config(Protocol::kMultiPaxos, 42);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.mp_batch_fill = 16;
  cfg.mp_batch_delay = microseconds(200);
  const auto [count, hash] = delivery_fingerprint(cfg);
  EXPECT_EQ(count, 2421u);
  EXPECT_EQ(hash, 15090707007267968216ULL);
}

// Durable runs: batched fsync on the deterministic in-memory backend, with
// snapshots frequent enough that most replicas take some. They cover the
// WAL-before-send gates of acceptors, rmcast and a-delivery (the stable
// leader never runs Phase 1; wal_before_send_test covers the P1a).
ExperimentConfig durable_fingerprint_config(Protocol proto) {
  ExperimentConfig cfg = fingerprint_config(proto, 42);
  cfg.durability.durable = true;
  cfg.durability.fsync.mode = storage::FsyncPolicy::Mode::kBatch;
  cfg.durability.fsync.batch_records = 8;
  cfg.durability.fsync.batch_interval = milliseconds(1);
  cfg.durability.snapshot_every = 128;
  return cfg;
}

TEST(DeliveryDeterminism, FastCastDurableBatchSeed42MatchesSeedTree) {
  const auto [count, hash] =
      delivery_fingerprint(durable_fingerprint_config(Protocol::kFastCast));
  EXPECT_EQ(count, 354u);
  EXPECT_EQ(hash, 14793319417917211115ULL);
}

// Id mode logs every body on arrival and drops foreign ones from the
// durable state once the ordering group's prune floor passes them.
TEST(DeliveryDeterminism, MultiPaxosIdsDurableBatchSeed42MatchesSeedTree) {
  ExperimentConfig cfg = durable_fingerprint_config(Protocol::kMultiPaxos);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.mp_batch_fill = 16;
  cfg.mp_batch_delay = microseconds(200);
  const auto [count, hash] = delivery_fingerprint(cfg);
  EXPECT_EQ(count, 600u);
  EXPECT_EQ(hash, 8281171442381473706ULL);
}

// ---------------------------------------------------------------------------
// The simulator exports its queue high-water mark through the metrics
// registry; a run that delivered anything must have observed a non-empty
// queue at some point.
// ---------------------------------------------------------------------------

TEST(QueueHighWater, GaugeIsExportedDuringObservedRuns) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 2;
  cfg.topo.clients = 2;
  cfg.topo.protocol = Protocol::kFastCast;
  cfg.seed = 1;
  cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
  cfg.warmup = milliseconds(20);
  cfg.measure = milliseconds(100);
  cfg.observe = true;
  ExperimentResult res = run_experiment(cfg);
  ASSERT_NE(res.obs, nullptr);
  const auto gauges = res.obs->metrics.gauges();
  const auto it = gauges.find("sim.event_queue.high_water");
  ASSERT_NE(it, gauges.end());
  EXPECT_GT(it->second, 0);
}

}  // namespace
}  // namespace fastcast
