// State-transfer & replica-repair subsystem tests: wire codec for the
// repair messages, RepairCoordinator behaviour (corrupt-chunk rejection and
// re-fetch, watermark pruning safety), acceptor continuation hints and
// pruning, WAL torn-crash invariants for the settled/install records, and
// the end-to-end lag-recovery property — a replica recovered after missing
// N decided instances catches up via O(gap/chunk) snapshot chunks rather
// than O(N) P2b replays, while pruning keeps acceptor state bounded.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "fastcast/amcast/timestamp_base.hpp"
#include "fastcast/harness/experiment.hpp"
#include "fastcast/paxos/acceptor.hpp"
#include "fastcast/repair/repair.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast {
namespace {

using repair::RepairCoordinator;
using repair::RepairEntry;
using repair::decode_repair_entries;
using repair::encode_repair_entries;

// ---------------------------------------------------------------------------
// Wire codec

template <typename T>
Message round_trip(const T& payload) {
  const auto bytes = encode_message(Message{payload});
  Message out;
  EXPECT_TRUE(decode_message(bytes, out));
  return out;
}

TEST(RepairCodec, WatermarkAnnounceRoundTrip) {
  const WatermarkAnnounce in{7, 3, 1000, 1234};
  const Message m = round_trip(in);
  const auto* out = std::get_if<WatermarkAnnounce>(&m.payload);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->group, in.group);
  EXPECT_EQ(out->from, in.from);
  EXPECT_EQ(out->settled, in.settled);
  EXPECT_EQ(out->frontier, in.frontier);
}

TEST(RepairCodec, RepairRequestRoundTrip) {
  const RepairRequest in{2, 555};
  const Message m = round_trip(in);
  const auto* out = std::get_if<RepairRequest>(&m.payload);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->group, in.group);
  EXPECT_EQ(out->from_instance, in.from_instance);
}

TEST(RepairCodec, P2bMoreRoundTrip) {
  const P2bMore in{4, 129};
  const Message m = round_trip(in);
  const auto* out = std::get_if<P2bMore>(&m.payload);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->group, in.group);
  EXPECT_EQ(out->next_instance, in.next_instance);
}

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out;
  while (*s != '\0') out.push_back(static_cast<std::byte>(*s++));
  return out;
}

TEST(RepairCodec, RepairSnapshotRoundTrip) {
  RepairSnapshot in;
  in.group = 1;
  in.from_instance = 64;
  in.watermark = 96;
  in.last = true;
  encode_repair_entries({{64, bytes_of("a")}, {65, bytes_of("bb")}}, in.payload);
  in.payload_crc = storage::crc32(in.payload);

  const Message m = round_trip(in);
  const auto* out = std::get_if<RepairSnapshot>(&m.payload);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->group, in.group);
  EXPECT_EQ(out->from_instance, in.from_instance);
  EXPECT_EQ(out->watermark, in.watermark);
  EXPECT_EQ(out->last, in.last);
  EXPECT_EQ(out->payload_crc, in.payload_crc);
  EXPECT_EQ(out->payload, in.payload);

  std::vector<RepairEntry> entries;
  ASSERT_TRUE(decode_repair_entries(out->payload, entries));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].instance, 64u);
  EXPECT_EQ(entries[1].value, bytes_of("bb"));
}

TEST(RepairCodec, DecodeRejectsTruncation) {
  RepairSnapshot snap;
  snap.group = 1;
  snap.from_instance = 0;
  snap.watermark = 1;
  snap.last = false;
  encode_repair_entries({{0, bytes_of("xyz")}}, snap.payload);
  snap.payload_crc = storage::crc32(snap.payload);
  const auto bytes = encode_message(Message{snap});
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    Message out;
    EXPECT_FALSE(decode_message(std::span(bytes.data(), cut), out))
        << "cut at " << cut;
  }
}

TEST(RepairCodec, EntriesDecodeRejectsGarbage) {
  std::vector<std::byte> payload;
  encode_repair_entries({{3, bytes_of("v")}}, payload);
  std::vector<RepairEntry> entries;
  ASSERT_TRUE(decode_repair_entries(payload, entries));
  payload.push_back(std::byte{0x41});  // trailing garbage
  EXPECT_FALSE(decode_repair_entries(payload, entries));
  EXPECT_FALSE(decode_repair_entries(std::span(payload.data(), 0), entries));
}

// ---------------------------------------------------------------------------
// RepairCoordinator unit tests (fake context: recorded sends, manual timers)

class FakeContext final : public Context {
 public:
  FakeContext() { membership_.add_group(3, {0, 0, 0}); }  // nodes 0,1,2

  NodeId self() const override { return 0; }
  Time now() const override { return now_; }
  void send(NodeId to, const Message& msg) override {
    sent.push_back({to, msg});
  }
  TimerId set_timer(Duration delay, std::function<void()> cb) override {
    timers_.emplace(now_ + delay, std::move(cb));
    return ++next_timer_;
  }
  void cancel_timer(TimerId) override {}
  Rng& rng() override { return rng_; }
  const Membership& membership() const override { return membership_; }

  /// Crash analogue: every armed timer dies with the process.
  void clear_timers() { timers_.clear(); }

  /// Fires every timer due at or before `t` in order (timers may re-arm).
  void run_until(Time t) {
    while (!timers_.empty() && timers_.begin()->first <= t) {
      auto it = timers_.begin();
      now_ = it->first;
      auto cb = std::move(it->second);
      timers_.erase(it);
      cb();
    }
    now_ = t;
  }

  std::vector<std::pair<NodeId, Message>> sent;

 private:
  Time now_ = 0;
  TimerId next_timer_ = 0;
  std::multimap<Time, std::function<void()>> timers_;
  Rng rng_;
  Membership membership_;
};

struct CoordinatorFixture : ::testing::Test {
  CoordinatorFixture() : coord(make_coord()) {}

  /// A new coordinator on the fixture's hooks (also what a restart builds).
  std::unique_ptr<RepairCoordinator> make_coord() {
    RepairCoordinator::Config cfg;
    cfg.group = 1;
    cfg.self = 0;
    cfg.members = {0, 1, 2};
    cfg.learners = {0, 1, 2};
    cfg.options.announce_interval = milliseconds(10);
    cfg.options.lag_threshold = 4;
    cfg.options.chunk_entries = 8;

    RepairCoordinator::Hooks hooks;
    hooks.settled = [this] { return repair::Settled{settled, clock}; };
    hooks.frontier = [this] { return frontier; };
    hooks.install = [this](Context&, InstanceId inst,
                           const std::vector<std::byte>& value) {
      installed.emplace_back(inst, value);
      frontier = std::max(frontier, inst + 1);
      return true;
    };
    hooks.prune = [this](Context&, InstanceId floor) { pruned_to = floor; };
    hooks.accepted = [this] {
      return repair::AcceptedLog{accepted, pruned_below};
    };
    hooks.kick_tail = [this](Context&) { ++kicks; };
    return std::make_unique<RepairCoordinator>(cfg, std::move(hooks));
  }

  /// Fills the fake acceptor with decided values of [from, to).
  void accept_decided(InstanceId from, InstanceId to) {
    for (InstanceId i = from; i < to; ++i) {
      accepted[i] = {Ballot{1, 0}, bytes_of("d")};
    }
  }

  void announce_from(NodeId from, InstanceId settled_mark,
                     InstanceId frontier_mark) {
    coord->handle(ctx, from,
                  Message{WatermarkAnnounce{1, from, settled_mark, frontier_mark}});
  }

  /// Messages of payload type T sent to `to` (drains nothing).
  template <typename T>
  std::vector<T> sent_to(NodeId to) const {
    std::vector<T> out;
    for (const auto& [dst, msg] : ctx.sent) {
      if (dst != to) continue;
      if (const auto* p = std::get_if<T>(&msg.payload)) out.push_back(*p);
    }
    return out;
  }

  RepairSnapshot make_chunk(InstanceId from, std::size_t n, bool last) {
    std::vector<RepairEntry> entries;
    for (std::size_t i = 0; i < n; ++i) {
      entries.push_back({from + i, bytes_of("v")});
    }
    RepairSnapshot snap;
    snap.group = 1;
    snap.from_instance = from;
    snap.watermark = from + n;
    snap.last = last;
    encode_repair_entries(entries, snap.payload);
    snap.payload_crc = storage::crc32(snap.payload);
    return snap;
  }

  FakeContext ctx;
  InstanceId settled = 0;
  std::uint64_t clock = 0;
  InstanceId frontier = 0;
  InstanceId pruned_to = 0;
  /// The fake acceptor transfers are served from.
  std::map<InstanceId, storage::DurableState::Accepted> accepted;
  InstanceId pruned_below = 0;
  int kicks = 0;
  std::vector<std::pair<InstanceId, std::vector<std::byte>>> installed;
  std::unique_ptr<RepairCoordinator> coord;
};

TEST_F(CoordinatorFixture, LagTriggersRequestToFurthestPeer) {
  coord->on_start(ctx);
  announce_from(1, 50, 60);
  announce_from(2, 40, 50);
  const auto reqs = sent_to<RepairRequest>(1);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].from_instance, 0u);
  EXPECT_TRUE(coord->transfer_active());
  EXPECT_TRUE(sent_to<RepairRequest>(2).empty());
}

TEST_F(CoordinatorFixture, SmallGapDoesNotTransfer) {
  coord->on_start(ctx);
  announce_from(1, 2, 3);  // below lag_threshold = 4
  EXPECT_FALSE(coord->transfer_active());
  EXPECT_TRUE(sent_to<RepairRequest>(1).empty());
}

TEST_F(CoordinatorFixture, CorruptChunkIsRejectedAndRefetchedElsewhere) {
  coord->on_start(ctx);
  announce_from(1, 50, 60);
  announce_from(2, 45, 55);
  ASSERT_EQ(sent_to<RepairRequest>(1).size(), 1u);  // furthest peer first

  RepairSnapshot bad = make_chunk(0, 8, false);
  bad.payload_crc ^= 0xdeadbeef;  // corrupt on the wire
  coord->handle(ctx, 1, Message{bad});

  EXPECT_TRUE(installed.empty());  // nothing from the corrupt chunk
  // Re-fetched from the other up-to-date peer, not the failed server.
  ASSERT_EQ(sent_to<RepairRequest>(2).size(), 1u);
  EXPECT_TRUE(coord->transfer_active());

  // The failed server's stale chunks are ignored from now on.
  coord->handle(ctx, 1, Message{make_chunk(0, 8, true)});
  EXPECT_TRUE(installed.empty());

  // The good peer completes the transfer; installs resume delivery order.
  coord->handle(ctx, 2, Message{make_chunk(0, 8, false)});
  coord->handle(ctx, 2, Message{make_chunk(8, 8, true)});
  ASSERT_EQ(installed.size(), 16u);
  EXPECT_EQ(installed.front().first, 0u);
  EXPECT_EQ(installed.back().first, 15u);
  EXPECT_FALSE(coord->transfer_active());
  EXPECT_EQ(kicks, 1);  // tail above the watermark goes to normal catch-up
}

TEST_F(CoordinatorFixture, MisalignedChunkIsIgnoredNotFatal) {
  coord->on_start(ctx);
  announce_from(1, 50, 60);
  ASSERT_TRUE(coord->transfer_active());
  // A well-formed chunk at the wrong offset is stale (duplicate or from an
  // abandoned transfer), not server corruption: ignored, transfer stays up.
  coord->handle(ctx, 1, Message{make_chunk(3, 8, true)});  // expected 0
  EXPECT_TRUE(installed.empty());
  EXPECT_TRUE(coord->transfer_active());
  EXPECT_TRUE(sent_to<RepairRequest>(2).empty());  // no blacklist re-fetch
}

TEST_F(CoordinatorFixture, ServesOneChunkPerRequestUntilFrontier) {
  frontier = 20;
  accept_decided(0, 25);  // accepted beyond the frontier: not yet decided
  coord->handle(ctx, 2, Message{RepairRequest{1, 4}});
  auto chunks = sent_to<RepairSnapshot>(2);
  ASSERT_EQ(chunks.size(), 1u);  // stop-and-wait: one chunk per request
  EXPECT_EQ(chunks[0].from_instance, 4u);
  EXPECT_EQ(chunks[0].watermark, 12u);  // chunk_entries = 8
  EXPECT_FALSE(chunks[0].last);
  EXPECT_EQ(chunks[0].payload_crc, storage::crc32(chunks[0].payload));

  // The requester pulls the rest; the final chunk is marked last.
  coord->handle(ctx, 2, Message{RepairRequest{1, 12}});
  chunks = sent_to<RepairSnapshot>(2);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[1].from_instance, 12u);
  EXPECT_EQ(chunks[1].watermark, 20u);
  EXPECT_TRUE(chunks[1].last);
}

TEST_F(CoordinatorFixture, RequestBelowThePruneFloorServesNothing) {
  frontier = 20;
  pruned_below = 10;
  accept_decided(10, 20);
  // The request crossed its sender's later announce, which let the floor
  // pass it: stale, so nothing is served.
  coord->handle(ctx, 2, Message{RepairRequest{1, 4}});
  EXPECT_TRUE(sent_to<RepairSnapshot>(2).empty());

  // From the floor up the acceptor holds every decided instance.
  coord->handle(ctx, 2, Message{RepairRequest{1, 10}});
  const auto chunks = sent_to<RepairSnapshot>(2);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].from_instance, 10u);
  EXPECT_EQ(chunks[0].watermark, 18u);
}

TEST_F(CoordinatorFixture, HoleBelowTheFrontierIsAnInvariantViolation) {
  frontier = 20;
  accept_decided(10, 20);  // instances 0..9 decided but never aligned
  EXPECT_DEATH(coord->handle(ctx, 2, Message{RepairRequest{1, 4}}),
               "holds every decided instance");
}

TEST_F(CoordinatorFixture, PruneWaitsForEveryLearner) {
  settled = 30;
  frontier = 30;
  coord->on_start(ctx);
  ctx.run_until(milliseconds(15));  // fire one announce (marks self)
  announce_from(1, 20, 30);
  // Learner 2 has never announced: its silence must block pruning.
  EXPECT_EQ(coord->prune_floor(), 0u);
  EXPECT_EQ(pruned_to, 0u);

  announce_from(2, 10, 30);
  EXPECT_EQ(coord->prune_floor(), 10u);
  EXPECT_EQ(pruned_to, 10u);
}

TEST_F(CoordinatorFixture, PruneNeverPassesSlowestWatermark) {
  settled = 100;
  frontier = 100;
  coord->on_start(ctx);
  ctx.run_until(milliseconds(15));
  announce_from(1, 80, 100);
  announce_from(2, 25, 100);
  EXPECT_EQ(coord->prune_floor(), 25u);
  // The acceptor keeps everything a live peer may still fetch.
  EXPECT_EQ(pruned_to, 25u);

  // Peer 2 goes quiet and everyone else races ahead: the floor FREEZES at
  // its last announce — pruning may stall, never overtake a live peer.
  settled = 500;
  frontier = 500;
  announce_from(1, 400, 500);
  ctx.run_until(milliseconds(40));
  EXPECT_EQ(coord->prune_floor(), 25u);
}

TEST_F(CoordinatorFixture, AnnouncedSettledWaitsForWalDurability) {
  storage::NodeStorage::Config scfg;
  scfg.fsync.mode = storage::FsyncPolicy::Mode::kBatch;
  scfg.fsync.batch_records = 1000;  // commit() alone never flushes here
  storage::NodeStorage st(std::make_unique<storage::MemBackend>(), scfg);
  ctx.set_storage(&st);

  settled = 30;
  frontier = 30;
  coord->on_start(ctx);
  ctx.run_until(milliseconds(15));  // first announce tick
  auto anns = sent_to<WatermarkAnnounce>(1);
  ASSERT_FALSE(anns.empty());
  // The kSettled record is logged but not flushed: announcing 30 now would
  // let peers prune to a value a crash here could still lose, wedging this
  // node below the group prune floor on recovery.
  EXPECT_EQ(anns.back().settled, 0u);
  EXPECT_EQ(anns.back().frontier, 30u);
  EXPECT_EQ(coord->durable_settled(), 0u);

  // Peers are fully settled; our own non-durable watermark must gate the
  // prune floor all the same.
  announce_from(1, 30, 30);
  announce_from(2, 30, 30);
  EXPECT_EQ(coord->prune_floor(), 0u);

  st.flush();  // the batch interval timer fires in the real runtime
  EXPECT_EQ(coord->durable_settled(), 30u);
  ctx.run_until(milliseconds(25));  // next tick ships the latched value
  anns = sent_to<WatermarkAnnounce>(1);
  EXPECT_EQ(anns.back().settled, 30u);
  EXPECT_EQ(coord->prune_floor(), 30u);
  EXPECT_EQ(pruned_to, 30u);
}

TEST_F(CoordinatorFixture, AnnouncedSettledImmediateUnderFsyncAlways) {
  storage::NodeStorage::Config scfg;  // default policy: always
  storage::NodeStorage st(std::make_unique<storage::MemBackend>(), scfg);
  ctx.set_storage(&st);

  settled = 12;
  frontier = 12;
  coord->on_start(ctx);
  ctx.run_until(milliseconds(15));
  const auto anns = sent_to<WatermarkAnnounce>(1);
  ASSERT_FALSE(anns.empty());
  // The settled record's commit() flushes before the announce is built, so
  // the durability gate degenerates to the ungated behavior.
  EXPECT_EQ(anns.back().settled, 12u);
  EXPECT_EQ(coord->durable_settled(), 12u);
}

TEST_F(CoordinatorFixture, RecoveryRelogsSettledTheCrashDropped) {
  storage::NodeStorage::Config scfg;
  scfg.fsync.mode = storage::FsyncPolicy::Mode::kBatch;
  scfg.fsync.batch_records = 1000;
  storage::NodeStorage st(std::make_unique<storage::MemBackend>(), scfg);
  ctx.set_storage(&st);

  settled = 30;
  frontier = 30;
  coord->on_start(ctx);
  ctx.run_until(milliseconds(15));  // logs settled=30, never flushed
  // Crash: the unflushed append, the gated latch closure and the timers
  // die with the process. The restart is a new coordinator seeded from
  // what the WAL kept.
  st.on_crash(nullptr);
  ctx.clear_timers();
  const storage::DurableState& durable = st.reset_and_recover();
  coord = make_coord();
  if (const auto it = durable.groups.find(1); it != durable.groups.end()) {
    coord->restore_durable_settled(it->second.settled);
  }
  coord->on_start(ctx);
  EXPECT_EQ(coord->durable_settled(), 0u);

  // The recovered incarnation re-logs the settled record instead of
  // assuming the dead one's unflushed append survived.
  ctx.run_until(milliseconds(40));
  st.flush();
  EXPECT_EQ(coord->durable_settled(), 30u);

  // A WAL-recovered settled frontier is durable by definition and seeds
  // the latch directly.
  coord->restore_durable_settled(50);
  EXPECT_EQ(coord->durable_settled(), 50u);
}

TEST(RepairCoordinatorNonMember, ServesNothing) {
  RepairCoordinator::Config cfg;
  cfg.group = 1;
  cfg.self = 3;  // pure learner, not an acceptor
  cfg.members = {0, 1, 2};
  cfg.learners = {0, 1, 2, 3};
  RepairCoordinator::Hooks hooks;
  hooks.settled = [] { return repair::Settled{}; };
  hooks.frontier = [] { return InstanceId{50}; };
  hooks.install = [](Context&, InstanceId, const std::vector<std::byte>&) {
    return true;
  };
  hooks.prune = [](Context&, InstanceId) {};
  static const std::map<InstanceId, storage::DurableState::Accepted> none;
  hooks.accepted = [] { return repair::AcceptedLog{none, 0}; };
  hooks.kick_tail = [](Context&) {};
  RepairCoordinator coord(cfg, std::move(hooks));

  // Only members hold decided history, so only members serve transfers.
  FakeContext ctx;
  coord.handle(ctx, 1, Message{RepairRequest{1, 0}});
  EXPECT_TRUE(ctx.sent.empty());
}

TEST_F(CoordinatorFixture, StalledTransferTimesOutTowardAnotherPeer) {
  coord->on_start(ctx);
  announce_from(1, 50, 60);
  announce_from(2, 45, 55);
  ASSERT_TRUE(coord->transfer_active());
  ASSERT_EQ(sent_to<RepairRequest>(1).size(), 1u);
  // No chunk ever arrives; announce ticks past kTransferTimeout re-target.
  ctx.run_until(repair::kTransferTimeout + milliseconds(50));
  EXPECT_GE(sent_to<RepairRequest>(2).size(), 1u);
}

// ---------------------------------------------------------------------------
// Acceptor: P2bMore continuation, install, prune

struct AcceptorFixture : ::testing::Test {
  AcceptorFixture() : acceptor(1, {0, 1, 2}) {}

  FakeContext ctx;
  paxos::Acceptor acceptor;
};

TEST_F(AcceptorFixture, CappedReplayEmitsContinuationHint) {
  for (InstanceId i = 0; i < 300; ++i) {
    acceptor.install(ctx, i, bytes_of("v"));
  }
  acceptor.on_p2b_request(ctx, 2, P2bRequest{1, 0});

  std::uint64_t p2bs = 0;
  InstanceId last_instance = 0;
  std::vector<P2bMore> more;
  for (const auto& [to, msg] : ctx.sent) {
    ASSERT_EQ(to, 2u);
    if (const auto* p = std::get_if<P2b>(&msg.payload)) {
      ++p2bs;
      last_instance = p->instance;
    } else if (const auto* m = std::get_if<P2bMore>(&msg.payload)) {
      more.push_back(*m);
    }
  }
  EXPECT_EQ(p2bs, 128u);  // the documented batch cap
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].next_instance, last_instance + 1);

  // The final batch has no remainder, so no hint.
  ctx.sent.clear();
  acceptor.on_p2b_request(ctx, 2, P2bRequest{1, 256});
  std::uint64_t tail_p2bs = 0;
  std::uint64_t tail_more = 0;
  for (const auto& [to, msg] : ctx.sent) {
    (void)to;
    tail_p2bs += std::get_if<P2b>(&msg.payload) != nullptr ? 1 : 0;
    tail_more += std::get_if<P2bMore>(&msg.payload) != nullptr ? 1 : 0;
  }
  EXPECT_EQ(tail_p2bs, 44u);  // 256..299
  EXPECT_EQ(tail_more, 0u);
}

TEST_F(AcceptorFixture, PruneDropsEntriesBelowFloorOnly) {
  for (InstanceId i = 0; i < 100; ++i) {
    acceptor.install(ctx, i, bytes_of("v"));
  }
  EXPECT_EQ(acceptor.prune_below(40), 40u);
  EXPECT_EQ(acceptor.accepted_count(), 60u);
  EXPECT_EQ(acceptor.accepted().begin()->first, 40u);
  EXPECT_EQ(acceptor.pruned_below(), 40u);

  // Regressing the floor is a no-op; installs below it are refused.
  EXPECT_EQ(acceptor.prune_below(10), 0u);
  acceptor.install(ctx, 5, bytes_of("v"));
  EXPECT_EQ(acceptor.accepted().begin()->first, 40u);
}

// ---------------------------------------------------------------------------
// WAL torn-crash invariants

Ballot ballot(std::uint32_t round, NodeId node) { return Ballot{round, node}; }

TEST(RepairDurability, SettledNeverOutrunsDeliveredAcrossTornCrashes) {
  // The settled record is appended AFTER the deliveries it summarizes, so
  // any surviving log prefix that contains it contains them too — checked
  // against the emulated kill -9 (torn tail of unsynced bytes) across
  // seeds and crash points.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng torn(seed);
    storage::NodeStorage::Config cfg;
    cfg.fsync.mode = storage::FsyncPolicy::Mode::kBatch;
    cfg.fsync.batch_records = 7;
    storage::NodeStorage st(std::make_unique<storage::MemBackend>(), cfg);

    const GroupId g = 1;
    const auto value = bytes_of("v");
    const InstanceId total = 30;
    for (InstanceId i = 0; i < total; ++i) {
      st.log(storage::WalRecord::accept(g, i, ballot(1, 0), value));
      // The delivery instance i caused.
      st.log(storage::WalRecord::delivered(1000 + i));
      st.commit();
      if ((i + 1) % 5 == 0) {
        st.log(storage::WalRecord::settled(g, i + 1, /*clock=*/i + 1));
        st.commit();
      }
    }
    st.on_crash(&torn);

    const storage::DurableState& durable = st.reset_and_recover();
    const auto it = durable.groups.find(g);
    const InstanceId settled = it == durable.groups.end() ? 0 : it->second.settled;
    for (InstanceId i = 0; i < settled; ++i) {
      EXPECT_TRUE(durable.delivered.contains(1000 + i))
          << "seed " << seed << ": settled=" << settled
          << " but delivery of instance " << i << " lost";
    }
    if (it != durable.groups.end() && settled > 0) {
      // The clock bound covers every settled instance.
      EXPECT_GE(it->second.settled_clock, settled);
    }
  }
}

TEST(RepairDurability, CrashMidInstallRecoversPrefixNeverTorn) {
  // A transfer installs entries in instance order with a boundary marker
  // per chunk; a torn crash must leave a contiguous PREFIX of the installed
  // run (pre-install, post-install, or a clean cut between — never a hole).
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng torn(seed ^ 0x5eedULL);
    storage::NodeStorage::Config cfg;
    cfg.fsync.mode = storage::FsyncPolicy::Mode::kBatch;
    cfg.fsync.batch_records = 9;
    storage::NodeStorage st(std::make_unique<storage::MemBackend>(), cfg);

    const GroupId g = 2;
    const InstanceId from = 10;
    const InstanceId through = 42;
    const auto value = bytes_of("installed");
    for (InstanceId i = from; i < through; i += 8) {
      const InstanceId chunk_end = std::min<InstanceId>(i + 8, through);
      for (InstanceId j = i; j < chunk_end; ++j) {
        st.log(storage::WalRecord::accept(g, j, Ballot{}, value));
      }
      st.log(storage::WalRecord::repair_install(g, i, chunk_end));
      st.commit();
    }
    st.on_crash(&torn);

    const storage::DurableState& durable = st.reset_and_recover();
    const auto it = durable.groups.find(g);
    std::set<InstanceId> recovered;
    if (it != durable.groups.end()) {
      for (const auto& [inst, acc] : it->second.accepted) recovered.insert(inst);
    }
    // Contiguity: whatever survived starts at `from` with no holes.
    InstanceId expect = from;
    for (const InstanceId inst : recovered) {
      EXPECT_EQ(inst, expect) << "seed " << seed << ": torn install";
      ++expect;
    }
    EXPECT_LE(expect, through);
  }
}

TEST(RepairDurability, PruneRecordSurvivesRecovery) {
  storage::NodeStorage::Config cfg;
  storage::NodeStorage st(std::make_unique<storage::MemBackend>(), cfg);
  const GroupId g = 1;
  for (InstanceId i = 0; i < 20; ++i) {
    st.log(storage::WalRecord::accept(g, i, ballot(1, 0), bytes_of("v")));
  }
  st.log(storage::WalRecord::prune_accepted(g, 12));
  st.flush();

  const storage::DurableState& durable = st.reset_and_recover();
  const auto it = durable.groups.find(g);
  ASSERT_NE(it, durable.groups.end());
  EXPECT_EQ(it->second.pruned_below, 12u);
  ASSERT_FALSE(it->second.accepted.empty());
  EXPECT_EQ(it->second.accepted.begin()->first, 12u);
  EXPECT_EQ(it->second.accepted.size(), 8u);
}

// ---------------------------------------------------------------------------
// End to end: lag recovery in O(gap/chunk) messages, bounded acceptor state

struct LagOutcome {
  std::uint64_t replay_p2bs = 0;      ///< P2bs to the victim below the gap end
  std::uint64_t snapshot_chunks = 0;  ///< RepairSnapshot chunks to the victim
  InstanceId gap_end = 0;             ///< leader frontier at recovery time
  InstanceId victim_frontier = 0;     ///< victim frontier at run end
  InstanceId victim_pruned_below = 0;
  std::size_t victim_accepted = 0;
  std::uint64_t completions = 0;
};

/// `transfers` false is the control: gossip and pruning run as always, but
/// no gap is ever large enough to trigger a snapshot transfer.
LagOutcome run_lag_scenario(bool transfers) {
  harness::ExperimentConfig cfg;
  cfg.topo.env = harness::Environment::kLan;
  cfg.topo.groups = 2;
  cfg.topo.clients = 4;
  cfg.topo.protocol = harness::Protocol::kFastCast;
  cfg.seed = 7;
  cfg.dst_factory = harness::same_dst_for_all(harness::random_subset(2, 2));
  cfg.drop_probability = 0.01;  // arms catch-up polling + repropose
  cfg.check_level = Checker::Level::kFull;
  cfg.durability.durable = true;  // the victim is rebuilt from its WAL
  cfg.repair.lag_threshold =
      transfers ? 8 : std::numeric_limits<InstanceId>::max();
  cfg.repair.chunk_entries = 32;
  cfg.repair.announce_interval = milliseconds(20);

  harness::Cluster cluster(cfg);
  auto& sim = cluster.simulator();
  const NodeId victim = cluster.deployment().membership.members(0)[1];
  const NodeId leader = cluster.deployment().membership.members(0)[0];

  const Time crash_at = milliseconds(100);
  const Time recover_at = milliseconds(500);
  LagOutcome out;
  sim.set_send_observer([&](NodeId, NodeId to, const Message& msg) {
    if (to != victim || sim.now() < recover_at) return;
    if (const auto* p2b = std::get_if<P2b>(&msg.payload)) {
      if (p2b->group == 0 && p2b->instance < out.gap_end) ++out.replay_p2bs;
    } else if (std::get_if<RepairSnapshot>(&msg.payload) != nullptr) {
      ++out.snapshot_chunks;
    }
  });
  sim.schedule_crash(victim, crash_at);
  sim.schedule_recover(victim, recover_at);
  auto* leader_engine =
      cluster.replica(leader).protocol().consensus_engine();
  sim.schedule_at(recover_at, [&out, leader_engine] {
    out.gap_end = leader_engine->learner().next_to_deliver();
  });

  cluster.start();
  sim.run_until(milliseconds(1100));
  cluster.stop_clients(sim.now());
  sim.run_for(milliseconds(400));

  auto* victim_engine = cluster.replica(victim).protocol().consensus_engine();
  out.victim_frontier = victim_engine->learner().next_to_deliver();
  out.victim_pruned_below = victim_engine->acceptor().pruned_below();
  out.victim_accepted = victim_engine->acceptor().accepted_count();
  out.completions = cluster.metrics().completions_total();

  // Safety holds with or without transfers (non-quiesced: traffic in flight).
  const auto report = cluster.checker().check(false, cfg.check_level);
  std::string violations;
  for (const auto& v : report.violations) violations += v + "\n";
  EXPECT_TRUE(report.ok) << (transfers ? "repair" : "control") << " run:\n"
                         << violations;
  return out;
}

TEST(LagRecovery, SnapshotTransferBeatsP2bReplayOnTheGap) {
  const LagOutcome control = run_lag_scenario(false);
  const LagOutcome repaired = run_lag_scenario(true);

  // The scenario produced a real gap, and both runs got past it.
  ASSERT_GT(control.gap_end, 16u);
  EXPECT_GE(control.victim_frontier, control.gap_end);
  EXPECT_GE(repaired.victim_frontier, repaired.gap_end);
  EXPECT_GT(control.completions, 0u);
  EXPECT_GT(repaired.completions, 0u);

  // Control relearns the gap as per-instance P2b replays (O(N) messages);
  // repair ships it as O(gap / chunk_entries) snapshot chunks and at most a
  // short tail of P2bs.
  EXPECT_GT(control.replay_p2bs, control.gap_end / 2);
  EXPECT_GT(repaired.snapshot_chunks, 0u);
  EXPECT_LT(repaired.replay_p2bs * 4, control.replay_p2bs)
      << "repair run replayed " << repaired.replay_p2bs << " P2bs vs control "
      << control.replay_p2bs << " (gap " << repaired.gap_end << ")";
}

TEST(LagRecovery, PruningBoundsAcceptorState) {
  const LagOutcome repaired = run_lag_scenario(true);
  // The watermark advanced and the acceptor dropped everything below it:
  // retained state is the (frontier - floor) live window, not the full
  // decided history.
  EXPECT_GT(repaired.victim_pruned_below, 0u);
  EXPECT_LT(repaired.victim_accepted,
            static_cast<std::size_t>(repaired.victim_frontier));
  EXPECT_LE(repaired.victim_accepted,
            static_cast<std::size_t>(repaired.victim_frontier -
                                     repaired.victim_pruned_below) +
                1);
}

// ---------------------------------------------------------------------------
// Quiescence: gossip stops once there is nothing left to say

TEST(WatermarkGossip, DrainedRunPrunesEveryAcceptorToTheGroupMinimum) {
  harness::ExperimentConfig cfg;
  cfg.topo.env = harness::Environment::kLan;
  cfg.topo.groups = 2;
  cfg.topo.clients = 4;
  cfg.topo.protocol = harness::Protocol::kFastCast;
  cfg.seed = 3;
  cfg.dst_factory = [](std::size_t i) -> harness::DstPicker {
    if (i % 2 == 0) return harness::fixed_group(0);
    return harness::random_subset(2, 2);
  };
  harness::Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(milliseconds(200));
  // The announce tick re-arms only while a cursor moves, so the run drains.
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));

  const Membership& m = cluster.deployment().membership;
  for (GroupId g = 0; g < 2; ++g) {
    InstanceId min_settled = std::numeric_limits<InstanceId>::max();
    for (NodeId n : m.members(g)) {
      auto& p = dynamic_cast<TimestampProtocolBase&>(cluster.replica(n).protocol());
      min_settled = std::min(min_settled, p.settled_frontier());
    }
    ASSERT_GT(min_settled, 0u) << "group " << g;
    for (NodeId n : m.members(g)) {
      const paxos::Acceptor& acceptor =
          cluster.replica(n).protocol().consensus_engine()->acceptor();
      EXPECT_EQ(acceptor.pruned_below(), min_settled)
          << "group " << g << " node " << n;
    }
  }
}

}  // namespace
}  // namespace fastcast
