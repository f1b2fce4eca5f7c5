// WAL-before-send, site by site: with storage attached, nothing a handler
// externalizes (a send, an r-delivery, an a-delivery observer) may happen
// before the records it reveals are durable. Each test drives one gated
// site under a batch fsync policy whose batch never fills, so only an
// explicit flush() opens the gate, and then checks that exactly the
// expected externalizations happen, in the expected order.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fastcast/amcast/delivery_buffer.hpp"
#include "fastcast/amcast/node.hpp"
#include "fastcast/paxos/acceptor.hpp"
#include "fastcast/paxos/proposer.hpp"
#include "fastcast/rmcast/reliable_multicast.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast {
namespace {

using storage::FsyncPolicy;
using storage::MemBackend;
using storage::NodeStorage;

std::string hex(const std::vector<std::byte>& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::byte x : b) {
    s += digits[std::to_integer<int>(x) >> 4];
    s += digits[std::to_integer<int>(x) & 0xf];
  }
  return s;
}

std::string sent(NodeId to, const Message& m) {
  return "send " + std::to_string(to) + " " + message_kind(m) + " " +
         hex(encode_message(m));
}

/// Node 0 of two 3-replica groups (nodes 0..5) plus a client (node 6).
/// Records every send into a shared event log; timers fire on advance().
class FakeContext final : public Context {
 public:
  explicit FakeContext(std::vector<std::string>* events) : events_(events) {
    membership_.add_group(3, {0, 0, 0});
    membership_.add_group(3, {0, 0, 0});
    membership_.add_client(0);
  }

  NodeId self() const override { return 0; }
  Time now() const override { return now_; }
  void send(NodeId to, const Message& msg) override {
    events_->push_back(sent(to, msg));
  }
  TimerId set_timer(Duration delay, std::function<void()> cb) override {
    timers_.emplace(now_ + delay, std::move(cb));
    return ++next_timer_;
  }
  void cancel_timer(TimerId) override {}
  Rng& rng() override { return rng_; }
  const Membership& membership() const override { return membership_; }

  /// Moves time forward by `d`, firing every timer due meanwhile in order.
  void advance(Duration d) {
    const Time until = now_ + d;
    while (!timers_.empty() && timers_.begin()->first <= until) {
      auto it = timers_.begin();
      now_ = it->first;
      auto cb = std::move(it->second);
      timers_.erase(it);
      cb();
    }
    now_ = until;
  }

 private:
  std::vector<std::string>* events_;
  Time now_ = 0;
  TimerId next_timer_ = 0;
  std::multimap<Time, std::function<void()>> timers_;
  Rng rng_;
  Membership membership_;
};

NodeStorage::Config never_filling_batch() {
  NodeStorage::Config cfg;
  cfg.fsync.mode = FsyncPolicy::Mode::kBatch;
  cfg.fsync.batch_records = 1u << 30;
  cfg.fsync.batch_interval = seconds(1);
  return cfg;
}

struct WalBeforeSend : ::testing::Test {
  WalBeforeSend()
      : st(std::make_unique<MemBackend>(), never_filling_batch()), ctx(&events) {
    ctx.set_storage(&st);
  }

  /// Events logged since the last call.
  std::vector<std::string> take() {
    std::vector<std::string> out;
    out.swap(events);
    return out;
  }

  std::vector<std::string> events;
  NodeStorage st;
  FakeContext ctx;
};

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out;
  for (char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

MulticastMessage message(MsgId id, NodeId sender, std::vector<GroupId> dst) {
  MulticastMessage m;
  m.id = id;
  m.sender = sender;
  m.dst = std::move(dst);
  m.payload = "body";
  return m;
}

TEST_F(WalBeforeSend, P2bWaitsForTheAcceptRecord) {
  paxos::Acceptor acc(0, {0, 1, 2});
  const P2a accept{0, Ballot{1, 1}, 4, bytes_of("v")};
  acc.on_p2a(ctx, 1, accept);
  EXPECT_EQ(st.last_lsn(), 1u);
  EXPECT_TRUE(take().empty());

  st.flush();
  const P2b vote{0, Ballot{1, 1}, 4, 0, bytes_of("v")};
  EXPECT_EQ(take(), (std::vector<std::string>{sent(0, Message{vote}),
                                              sent(1, Message{vote}),
                                              sent(2, Message{vote})}));
}

TEST_F(WalBeforeSend, P1bWaitsForThePromiseRecord) {
  paxos::Acceptor acc(0, {0, 1, 2});
  acc.on_p2a(ctx, 1, P2a{0, Ballot{1, 1}, 4, bytes_of("v")});
  st.flush();
  take();

  acc.on_p1a(ctx, 2, P1a{0, Ballot{2, 2}, 3});
  EXPECT_EQ(st.last_lsn(), 2u);
  EXPECT_TRUE(take().empty());

  st.flush();
  P1b promise{0, Ballot{2, 2}, 3, {{4, Ballot{1, 1}, bytes_of("v")}}};
  EXPECT_EQ(take(), (std::vector<std::string>{sent(2, Message{promise})}));
}

TEST_F(WalBeforeSend, P1aAndItsRetryWaitForTheBallotRecord) {
  paxos::Proposer::Config cfg;
  cfg.group = 0;
  cfg.acceptors = {0, 1, 2};
  cfg.quorum = 2;
  cfg.reliable_links = false;
  paxos::Proposer proposer(cfg);
  proposer.start_leadership(ctx, 3, 5);
  EXPECT_EQ(st.last_lsn(), 1u);
  EXPECT_TRUE(take().empty());

  // The retry tick (every 60 ms) fires while the ballot is still unsynced:
  // no P1a.
  ctx.advance(milliseconds(60));
  EXPECT_TRUE(take().empty());

  st.flush();
  const P1a prepare{0, Ballot{3, 0}, 5};
  const std::vector<std::string> round = {sent(0, Message{prepare}),
                                          sent(1, Message{prepare}),
                                          sent(2, Message{prepare})};
  EXPECT_EQ(take(), round);
  ctx.advance(milliseconds(60));
  EXPECT_EQ(take(), round);
}

TEST_F(WalBeforeSend, RmcastFramesAndRetransmissionsWaitForTheSeqRecords) {
  ReliableMulticast rm(RmConfig{.reliable_links = false});
  rm.on_start(ctx);
  const AmcastPayload inner = AmStart{message(make_msg_id(0, 1), 0, {0, 1})};
  rm.multicast(ctx, {0, 1}, inner);
  // Per destination: the seq advance and the staged frame.
  EXPECT_EQ(st.last_lsn(), 12u);
  EXPECT_TRUE(take().empty());

  // The retransmit tick (every 40 ms) fires before the commit: nothing
  // leaks.
  ctx.advance(milliseconds(40));
  EXPECT_TRUE(take().empty());

  st.flush();
  RmData frame;
  frame.origin = 0;
  frame.dest_nodes = {0, 1, 2, 3, 4, 5};
  frame.dest_seqs = {1, 1, 1, 1, 1, 1};
  frame.inner = inner;
  std::vector<std::string> round;
  for (NodeId n = 0; n < 6; ++n) round.push_back(sent(n, Message{frame}));
  EXPECT_EQ(take(), round);
  ctx.advance(milliseconds(40));
  EXPECT_EQ(take(), round);
}

TEST_F(WalBeforeSend, RmcastFramesOverReliableLinksWaitForTheSeqRecords) {
  ReliableMulticast rm(RmConfig{.reliable_links = true});
  const AmcastPayload inner = AmStart{message(make_msg_id(0, 1), 0, {1})};
  rm.multicast(ctx, {1}, inner);
  EXPECT_EQ(st.last_lsn(), 3u);
  EXPECT_TRUE(take().empty());

  st.flush();
  RmData frame;
  frame.origin = 0;
  frame.dest_nodes = {3, 4, 5};
  frame.dest_seqs = {1, 1, 1};
  frame.inner = inner;
  EXPECT_EQ(take(), (std::vector<std::string>{sent(3, Message{frame}),
                                              sent(4, Message{frame}),
                                              sent(5, Message{frame})}));
}

TEST_F(WalBeforeSend, RmcastAckAndDeliveryWaitForTheProgressRecord) {
  ReliableMulticast rm(RmConfig{.reliable_links = false});
  rm.set_deliver([this](Context&, NodeId origin, const AmcastPayload& p) {
    events.push_back("rdeliver " + std::to_string(origin) + " " +
                     std::to_string(mid_of(p)));
  });
  auto frame = [](std::uint64_t seq) {
    RmData f;
    f.origin = 6;
    f.dest_nodes = {0, 1, 2};
    f.dest_seqs = {seq, seq, seq};
    f.inner = AmStart{message(make_msg_id(6, static_cast<std::uint32_t>(seq)),
                              6, {0})};
    return f;
  };

  // Out of order: seq 2 is held back (nothing logged, nothing acked), seq 1
  // drains both behind one progress record.
  rm.handle(ctx, 6, Message{frame(2)});
  EXPECT_EQ(st.last_lsn(), 0u);
  rm.handle(ctx, 6, Message{frame(1)});
  EXPECT_EQ(st.last_lsn(), 1u);
  EXPECT_TRUE(take().empty());

  st.flush();
  EXPECT_EQ(take(),
            (std::vector<std::string>{
                "rdeliver 6 " + std::to_string(make_msg_id(6, 1)),
                "rdeliver 6 " + std::to_string(make_msg_id(6, 2)),
                sent(6, Message{RmAck{6, 1}})}));

  // A fresh frame, then a duplicate of an old one: the duplicate's ack waits
  // for everything logged so far, behind the fresh frame's externalizations.
  rm.handle(ctx, 6, Message{frame(3)});
  rm.handle(ctx, 6, Message{frame(1)});
  EXPECT_EQ(st.last_lsn(), 2u);
  EXPECT_TRUE(take().empty());

  st.flush();
  EXPECT_EQ(take(), (std::vector<std::string>{
                        "rdeliver 6 " + std::to_string(make_msg_id(6, 3)),
                        sent(6, Message{RmAck{6, 3}}),
                        sent(6, Message{RmAck{6, 1}})}));

  // Once durable, a duplicate is acked at once.
  rm.handle(ctx, 6, Message{frame(2)});
  EXPECT_EQ(take(), (std::vector<std::string>{sent(6, Message{RmAck{6, 2}})}));
}

TEST_F(WalBeforeSend, RmcastAckLeavesOnlyOnceTheStartBodyIsDurable) {
  // The progress record the ack waits for makes a restart treat the frame
  // as received, and the ack stops the origin's retransmissions. The body
  // the START's upcall logs must therefore be durable by the time the ack
  // leaves, or a crash loses the message for good.
  DeliveryBuffer buffer;
  ReliableMulticast rm(RmConfig{.reliable_links = false});
  rm.set_deliver([&buffer](Context& c, NodeId, const AmcastPayload& p) {
    buffer.store_body(c, std::get<AmStart>(p).msg);
  });
  const MsgId mid = make_msg_id(6, 1);
  RmData frame;
  frame.origin = 6;
  frame.dest_nodes = {0, 1, 2};
  frame.dest_seqs = {1, 1, 1};
  frame.inner = AmStart{message(mid, 6, {0})};

  rm.handle(ctx, 6, Message{frame});
  st.flush();  // opens the progress gate: upcall, then ack
  EXPECT_EQ(take(), (std::vector<std::string>{sent(6, Message{RmAck{6, 1}})}));

  st.on_crash(nullptr);  // every unsynced byte is lost
  EXPECT_TRUE(st.reset_and_recover().bodies.contains(mid));
}

/// Delivers every MpBody it is handed: drives ReplicaNode's upcall.
class DeliverOnBody final : public AtomicMulticast {
 public:
  void on_start(Context&) override {}
  bool handle(Context& ctx, NodeId, const Message& msg) override {
    deliver(ctx, std::get<MpBody>(msg.payload).msg);
    return true;
  }
  const char* name() const override { return "deliver-on-body"; }
};

TEST_F(WalBeforeSend, AdeliverAckAndObserversWaitForTheDeliveredRecord) {
  ReplicaNode node(std::make_shared<DeliverOnBody>());
  node.add_observer([this](Context&, const MulticastMessage& m) {
    events.push_back("observe " + std::to_string(m.id));
  });
  const MulticastMessage m1 = message(make_msg_id(6, 1), 6, {0});
  const MulticastMessage m2 = message(make_msg_id(6, 2), 6, {0});
  node.on_message(ctx, 6, Message{MpBody{m1}});
  node.on_message(ctx, 6, Message{MpBody{m2}});
  EXPECT_EQ(node.delivered_count(), 2u);
  EXPECT_EQ(st.last_lsn(), 2u);
  EXPECT_TRUE(take().empty());

  st.flush();
  EXPECT_EQ(take(), (std::vector<std::string>{
                        sent(6, Message{AmAck{m1.id, 0, 0}}),
                        "observe " + std::to_string(m1.id),
                        sent(6, Message{AmAck{m2.id, 0, 0}}),
                        "observe " + std::to_string(m2.id)}));
}

}  // namespace
}  // namespace fastcast
