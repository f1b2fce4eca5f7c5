// FIFO reliable multicast tests: FIFO order, dedup, validity, relaying on
// origin crash, retransmission over lossy links, and the one shared frame
// every destination reads its own sequence number from.

#include <gtest/gtest.h>

#include <set>

#include "fastcast/obs/observability.hpp"
#include "fastcast/rmcast/reliable_multicast.hpp"
#include "fastcast/sim/simulator.hpp"

namespace fastcast {
namespace {

using sim::ConstantLatency;
using sim::SimConfig;
using sim::Simulator;

/// Test node hosting one ReliableMulticast endpoint.
class RmNode : public Process {
 public:
  explicit RmNode(RmConfig cfg = {}) : rm(cfg) {
    rm.set_deliver([this](Context&, NodeId origin, const AmcastPayload& p) {
      deliveries.push_back({origin, std::get<AmStart>(p).msg.id});
    });
  }

  void on_start(Context& ctx) override {
    rm.on_start(ctx);
    if (start_hook) start_hook(ctx);
  }
  void on_message(Context& ctx, NodeId from, const Message& msg) override {
    EXPECT_TRUE(rm.handle(ctx, from, msg)) << "unexpected message";
  }

  static AmcastPayload payload(NodeId sender, std::uint32_t seq) {
    MulticastMessage m;
    m.id = make_msg_id(sender, seq);
    m.sender = sender;
    m.dst = {0};
    m.payload.assign(1, 'x');
    return AmStart{m};
  }

  ReliableMulticast rm;
  std::function<void(Context&)> start_hook;
  std::vector<std::pair<NodeId, MsgId>> deliveries;
};

/// 2 groups of 3 plus one client (node 6).
Membership standard_membership() {
  Membership m;
  m.add_group(3, {0, 0, 0});
  m.add_group(3, {0, 0, 0});
  m.add_client(0);
  return m;
}

struct Fixture {
  explicit Fixture(RmConfig cfg = {}, SimConfig sim_cfg = {})
      : membership(standard_membership()),
        sim(membership, std::make_unique<ConstantLatency>(milliseconds(1), 0.05),
            sim_cfg) {
    for (NodeId n = 0; n < 7; ++n) {
      nodes.push_back(std::make_shared<RmNode>(cfg));
      sim.add_process(n, nodes.back());
    }
  }
  Membership membership;
  Simulator sim;
  std::vector<std::shared_ptr<RmNode>> nodes;
};

TEST(ReliableMulticast, DeliversToEveryDestinationGroupMember) {
  Fixture f;
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    f.nodes[6]->rm.multicast(ctx, {0, 1}, RmNode::payload(6, 0));
  };
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 0; n < 6; ++n) {
    ASSERT_EQ(f.nodes[n]->deliveries.size(), 1u) << "node " << n;
    EXPECT_EQ(f.nodes[n]->deliveries[0].second, make_msg_id(6, 0));
  }
  EXPECT_TRUE(f.nodes[6]->deliveries.empty());  // client is not a destination
}

TEST(ReliableMulticast, FifoOrderPerOrigin) {
  Fixture f;
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 50; ++i) {
      f.nodes[6]->rm.multicast(ctx, {0}, RmNode::payload(6, i));
    }
  };
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_EQ(f.nodes[n]->deliveries.size(), 50u);
    for (std::uint32_t i = 0; i < 50; ++i) {
      EXPECT_EQ(f.nodes[n]->deliveries[i].second, make_msg_id(6, i));
    }
  }
}

TEST(ReliableMulticast, FifoHoldsAcrossDifferentDestinationSets) {
  // Interleave sends to {0}, {1}, {0,1}; each receiver must see its subset
  // in send order.
  Fixture f;
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    auto& rm = f.nodes[6]->rm;
    rm.multicast(ctx, {0}, RmNode::payload(6, 0));
    rm.multicast(ctx, {1}, RmNode::payload(6, 1));
    rm.multicast(ctx, {0, 1}, RmNode::payload(6, 2));
    rm.multicast(ctx, {1}, RmNode::payload(6, 3));
    rm.multicast(ctx, {0}, RmNode::payload(6, 4));
  };
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 0; n < 3; ++n) {
    std::vector<MsgId> got;
    for (auto& d : f.nodes[n]->deliveries) got.push_back(d.second);
    EXPECT_EQ(got, (std::vector<MsgId>{make_msg_id(6, 0), make_msg_id(6, 2),
                                       make_msg_id(6, 4)}));
  }
  for (NodeId n = 3; n < 6; ++n) {
    std::vector<MsgId> got;
    for (auto& d : f.nodes[n]->deliveries) got.push_back(d.second);
    EXPECT_EQ(got, (std::vector<MsgId>{make_msg_id(6, 1), make_msg_id(6, 2),
                                       make_msg_id(6, 3)}));
  }
}

TEST(ReliableMulticast, TwoOriginsIndependentFifoStreams) {
  Fixture f;
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      f.nodes[0]->rm.multicast(ctx, {1}, RmNode::payload(0, i));
    }
  };
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      f.nodes[6]->rm.multicast(ctx, {1}, RmNode::payload(6, i));
    }
  };
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 3; n < 6; ++n) {
    std::uint32_t next0 = 0, next6 = 0;
    for (auto& [origin, mid] : f.nodes[n]->deliveries) {
      if (origin == 0) {
        EXPECT_EQ(mid, make_msg_id(0, next0++));
      }
      if (origin == 6) {
        EXPECT_EQ(mid, make_msg_id(6, next6++));
      }
    }
    EXPECT_EQ(next0, 10u);
    EXPECT_EQ(next6, 10u);
  }
}

TEST(ReliableMulticast, LossyLinksStillDeliverWithRetransmission) {
  RmConfig cfg;
  cfg.reliable_links = false;
  SimConfig sim_cfg;
  sim_cfg.drop_probability = 0.3;
  Fixture f(cfg, sim_cfg);
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 20; ++i) {
      f.nodes[6]->rm.multicast(ctx, {0, 1}, RmNode::payload(6, i));
    }
  };
  f.sim.start();
  f.sim.run_until(seconds(5));
  for (NodeId n = 0; n < 6; ++n) {
    ASSERT_EQ(f.nodes[n]->deliveries.size(), 20u) << "node " << n;
    for (std::uint32_t i = 0; i < 20; ++i) {
      EXPECT_EQ(f.nodes[n]->deliveries[i].second, make_msg_id(6, i));
    }
  }
}

TEST(ReliableMulticast, RelayCoversOriginCrashMidMulticast) {
  // The origin's copies to group 1 are cut by a partition just after the
  // copies to group 0 leave; with Relay::kSelf the group-0 receivers relay
  // and group 1 still delivers (non-uniform agreement).
  RmConfig cfg;
  cfg.relay = RmConfig::Relay::kSelf;
  Fixture f(cfg);
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    f.nodes[6]->rm.multicast(ctx, {0, 1}, RmNode::payload(6, 0));
  };
  // Drop the origin's copies to nodes 3..5 (group 1); relays are allowed.
  f.sim.set_link_filter([](NodeId from, NodeId to, Time) {
    return !(from == 6 && to >= 3 && to <= 5);
  });
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 0; n < 6; ++n) {
    ASSERT_EQ(f.nodes[n]->deliveries.size(), 1u) << "node " << n;
  }
}

TEST(ReliableMulticast, NoDuplicateDeliveriesUnderRelaying) {
  RmConfig cfg;
  cfg.relay = RmConfig::Relay::kSelf;
  Fixture f(cfg);
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      f.nodes[6]->rm.multicast(ctx, {0, 1}, RmNode::payload(6, i));
    }
  };
  f.sim.start();
  f.sim.run_to_idle();
  for (NodeId n = 0; n < 6; ++n) {
    EXPECT_EQ(f.nodes[n]->deliveries.size(), 10u) << "node " << n;
  }
}

TEST(ReliableMulticast, RelayedCopiesAreDedupedByTheReceiversOwnSeq) {
  // Over lossy links every receiver relays the one frame it delivered, the
  // origin retransmits, and every copy a destination sees is the same
  // frame: each finds its own sequence number in it and delivers once.
  RmConfig cfg;
  cfg.reliable_links = false;
  cfg.relay = RmConfig::Relay::kSelf;
  SimConfig sim_cfg;
  sim_cfg.drop_probability = 0.2;
  Fixture f(cfg, sim_cfg);
  std::size_t relayed = 0;
  f.sim.set_send_observer([&relayed](NodeId from, NodeId, const Message& m) {
    if (from != 6 && std::holds_alternative<RmData>(m.payload)) ++relayed;
  });
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      f.nodes[6]->rm.multicast(ctx, {0, 1}, RmNode::payload(6, i));
    }
  };
  f.sim.start();
  f.sim.run_until(seconds(5));
  EXPECT_GT(relayed, 0u);
  for (NodeId n = 0; n < 6; ++n) {
    ASSERT_EQ(f.nodes[n]->deliveries.size(), 10u) << "node " << n;
    for (std::uint32_t i = 0; i < 10; ++i) {
      EXPECT_EQ(f.nodes[n]->deliveries[i].second, make_msg_id(6, i));
    }
  }
  EXPECT_EQ(f.nodes[6]->rm.unacked_count(), 0u);
}

TEST(ReliableMulticast, OneMulticastQueuesOneSharedFrame) {
  // 2 groups x 3 replicas: six simulator entries, all pointing at one
  // Message, one per destination.
  Fixture f;
  std::vector<NodeId> to;
  std::set<const Message*> frames;
  f.sim.set_send_observer([&](NodeId from, NodeId dest, const Message& m) {
    if (from != 6) return;
    to.push_back(dest);
    frames.insert(&m);
  });
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    f.nodes[6]->rm.multicast(ctx, {0, 1}, RmNode::payload(6, 0));
  };
  f.sim.start();
  f.sim.run_to_idle();
  EXPECT_EQ(to, (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(frames.size(), 1u);
  for (NodeId n = 0; n < 6; ++n) {
    EXPECT_EQ(f.nodes[n]->deliveries.size(), 1u) << "node " << n;
  }
}

TEST(ReliableMulticast, FrameThatDoesNotNameTheReceiverIsIgnored) {
  // Node 6 hand-sends node 0 a frame that lists only node 1, then one that
  // lists node 0. Over lossy links a frame node 0 accepts is acked, so the
  // first one must leave neither a delivery nor an ack behind.
  RmConfig cfg;
  cfg.reliable_links = false;
  Fixture f(cfg);
  std::vector<RmAck> acks;
  f.sim.set_send_observer([&acks](NodeId from, NodeId, const Message& m) {
    if (const auto* ack = std::get_if<RmAck>(&m.payload); ack && from == 0) {
      acks.push_back(*ack);
    }
  });
  auto frame = [](NodeId dest) {
    RmData d;
    d.origin = 6;
    d.dest_nodes = {dest};
    d.dest_seqs = {1};
    d.inner = RmNode::payload(6, 1);
    return Message{std::move(d)};
  };
  f.nodes[6]->start_hook = [frame](Context& ctx) {
    ctx.send(0, frame(1));
    ctx.set_timer(milliseconds(5), [&ctx, frame] { ctx.send(0, frame(0)); });
  };
  f.sim.start();

  f.sim.run_until(milliseconds(4));
  EXPECT_TRUE(f.nodes[0]->deliveries.empty());
  EXPECT_TRUE(acks.empty());
  EXPECT_EQ(f.nodes[0]->rm.next_expected_from(6), 1u);

  f.sim.run_until(milliseconds(10));
  ASSERT_EQ(f.nodes[0]->deliveries.size(), 1u);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].origin, 6u);
  EXPECT_EQ(acks[0].seq, 1u);
}

TEST(ReliableMulticast, SelfDeliveryWhenOriginIsDestination) {
  Fixture f;
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    f.nodes[0]->rm.multicast(ctx, {0}, RmNode::payload(0, 0));
  };
  f.sim.start();
  f.sim.run_to_idle();
  ASSERT_EQ(f.nodes[0]->deliveries.size(), 1u);
  EXPECT_EQ(f.nodes[0]->deliveries[0].first, 0u);
}

TEST(ReliableMulticast, InOrderArrivalsSkipTheHoldback) {
  // Node 6 hand-sends origin-6 frames to node 0 in a chosen order (constant
  // latency, so each link is FIFO): seqs 1-2 in order, then 4-5 over a gap,
  // then the missing 3, then a stale copy of 4.
  Fixture f;
  obs::Observability obs;
  f.sim.set_observability(&obs);
  auto frame = [](std::uint64_t seq) {
    RmData d;
    d.origin = 6;
    d.dest_nodes = {0};
    d.dest_seqs = {seq};
    d.inner = RmNode::payload(6, static_cast<std::uint32_t>(seq));
    return Message{std::move(d)};
  };
  f.nodes[6]->start_hook = [frame](Context& ctx) {
    auto send_at = [&ctx, frame](Duration at, std::vector<std::uint64_t> seqs) {
      ctx.set_timer(at, [&ctx, frame, seqs] {
        for (std::uint64_t seq : seqs) ctx.send(0, frame(seq));
      });
    };
    send_at(0, {1, 2});
    send_at(milliseconds(5), {4, 5});
    send_at(milliseconds(10), {3});
    send_at(milliseconds(15), {4});
  };

  ReliableMulticast& rm = f.nodes[0]->rm;
  std::vector<std::size_t> holdback_at_delivery;
  std::vector<MsgId> delivered;
  rm.set_deliver([&](Context&, NodeId, const AmcastPayload& p) {
    holdback_at_delivery.push_back(rm.holdback_size());
    delivered.push_back(std::get<AmStart>(p).msg.id);
  });
  const auto& holdback_max = obs.metrics.gauge("rmcast.holdback_max");
  f.sim.start();

  f.sim.run_until(milliseconds(4));
  EXPECT_EQ(delivered, (std::vector<MsgId>{make_msg_id(6, 1), make_msg_id(6, 2)}));
  EXPECT_EQ(holdback_at_delivery, (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(holdback_max.value(), 0);  // in-order traffic is never held

  f.sim.run_until(milliseconds(9));
  EXPECT_EQ(delivered.size(), 2u);
  EXPECT_EQ(rm.holdback_size(), 2u);
  EXPECT_EQ(holdback_max.value(), 2);

  f.sim.run_until(milliseconds(14));
  EXPECT_EQ(delivered, (std::vector<MsgId>{make_msg_id(6, 1), make_msg_id(6, 2),
                                           make_msg_id(6, 3), make_msg_id(6, 4),
                                           make_msg_id(6, 5)}));
  EXPECT_EQ(rm.holdback_size(), 0u);
  EXPECT_EQ(rm.next_expected_from(6), 6u);

  f.sim.run_to_idle();
  EXPECT_EQ(delivered.size(), 5u);  // the stale copy of 4 is ignored
  EXPECT_EQ(rm.holdback_size(), 0u);
  EXPECT_EQ(rm.next_expected_from(6), 6u);
}

TEST(ReliableMulticast, HoldbackBuffersOutOfOrderArrival) {
  // Send two messages; partition delays the first copy so the second
  // arrives first and must be held back.
  Fixture f;
  f.nodes[6]->start_hook = [&f](Context& ctx) {
    f.nodes[6]->rm.multicast(ctx, {0}, RmNode::payload(6, 0));
    ctx.set_timer(milliseconds(5), [&f, &ctx] {
      f.nodes[6]->rm.multicast(ctx, {0}, RmNode::payload(6, 1));
    });
  };
  // Delay: drop seq-1 copies before t=2ms... instead block node 0 only.
  // Simpler: nothing to do — jitter cannot reorder by design here, so this
  // test exercises the holdback structurally via a filter that drops the
  // first transmission window to node 0.
  bool dropped_once = false;
  f.sim.set_link_filter([&dropped_once](NodeId from, NodeId to, Time) mutable {
    if (from == 6 && to == 0 && !dropped_once) {
      dropped_once = true;
      return false;
    }
    return true;
  });
  RmConfig lossy;
  (void)lossy;
  f.sim.start();
  f.sim.run_until(seconds(1));
  // Node 0 misses message 0 forever (no retransmission configured): it must
  // deliver nothing rather than deliver message 1 out of order.
  EXPECT_TRUE(f.nodes[0]->deliveries.empty());
  ASSERT_EQ(f.nodes[1]->deliveries.size(), 2u);
  EXPECT_GT(f.nodes[0]->rm.holdback_size(), 0u);
}

}  // namespace
}  // namespace fastcast
