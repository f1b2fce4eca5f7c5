// Per-message lifecycle of the genuine protocols. Each message's state
// lives from the first event about it until its delivery; these tests feed
// replicas the events that can still arrive afterwards (a client's retry
// START, a new leader's SEND-HARD resend, a decision that beats its START,
// a restart's consensus replay) and check that none of them re-delivers,
// stalls, leaves state behind or splits a group's hard clock. A soak test
// checks that every per-message container stays flat as a run gets longer;
// a MultiPaxos id-mode soak does the same for its body stores.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "fastcast/amcast/multipaxos_amcast.hpp"
#include "fastcast/harness/experiment.hpp"

namespace fastcast::harness {
namespace {

/// Lossy-link mode (rmcast retransmission, consensus catch-up) without
/// random loss: crashes and link filters are then the only faults.
constexpr double kNoLoss = 1e-12;

/// One group of three replicas (nodes 0-2, leader 0) and one client (node
/// 3) multicasting local messages.
ExperimentConfig one_group_config(Protocol proto) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 1;
  cfg.topo.clients = 1;
  cfg.topo.protocol = proto;
  cfg.check_level = Checker::Level::kFull;
  cfg.dst_factory = same_dst_for_all(fixed_group(0));
  return cfg;
}

/// Two groups (nodes 0-2 and 3-5, leaders 0 and 3) and four clients, half
/// local to group 0, half global.
ExperimentConfig two_group_config(Protocol proto) {
  ExperimentConfig cfg = one_group_config(proto);
  cfg.topo.groups = 2;
  cfg.topo.clients = 4;
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    if (i % 2 == 0) return fixed_group(0);
    return random_subset(2, 2);
  };
  return cfg;
}

TimestampProtocolBase& genuine(Cluster& cluster, NodeId n) {
  return dynamic_cast<TimestampProtocolBase&>(cluster.replica(n).protocol());
}

/// Every live member of every group holds no per-message state, tracks at
/// most one START high-water per client, and agrees on the hard clock.
void expect_settled(Cluster& cluster, const std::set<NodeId>& crashed = {}) {
  const Membership& m = cluster.deployment().membership;
  for (GroupId g = 0; g < cluster.config().topo.groups; ++g) {
    std::optional<Ts> ch;
    for (NodeId n : m.members(g)) {
      if (crashed.contains(n)) continue;
      TimestampProtocolBase& p = genuine(cluster, n);
      EXPECT_EQ(p.buffer().undelivered_count(), 0u) << "node " << n;
      EXPECT_EQ(p.unordered_count(), 0u) << "node " << n;
      EXPECT_EQ(p.staged_count(), 0u) << "node " << n;
      EXPECT_GT(p.buffer().senders(), 0u) << "node " << n;
      EXPECT_LE(p.buffer().senders(), cluster.client_count()) << "node " << n;
      if (!ch) ch = p.hard_clock();
      EXPECT_EQ(p.hard_clock(), *ch) << "node " << n;
    }
  }
}

std::uint64_t late_events(Cluster& cluster) {
  return cluster.observability()->metrics.counter_value("amcast.late_events");
}

class Lifecycle : public testing::TestWithParam<Protocol> {};

TEST_P(Lifecycle, DecisionBeforeStartLeavesNothingUnordered) {
  ExperimentConfig cfg = one_group_config(GetParam());
  cfg.topo.groups = 2;  // nodes 0-2 and 3-5; the client is node 6
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  cfg.drop_probability = kNoLoss;
  Cluster cluster(cfg);
  // The client's first START frames to follower 1 are lost, so it learns
  // the SET-HARD decision of group 0 before the retransmitted START. Group
  // 1 gets the START much later, so the message cannot complete meanwhile:
  // the late START must not put the ordered SET-HARD back into ToOrder.
  cluster.simulator().set_link_filter([](NodeId from, NodeId to, Time at) {
    if (from != 6) return true;
    if (to == 1) return at >= milliseconds(20);
    return to < 3 || at >= milliseconds(100);
  });
  cluster.start();
  cluster.stop_clients(milliseconds(1));
  cluster.simulator().run_until(milliseconds(80));
  ASSERT_EQ(cluster.total_sent(), 1u);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(genuine(cluster, n).buffer().undelivered_count(), 1u) << "node " << n;
    EXPECT_TRUE(genuine(cluster, n).buffer().has_body(make_msg_id(6, 0)))
        << "node " << n;
    EXPECT_EQ(genuine(cluster, n).unordered_count(), 0u) << "node " << n;
  }

  cluster.simulator().run_until(seconds(1));
  for (NodeId n = 0; n < 6; ++n) {
    EXPECT_EQ(cluster.replica(n).delivered_count(), 1u) << "node " << n;
  }
  expect_settled(cluster);
  const auto report = cluster.checker().check(false, Checker::Level::kFull);
  EXPECT_TRUE(report.ok) << report.violations[0];
}

TEST_P(Lifecycle, ClientRetryAfterDeliveryIsDropped) {
  ExperimentConfig cfg = one_group_config(GetParam());
  cfg.observe = true;
  cfg.client_flow.request_timeout = milliseconds(5);
  cfg.client_flow.retry_budget = 1.0;
  Cluster cluster(cfg);
  // Acks to the client are lost for a while: it times out and re-sends
  // STARTs of messages every replica has already delivered.
  cluster.simulator().set_link_filter([](NodeId from, NodeId to, Time at) {
    return !(from < 3 && to == 3 && at < milliseconds(20));
  });
  cluster.start();
  cluster.stop_clients(milliseconds(40));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));

  EXPECT_GT(cluster.metrics().retries_total(), 0u);
  EXPECT_GT(late_events(cluster), 0u);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.replica(n).delivered_count(), cluster.total_sent())
        << "node " << n;
  }
  expect_settled(cluster);
  const auto report = cluster.checker().check(true, Checker::Level::kFull);
  EXPECT_TRUE(report.ok) << report.violations[0];
}

TEST_P(Lifecycle, NewLeaderResendAfterDeliveryIsDropped) {
  ExperimentConfig cfg = one_group_config(GetParam());
  cfg.topo.groups = 2;  // nodes 0-2 and 3-5; the client is node 6
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  cfg.observe = true;
  cfg.heartbeats = true;
  cfg.drop_probability = kNoLoss;
  Cluster cluster(cfg);
  sim::Simulator& sim = cluster.simulator();
  // From its first SEND-HARD after 20 ms on, group 0's leader no longer
  // reaches its followers, and it crashes 1 ms later. Group 1 gets that
  // SEND-HARD and delivers the message; group 0's followers keep it
  // pending until one of them is elected and re-sends the SEND-HARD.
  std::map<NodeId, std::set<MsgId>> delivered;
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    cluster.replica(n).add_observer(
        [&delivered](Context& ctx, const MulticastMessage& m) {
          delivered[ctx.self()].insert(m.id);
        });
  }
  bool cut = false;
  std::uint64_t late_resends = 0;
  sim.set_send_observer([&](NodeId from, NodeId to, const Message& msg) {
    const auto* frame = std::get_if<RmData>(&msg.payload);
    const auto* hard = frame ? std::get_if<AmSendHard>(&frame->inner) : nullptr;
    if (hard == nullptr) return;
    if (from == 0 && !cut && sim.now() >= milliseconds(20)) {
      cut = true;
      sim.schedule_crash(0, sim.now() + milliseconds(1));
    }
    if (from != 0 && to >= 3 && delivered[to].contains(hard->mid)) ++late_resends;
  });
  sim.set_link_filter([&cut](NodeId from, NodeId to, Time) {
    return !(cut && from == 0 && (to == 1 || to == 2));
  });
  cluster.checker().note_crashed(0);
  cluster.start();
  cluster.stop_clients(milliseconds(100));
  sim.run_until(seconds(2));

  ASSERT_TRUE(cut);
  EXPECT_GT(late_resends, 0u);
  EXPECT_GT(late_events(cluster), 0u);
  expect_settled(cluster, {0});
  const auto report = cluster.checker().check(false, Checker::Level::kFull);
  EXPECT_TRUE(report.ok) << report.violations[0];
}

TEST_P(Lifecycle, DurableRestartReplaysWithoutRedelivery) {
  ExperimentConfig cfg = two_group_config(GetParam());
  cfg.durability.durable = true;
  cfg.drop_probability = kNoLoss;
  Cluster cluster(cfg);
  sim::Simulator& sim = cluster.simulator();
  // Follower 1 dies as a real process would and is rebuilt from its WAL;
  // the consensus replay re-decides every SET-HARD it applied before.
  // Scheduled first, the count runs just before the crash at the same time.
  std::uint64_t before_crash = 0;
  sim.schedule_at(milliseconds(40), [&] {
    before_crash = cluster.replica(1).delivered_count();
  });
  sim.schedule_crash(1, milliseconds(40));
  sim.schedule_recover(1, milliseconds(60));
  cluster.start();
  cluster.stop_clients(milliseconds(150));
  sim.run_until(seconds(2));

  ASSERT_GT(before_crash, 0u);
  // Protocol-level deliveries (not re-externalizations): once each.
  EXPECT_EQ(before_crash + cluster.replica(1).delivered_count(),
            cluster.replica(0).delivered_count());
  expect_settled(cluster);
  const auto report = cluster.checker().check(false, Checker::Level::kFull);
  EXPECT_TRUE(report.ok) << report.violations[0];
}

TEST_P(Lifecycle, RestartedLeaderResendsTheSameHardTimestamps) {
  // The leader of group 0 announces settled frontiers while traffic runs,
  // so its rebuild skips the settled instances and resumes at the logged
  // clock. Replaying the rest re-sends SEND-HARD for the global messages
  // those instances decide: each must carry the hard timestamp the group
  // sent before the crash, or the destinations disagree on the order.
  ExperimentConfig cfg = two_group_config(GetParam());
  cfg.durability.durable = true;
  cfg.drop_probability = kNoLoss;
  Cluster cluster(cfg);
  sim::Simulator& sim = cluster.simulator();
  std::map<std::pair<GroupId, MsgId>, std::set<Ts>> hard;
  sim.set_send_observer([&](NodeId, NodeId, const Message& msg) {
    if (const auto* data = std::get_if<RmData>(&msg.payload)) {
      if (const auto* h = std::get_if<AmSendHard>(&data->inner)) {
        hard[{h->from_group, h->mid}].insert(h->ts);
      }
    }
  });
  sim.schedule_crash(0, milliseconds(130));
  sim.schedule_recover(0, milliseconds(150));
  cluster.start();
  cluster.stop_clients(milliseconds(250));
  sim.run_until(seconds(2));

  ASSERT_GT(cluster.storage()->node(0)->state().groups.at(0).settled, 0u);
  ASSERT_FALSE(hard.empty());
  for (const auto& [key, ts] : hard) {
    EXPECT_EQ(ts.size(), 1u) << "group " << key.first << " message " << key.second;
  }
  const auto report = cluster.checker().check(false, Checker::Level::kFull);
  EXPECT_TRUE(report.ok) << report.violations[0];
}

TEST_P(Lifecycle, RepeatedSetHardMovesEveryClockAlike) {
  // A repeated SET-HARD decision (a new leader re-proposing a tuple whose
  // first decision it had not learned yet) must move CH the same way on
  // every replica: on one that delivered the message long ago, and on one
  // rebuilt from its WAL at a settled frontier past the first decision.
  ExperimentConfig cfg = one_group_config(GetParam());
  cfg.durability.durable = true;
  Cluster cluster(cfg);
  sim::Simulator& sim = cluster.simulator();
  cluster.start();
  cluster.stop_clients(milliseconds(50));
  sim.run_until(milliseconds(300));  // every replica has announced settled
  sim.crash(1);
  sim.recover(1);
  sim.run_until(milliseconds(600));
  ASSERT_GT(cluster.storage()->node(1)->state().groups.at(0).settled, 0u);

  const Ts before = genuine(cluster, 0).hard_clock();
  const Tuple repeat{TupleKind::kSetHard, 0, 0, make_msg_id(3, 0), {0}};
  const InstanceId next =
      genuine(cluster, 0).consensus().learner().next_to_deliver();
  for (NodeId n = 0; n < 3; ++n) {
    genuine(cluster, n).consensus().learner().force_decided(
        sim.context(n), next, encode_tuples({repeat}));
  }
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(genuine(cluster, n).hard_clock(), before + 1) << "node " << n;
  }
}

/// Peak of every per-message container over a run of `length`.
struct Peaks {
  std::int64_t records = 0;
  std::int64_t unordered = 0;
  std::int64_t staged = 0;
  std::int64_t durable_bodies = 0;
  std::int64_t accepted = 0;  ///< acceptor entries above the prune floor
};

Peaks soak(Protocol proto, Duration length) {
  ExperimentConfig cfg = two_group_config(proto);
  cfg.observe = true;
  cfg.durability.durable = true;
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(length);
  cluster.simulator().run_until(length + milliseconds(100));
  expect_settled(cluster);
  const obs::MetricsRegistry& reg = cluster.observability()->metrics;
  return Peaks{reg.gauge_value("amcast.records"),
               reg.gauge_value("amcast.unordered"),
               reg.gauge_value("amcast.staged"),
               reg.gauge_value("storage.durable_bodies"),
               reg.gauge_value("paxos.accepted")};
}

TEST_P(Lifecycle, SoakKeepsEveryContainerFlat) {
  const Peaks one = soak(GetParam(), milliseconds(200));
  const Peaks ten = soak(GetParam(), seconds(2));
  ASSERT_GT(one.records, 0);
  ASSERT_GT(one.durable_bodies, 0);
  ASSERT_GT(one.accepted, 0);
  // In-flight slack: each closed-loop client has one message outstanding,
  // but a slow replica may still hold its predecessor.
  constexpr std::int64_t kSlack = 8;
  EXPECT_LE(ten.records, one.records + kSlack);
  EXPECT_LE(ten.unordered, one.unordered + kSlack);
  EXPECT_LE(ten.staged, one.staged + kSlack);
  EXPECT_LE(ten.durable_bodies, one.durable_bodies + kSlack);
  EXPECT_LE(ten.accepted, one.accepted + kSlack);
}

/// Peak bodies held by any MultiPaxos id-mode node, and peak bodies in any
/// node's durable state, over a run of `length`.
std::pair<std::int64_t, std::int64_t> id_mode_body_peaks(Duration length) {
  ExperimentConfig cfg = two_group_config(Protocol::kMultiPaxos);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.observe = true;
  cfg.durability.durable = true;
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(length);
  // The floor reaches the frontier within an announce tick or two of the
  // last decision; its 64-instance steps then take a few more.
  cluster.simulator().run_until(length + milliseconds(400));
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    auto& mp = dynamic_cast<MultiPaxosAmcast&>(cluster.replica(n).protocol());
    EXPECT_EQ(mp.stalled_deliveries(), 0u) << "node " << n;
    EXPECT_EQ(mp.body_store_size(), 0u) << "node " << n;
  }
  const obs::MetricsRegistry& reg = cluster.observability()->metrics;
  return {reg.gauge_value("multipaxos.bodies_held"),
          reg.gauge_value("storage.durable_bodies")};
}

// Id-mode MultiPaxos keeps a body on every holder until the ordering
// group's prune floor passes it, so the body stores track the floor's lag
// behind the frontier, not the run's length.
TEST(MultiPaxosIdLifecycle, SoakKeepsBodiesFlat) {
  const auto [held_one, durable_one] = id_mode_body_peaks(milliseconds(200));
  const auto [held_ten, durable_ten] = id_mode_body_peaks(seconds(2));
  ASSERT_GT(held_one, 0);
  ASSERT_GT(durable_one, 0);
  constexpr std::int64_t kSlack = 8;
  EXPECT_LE(held_ten, held_one + kSlack);
  EXPECT_LE(durable_ten, durable_one + kSlack);
}

INSTANTIATE_TEST_SUITE_P(Genuine, Lifecycle,
                         testing::Values(Protocol::kBaseCast, Protocol::kFastCast),
                         [](const testing::TestParamInfo<Protocol>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace fastcast::harness
