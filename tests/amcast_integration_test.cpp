// Integration tests for the genuine timestamp protocols on full clusters:
// BaseCast/FastCast deliver with all five atomic-multicast properties under
// mixed local/global workloads, in every environment.

#include <gtest/gtest.h>

#include <map>

#include "fastcast/harness/experiment.hpp"

namespace fastcast::harness {
namespace {

ExperimentConfig base_config(Protocol proto, std::size_t groups,
                             std::size_t clients) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = groups;
  cfg.topo.clients = clients;
  cfg.topo.protocol = proto;
  cfg.warmup = milliseconds(10);
  cfg.measure = milliseconds(200);
  cfg.check_level = Checker::Level::kFull;
  return cfg;
}

TEST(BaseCast, LocalMessagesSingleGroup) {
  auto cfg = base_config(Protocol::kBaseCast, 1, 3);
  cfg.dst_factory = same_dst_for_all(fixed_group(0));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.latency.count(), 50u);
}

TEST(BaseCast, GlobalMessagesTwoGroups) {
  auto cfg = base_config(Protocol::kBaseCast, 2, 2);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
}

TEST(BaseCast, MixedLocalAndGlobal) {
  auto cfg = base_config(Protocol::kBaseCast, 3, 6);
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    if (i % 2 == 0) return fixed_group(static_cast<GroupId>(i % 3));
    return random_subset(3, 2);
  };
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
}

TEST(BaseCast, SixDeltaLatencyForGlobalMessages) {
  // In the emulated WAN a global BaseCast message needs two consensus
  // rounds back-to-back ≈ 2 RTT ≈ 140 ms (Proposition 1's 6δ structure).
  auto cfg = base_config(Protocol::kBaseCast, 2, 1);
  cfg.topo.env = Environment::kEmulatedWan;
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  cfg.warmup = milliseconds(300);
  cfg.measure = seconds(2);
  const auto r = run_experiment(cfg);
  ASSERT_GT(r.latency.count(), 5u);
  EXPECT_GT(to_milliseconds(r.latency.median()), 120.0);
  EXPECT_LT(to_milliseconds(r.latency.median()), 170.0);
}

TEST(BaseCast, ThreeDeltaLatencyForLocalMessages) {
  // Local messages need one consensus: ≈ 1 RTT ≈ 70 ms in the WAN.
  auto cfg = base_config(Protocol::kBaseCast, 2, 1);
  cfg.topo.env = Environment::kEmulatedWan;
  cfg.dst_factory = same_dst_for_all(fixed_group(0));
  cfg.warmup = milliseconds(300);
  cfg.measure = seconds(2);
  const auto r = run_experiment(cfg);
  ASSERT_GT(r.latency.count(), 10u);
  EXPECT_GT(to_milliseconds(r.latency.median()), 55.0);
  EXPECT_LT(to_milliseconds(r.latency.median()), 90.0);
}

TEST(BaseCast, SerializedMessagesModeWorks) {
  // Every unicast goes through encode+decode — proves the protocols only
  // rely on what the wire format carries.
  auto cfg = base_config(Protocol::kBaseCast, 2, 2);
  cfg.serialize_messages = true;
  cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
}

TEST(BaseCast, ManyGroupsManyClients) {
  auto cfg = base_config(Protocol::kBaseCast, 8, 16);
  cfg.dst_factory = [](std::size_t) { return random_subset(8, 3); };
  cfg.measure = milliseconds(100);
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.report.delivery_count, 0u);
}

TEST(AtomicMulticast, AllReplicasOfAGroupDeliverSameSequence) {
  auto cfg = base_config(Protocol::kFastCast, 2, 4);
  cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
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
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  EXPECT_EQ(orders[0], orders[1]);
  EXPECT_EQ(orders[0], orders[2]);
  EXPECT_EQ(orders[3], orders[4]);
  EXPECT_EQ(orders[3], orders[5]);
  EXPECT_FALSE(orders[0].empty());
  // Global messages appear in the same relative order across groups.
  EXPECT_EQ(orders[0], orders[3]);  // all messages here are global
}

TEST(AtomicMulticast, AcksComeFromEveryDestinationReplica) {
  auto cfg = base_config(Protocol::kBaseCast, 2, 1);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  cfg.measure = milliseconds(50);
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.report.ok);
  // 6 replicas deliver each message; the client counts only the first ack,
  // so latency samples == completed ops, deliveries == 6×.
  EXPECT_EQ(r.report.delivery_count % 6, 0u);
}

TEST(AtomicMulticast, HardClockMonotonicAcrossGroupMembers) {
  auto cfg = base_config(Protocol::kBaseCast, 2, 2);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(milliseconds(100));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  // After quiescence all members of a group have applied the same decided
  // tuples; their hard clocks must agree.
  for (GroupId g = 0; g < 2; ++g) {
    std::vector<Ts> clocks;
    for (NodeId n : cluster.deployment().membership.members(g)) {
      auto* proto =
          dynamic_cast<TimestampProtocolBase*>(&cluster.replica(n).protocol());
      ASSERT_NE(proto, nullptr);
      clocks.push_back(proto->hard_clock());
      EXPECT_EQ(proto->buffer().undelivered_count(), 0u);
    }
    EXPECT_EQ(clocks[0], clocks[1]);
    EXPECT_EQ(clocks[0], clocks[2]);
    EXPECT_GT(clocks[0], 0u);
  }
}

TEST(AtomicMulticast, DisjointDestinationsDoNotInterfere) {
  // Clients 0,1 target group 0; clients 2,3 target group 1. Genuine
  // protocols keep the groups independent — both make progress and the
  // checker holds.
  auto cfg = base_config(Protocol::kFastCast, 2, 4);
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    return fixed_group(static_cast<GroupId>(i / 2));
  };
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
}

}  // namespace
}  // namespace fastcast::harness
