// Failure-injection tests: replica crashes, leader crashes with
// re-election, partitions that heal, and sender crashes with relaying.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fastcast/harness/experiment.hpp"

namespace fastcast::harness {
namespace {

ExperimentConfig faulty_config(Protocol proto) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 2;
  cfg.topo.clients = 4;
  cfg.topo.protocol = proto;
  cfg.warmup = milliseconds(10);
  cfg.measure = milliseconds(300);
  cfg.check_level = Checker::Level::kFull;
  return cfg;
}

TEST(Faults, FollowerCrashIsTransparent) {
  for (Protocol proto : {Protocol::kBaseCast, Protocol::kFastCast}) {
    auto cfg = faulty_config(proto);
    cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
    Cluster cluster(cfg);
    // Crash one follower in each group (nodes 1 and 4).
    cluster.simulator().schedule_crash(1, milliseconds(50));
    cluster.simulator().schedule_crash(4, milliseconds(80));
    cluster.checker().note_crashed(1);
    cluster.checker().note_crashed(4);
    cluster.start();
    cluster.stop_clients(milliseconds(310));
    const bool drained = cluster.simulator().run_to_idle(seconds(60));
    const auto report =
        cluster.checker().check(drained, Checker::Level::kFull);
    ASSERT_TRUE(report.ok) << to_string(proto) << ": " << report.violations[0];
    EXPECT_GT(report.delivery_count, 0u);
  }
}

TEST(Faults, LeaderCrashRecoversWithElection) {
  for (Protocol proto : {Protocol::kBaseCast, Protocol::kFastCast}) {
    auto cfg = faulty_config(proto);
    cfg.heartbeats = true;  // enable the failure detector / Ω oracle
    cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
    Cluster cluster(cfg);
    // Crash group 0's initial leader (node 0) mid-run.
    cluster.simulator().schedule_crash(0, milliseconds(60));
    cluster.checker().note_crashed(0);
    cluster.start();
    cluster.stop_clients(milliseconds(310));
    // Heartbeat timers never stop, so run a fixed grace then check safety
    // plus (manually) that post-crash messages still completed.
    cluster.simulator().run_until(seconds(4));
    const auto report = cluster.checker().check(false, Checker::Level::kFull);
    ASSERT_TRUE(report.ok) << to_string(proto) << ": " << report.violations[0];
    // Progress after the crash: total completions well beyond what could
    // have finished before t=60ms.
    EXPECT_GT(cluster.metrics().completions_total(), 50u) << to_string(proto);
    // Surviving members of group 0 agree on the leader (node 1).
    EXPECT_GT(report.delivery_count, 0u);
  }
}

TEST(Faults, MultiPaxosOrderingLeaderCrashRecovers) {
  auto cfg = faulty_config(Protocol::kMultiPaxos);
  cfg.heartbeats = true;
  cfg.drop_probability = 0.01;  // forces client retry machinery on
  cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
  Cluster cluster(cfg);
  // The ordering group is the extra group: its members are nodes 6..8.
  const auto& d = cluster.deployment();
  const NodeId ordering_leader =
      d.membership.members(d.ordering_group).front();
  cluster.simulator().schedule_crash(ordering_leader, milliseconds(60));
  cluster.checker().note_crashed(ordering_leader);
  cluster.start();
  cluster.stop_clients(milliseconds(310));
  cluster.simulator().run_until(seconds(6));
  const auto report = cluster.checker().check(false, Checker::Level::kFull);
  ASSERT_TRUE(report.ok) << report.violations[0];
  EXPECT_GT(cluster.metrics().completions_total(), 20u);
}

TEST(Faults, PartitionHealsAndDeliveryResumes) {
  for (Protocol proto :
       {Protocol::kBaseCast, Protocol::kFastCast, Protocol::kMultiPaxos}) {
    auto cfg = faulty_config(proto);
    cfg.drop_probability = 0.01;  // enables retransmission machinery
    cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
    Cluster cluster(cfg);
    // Cut group 0's leader (node 0) off from group 1 between 50 and 150 ms.
    cluster.simulator().set_link_filter([](NodeId from, NodeId to, Time at) {
      const bool involved = (from == 0 && to >= 3 && to <= 5) ||
                            (to == 0 && from >= 3 && from <= 5);
      if (!involved) return true;
      return at < milliseconds(50) || at > milliseconds(150);
    });
    cluster.start();
    cluster.stop_clients(milliseconds(310));
    cluster.simulator().run_until(seconds(6));
    const auto report = cluster.checker().check(false, Checker::Level::kFull);
    ASSERT_TRUE(report.ok) << to_string(proto) << ": " << report.violations[0];
    EXPECT_GT(cluster.metrics().completions_total(), 20u) << to_string(proto);
  }
}

TEST(Faults, CrashedFollowerRecoversAndRunContinues) {
  for (Protocol proto :
       {Protocol::kBaseCast, Protocol::kFastCast, Protocol::kMultiPaxos}) {
    auto cfg = faulty_config(proto);
    cfg.drop_probability = 0.01;  // catch-up/retransmission machinery on
    cfg.observe = true;
    cfg.durability.durable = true;  // recovery rebuilds from the WAL
    cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
    Cluster cluster(cfg);
    // Node 1 (follower of group 0) is down between 50 and 150 ms, then
    // recovers and re-joins. It is a correct process over the whole run, so
    // it is NOT excluded from the checker.
    cluster.simulator().schedule_crash(1, milliseconds(50));
    cluster.simulator().schedule_recover(1, milliseconds(150));
    cluster.start();
    cluster.stop_clients(milliseconds(310));
    cluster.simulator().run_until(seconds(6));
    const auto report = cluster.checker().check(false, Checker::Level::kFull);
    ASSERT_TRUE(report.ok) << to_string(proto) << ": " << report.violations[0];
    EXPECT_GT(cluster.metrics().completions_total(), 20u) << to_string(proto);
    const auto obs = cluster.observability();
    ASSERT_NE(obs, nullptr);
    EXPECT_EQ(obs->metrics.counter_value("fault.crashes"), 1u);
    EXPECT_EQ(obs->metrics.counter_value("fault.recoveries"), 1u);
  }
}

TEST(Faults, CrashedLeaderRecoversAndRejoinsAsFollower) {
  for (Protocol proto : {Protocol::kBaseCast, Protocol::kFastCast}) {
    auto cfg = faulty_config(proto);
    cfg.heartbeats = true;        // failover to node 1 while 0 is down
    cfg.drop_probability = 0.01;  // recovery catch-up machinery on
    cfg.observe = true;
    cfg.durability.durable = true;  // recovery rebuilds from the WAL
    cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
    Cluster cluster(cfg);
    cluster.simulator().schedule_crash(0, milliseconds(60));
    cluster.simulator().schedule_recover(0, milliseconds(250));
    cluster.start();
    cluster.stop_clients(milliseconds(310));
    cluster.simulator().run_until(seconds(6));
    const auto report = cluster.checker().check(false, Checker::Level::kFull);
    ASSERT_TRUE(report.ok) << to_string(proto) << ": " << report.violations[0];
    EXPECT_GT(cluster.metrics().completions_total(), 20u) << to_string(proto);
    const auto obs = cluster.observability();
    ASSERT_NE(obs, nullptr);
    // The deposed leader's comeback must have triggered a real failover.
    EXPECT_GE(obs->metrics.counter_value("paxos.leader_failovers"), 1u)
        << to_string(proto);
    EXPECT_EQ(obs->metrics.counter_value("fault.recoveries"), 1u);
  }
}

TEST(Faults, ClientCrashMidStreamLeavesSystemConsistent) {
  auto cfg = faulty_config(Protocol::kFastCast);
  cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
  Cluster cluster(cfg);
  const NodeId client0 = cluster.deployment().clients[0];
  cluster.simulator().schedule_crash(client0, milliseconds(40));
  cluster.checker().note_crashed(client0);
  cluster.start();
  cluster.stop_clients(milliseconds(310));
  const bool drained = cluster.simulator().run_to_idle(seconds(60));
  const auto report = cluster.checker().check(drained, Checker::Level::kFull);
  ASSERT_TRUE(report.ok) << report.violations[0];
}

TEST(Faults, RelayingToleratesSenderCrashForInFlightMessages) {
  // With Relay::kSelf, copies that already reached one group are forwarded
  // to the rest even if the origin dies — keeping rmcast agreement and so
  // amcast agreement (validity is excused for the crashed sender).
  auto cfg = faulty_config(Protocol::kBaseCast);
  cfg.relay = RmConfig::Relay::kSelf;
  cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
  Cluster cluster(cfg);
  const NodeId client0 = cluster.deployment().clients[0];
  // From 24 ms the client's frames no longer reach group 1, so whatever it
  // multicasts just before its 25 ms crash lands in group 0 only. Without
  // relaying group 1 never learns of it, group 0 waits forever for group
  // 1's timestamp, and surviving senders' messages queue behind it.
  const std::vector<NodeId> group1 =
      cluster.deployment().membership.members(1);
  cluster.simulator().set_link_filter(
      [client0, group1](NodeId from, NodeId to, Time at) {
        return from != client0 || at < milliseconds(24) ||
               std::find(group1.begin(), group1.end(), to) == group1.end();
      });
  cluster.simulator().schedule_crash(client0, milliseconds(25));
  cluster.checker().note_crashed(client0);
  cluster.start();
  cluster.stop_clients(milliseconds(310));
  const bool drained = cluster.simulator().run_to_idle(seconds(60));
  const auto report = cluster.checker().check(drained, Checker::Level::kFull);
  ASSERT_TRUE(report.ok) << report.violations[0];
}

TEST(Faults, WholeDatacenterLossInWan) {
  // Fig. 2's resilience claim: with one replica per region, losing a whole
  // region (every node in R3) leaves every group with a quorum.
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kEmulatedWan;
  cfg.topo.groups = 3;
  cfg.topo.clients = 3;
  cfg.topo.protocol = Protocol::kFastCast;
  cfg.warmup = milliseconds(200);
  cfg.measure = seconds(1);
  cfg.check_level = Checker::Level::kFull;
  cfg.dst_factory = same_dst_for_all(random_subset(3, 2));
  Cluster cluster(cfg);
  const auto& m = cluster.deployment().membership;
  for (NodeId n : m.all_replicas()) {
    if (m.region_of(n) == 2) {
      cluster.simulator().schedule_crash(n, milliseconds(400));
      cluster.checker().note_crashed(n);
    }
  }
  cluster.start();
  cluster.stop_clients(milliseconds(1200));
  const bool drained = cluster.simulator().run_to_idle(seconds(120));
  const auto report = cluster.checker().check(drained, Checker::Level::kFull);
  ASSERT_TRUE(report.ok) << report.violations[0];
  EXPECT_GT(cluster.metrics().completions_total(), 10u);
}

}  // namespace
}  // namespace fastcast::harness
