// Non-genuine MultiPaxos atomic multicast tests: destination filtering,
// total order through the fixed group, 3δ latency, non-genuineness.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fastcast/amcast/multipaxos_amcast.hpp"
#include "fastcast/harness/chaos.hpp"
#include "fastcast/harness/experiment.hpp"

namespace fastcast::harness {
namespace {

ExperimentConfig mp_config(std::size_t groups, std::size_t clients,
                           Environment env = Environment::kLan) {
  ExperimentConfig cfg;
  cfg.topo.env = env;
  cfg.topo.groups = groups;
  cfg.topo.clients = clients;
  cfg.topo.protocol = Protocol::kMultiPaxos;
  cfg.warmup = env == Environment::kLan ? milliseconds(10) : milliseconds(300);
  cfg.measure = env == Environment::kLan ? milliseconds(200) : seconds(2);
  cfg.check_level = Checker::Level::kFull;
  return cfg;
}

TEST(MultiPaxosAmcast, DeliversWithAllProperties) {
  auto cfg = mp_config(3, 6);
  cfg.dst_factory = same_dst_for_all(random_subset(3, 2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.report.delivery_count, 0u);
}

TEST(MultiPaxosAmcast, HeartbeatsCauseNoFailoverWithoutFaults) {
  // Only the ordering group's members exchange heartbeats; a learner
  // replica outside it must not suspect a leader it never hears from.
  auto cfg = mp_config(2, 4);
  cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
  cfg.heartbeats = true;
  cfg.observe = true;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.report.delivery_count, 0u);
  ASSERT_NE(r.obs, nullptr);
  EXPECT_EQ(r.obs->metrics.counter_value("paxos.leader_failovers"), 0u);
}

TEST(MultiPaxosAmcast, FiltersDeliveriesByDestinationGroup) {
  auto cfg = mp_config(2, 2);
  cfg.dst_factory = [](std::size_t i) -> DstPicker {
    return fixed_group(static_cast<GroupId>(i));  // client i -> group i
  };
  Cluster cluster(cfg);
  std::map<NodeId, std::size_t> counts;
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    cluster.replica(n).add_observer(
        [&counts](Context& ctx, const MulticastMessage&) { ++counts[ctx.self()]; });
  }
  cluster.start();
  cluster.stop_clients(milliseconds(100));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  // Groups 0 and 1 both delivered something; the ordering group (nodes of
  // the extra group) delivered nothing.
  const auto& m = cluster.deployment().membership;
  for (NodeId n : m.all_replicas()) {
    if (m.group_of(n) == cluster.deployment().ordering_group) {
      EXPECT_EQ(counts[n], 0u) << "orderer " << n << " delivered";
    } else {
      EXPECT_GT(counts[n], 0u) << "replica " << n;
    }
  }
}

TEST(MultiPaxosAmcast, TotalOrderAcrossAllGroups) {
  // Every replica's delivery sequence (restricted to its own messages) is
  // a subsequence of one global order — check pairwise consistency via the
  // checker's acyclicity plus identical order for common messages.
  auto cfg = mp_config(2, 4);
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  Cluster cluster(cfg);
  std::map<NodeId, std::vector<MsgId>> orders;
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    cluster.replica(n).add_observer(
        [&orders](Context& ctx, const MulticastMessage& msg) {
          orders[ctx.self()].push_back(msg.id);
        });
  }
  cluster.start();
  cluster.stop_clients(milliseconds(100));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  // All destination replicas see the identical global sequence.
  const auto& ref = orders[0];
  EXPECT_FALSE(ref.empty());
  for (NodeId n = 1; n < 6; ++n) EXPECT_EQ(orders[n], ref) << "node " << n;
}

TEST(MultiPaxosAmcast, ThreeDeltaLatencyInWan) {
  auto cfg = mp_config(4, 1, Environment::kEmulatedWan);
  cfg.dst_factory = same_dst_for_all(all_groups(4));
  const auto r = run_experiment(cfg);
  ASSERT_GT(r.latency.count(), 10u);
  // submit→leader (~0, co-located) + accept RTT + learn ≈ 1 RTT.
  EXPECT_GT(to_milliseconds(r.latency.median()), 55.0);
  EXPECT_LT(to_milliseconds(r.latency.median()), 90.0);
}

TEST(MultiPaxosAmcast, LatencyIndependentOfDestinationCount) {
  double medians[2];
  int i = 0;
  for (std::size_t k : {1, 4}) {
    auto cfg = mp_config(4, 1, Environment::kEmulatedWan);
    cfg.dst_factory = same_dst_for_all(random_subset(4, k));
    const auto r = run_experiment(cfg);
    medians[i++] = to_milliseconds(r.latency.median());
  }
  EXPECT_NEAR(medians[0], medians[1], 10.0);
}

TEST(MultiPaxosAmcast, OrderingGroupSeesEveryMessageEvenWhenNotAddressed) {
  // The defining non-genuine behaviour: the fixed group works for every
  // message, including ones addressed to a single other group.
  auto cfg = mp_config(2, 2);
  cfg.dst_factory = same_dst_for_all(fixed_group(0));
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(milliseconds(100));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  const auto& m = cluster.deployment().membership;
  for (NodeId n : m.members(cluster.deployment().ordering_group)) {
    auto* mp = dynamic_cast<MultiPaxosAmcast*>(&cluster.replica(n).protocol());
    ASSERT_NE(mp, nullptr);
    EXPECT_GT(mp->ordered_count(), 0u) << "orderer " << n;
  }
}

TEST(MultiPaxosAmcast, OrderingGroupPrunesOnceEveryLearnerAnnounces) {
  // Every replica learns the ordering group's decisions, so its prune floor
  // is the minimum settled frontier over all of them: it advances only
  // because the replicas outside the group announce too.
  auto cfg = mp_config(2, 4);
  cfg.dst_factory = same_dst_for_all(random_subset(2, 1));
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(milliseconds(100));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  const Deployment& d = cluster.deployment();
  for (NodeId n : d.membership.members(d.ordering_group)) {
    paxos::GroupConsensus* engine =
        cluster.replica(n).protocol().consensus_engine();
    const InstanceId frontier = engine->learner().next_to_deliver();
    ASSERT_GT(frontier, 0u) << "orderer " << n;
    EXPECT_EQ(engine->repair().prune_floor(), frontier) << "orderer " << n;
    EXPECT_EQ(engine->acceptor().pruned_below(), frontier) << "orderer " << n;
    EXPECT_EQ(engine->acceptor().accepted_count(), 0u) << "orderer " << n;
  }
}

TEST(MultiPaxosAmcast, DuplicateSubmissionsDeliveredOnce) {
  // Lossy links make the client stub retry submissions; dedup at the
  // leader and at delivery must keep integrity intact.
  auto cfg = mp_config(2, 2);
  cfg.drop_probability = 0.2;
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  cfg.measure = milliseconds(300);
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
}

TEST(MultiPaxosAmcast, ScalesPoorlyVsGenuineForLocalTraffic) {
  // Fig. 3's qualitative claim at miniature scale: with 4 groups of local
  // traffic, genuine BaseCast clearly out-throughputs the fixed ordering
  // group under the same client population.
  double tput[2];
  int i = 0;
  for (Protocol proto : {Protocol::kBaseCast, Protocol::kMultiPaxos}) {
    ExperimentConfig cfg;
    cfg.topo.env = Environment::kLan;
    cfg.topo.groups = 4;
    cfg.topo.clients = 160;
    cfg.topo.protocol = proto;
    cfg.dst_factory = [](std::size_t c) {
      return fixed_group(static_cast<GroupId>(c % 4));
    };
    cfg.warmup = milliseconds(150);
    cfg.measure = milliseconds(400);
    cfg.check_level = Checker::Level::kFast;
    const auto r = run_experiment(cfg);
    EXPECT_TRUE(r.report.ok) << to_string(proto);
    tput[i++] = r.throughput.mean_per_sec;
  }
  EXPECT_GT(tput[0], tput[1] * 1.5) << "genuine should scale out";
}

// ---------------------------------------------------------------------------
// Id-ordering mode: bodies disseminated out-of-band, consensus orders
// compact id records. Ordering safety must be indistinguishable from the
// payload mode; only the wire traffic shape differs.

TEST(MultiPaxosIdOrdering, DeliversWithAllProperties) {
  auto cfg = mp_config(3, 6);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.dst_factory = same_dst_for_all(random_subset(3, 2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.report.delivery_count, 0u);
}

TEST(MultiPaxosIdOrdering, TotalOrderAcrossAllGroups) {
  auto cfg = mp_config(2, 4);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  Cluster cluster(cfg);
  std::map<NodeId, std::vector<MsgId>> orders;
  for (NodeId n : cluster.deployment().membership.all_replicas()) {
    cluster.replica(n).add_observer(
        [&orders](Context& ctx, const MulticastMessage& msg) {
          orders[ctx.self()].push_back(msg.id);
        });
  }
  cluster.start();
  cluster.stop_clients(milliseconds(100));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  const auto& ref = orders[0];
  EXPECT_FALSE(ref.empty());
  for (NodeId n = 1; n < 6; ++n) EXPECT_EQ(orders[n], ref) << "node " << n;
}

TEST(MultiPaxosIdOrdering, BatchAccumulationStillDeliversEverything) {
  // Size/time thresholds hold records back; the flush timer must release
  // partial batches so nothing is stranded when load stops.
  auto cfg = mp_config(2, 8);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.mp_batch_fill = 8;
  cfg.mp_batch_delay = milliseconds(2);
  cfg.observe = true;
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  ASSERT_NE(r.obs, nullptr);
  const auto batches = r.obs->metrics.histograms();
  const auto it = batches.find("multipaxos.batch_records");
  ASSERT_NE(it, batches.end());
  EXPECT_GT(it->second.count, 0u);
}

TEST(MultiPaxosIdOrdering, SurvivesLossyLinksViaBodyPulls) {
  // 20% drop hits MpBody dissemination too: decided id records stall until
  // the pull path (MpBodyRequest against retained copies) or the client
  // stub's re-submission re-supplies the payload. Integrity + order must
  // hold and the run must still complete messages.
  auto cfg = mp_config(2, 2);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.drop_probability = 0.2;
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  cfg.measure = milliseconds(300);
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.report.ok) << r.report.violations[0];
  EXPECT_GT(r.report.delivery_count, 0u);
}

TEST(MultiPaxosIdOrdering, BodyStoresEmptyOnceEveryLearnerSettles) {
  // Every holder (orderers and destination replicas alike) keeps a body
  // only until the ordering group's prune floor passes the instance that
  // ordered it. Once the run is idle every learner has settled everything,
  // so no body is left anywhere.
  auto cfg = mp_config(2, 8);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.dst_factory = same_dst_for_all(all_groups(2));
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(milliseconds(200));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  const auto& m = cluster.deployment().membership;
  for (NodeId n : m.all_replicas()) {
    auto* mp = dynamic_cast<MultiPaxosAmcast*>(&cluster.replica(n).protocol());
    ASSERT_NE(mp, nullptr);
    EXPECT_EQ(mp->stalled_deliveries(), 0u) << "node " << n;
    EXPECT_EQ(mp->body_store_size(), 0u) << "node " << n;
  }
}

TEST(MultiPaxosIdOrdering, DurableOrdererForgetsBodiesBelowThePruneFloor) {
  // The orderer logs every body it stores but delivers none of them. Once
  // the prune floor passes a body's instance its WAL copy must go too, or
  // the durable state (and every snapshot) grows with the run.
  auto cfg = mp_config(2, 16);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.dst_factory = same_dst_for_all(random_subset(2, 1));
  cfg.durability.durable = true;
  Cluster cluster(cfg);
  cluster.start();
  cluster.stop_clients(milliseconds(1500));
  cluster.simulator().run_until(milliseconds(2500));
  ASSERT_GT(cluster.total_sent(), 10000u);
  ASSERT_EQ(cluster.total_in_flight(), 0u);
  const Deployment& d = cluster.deployment();
  for (NodeId n : d.membership.members(d.ordering_group)) {
    const auto& bodies = cluster.storage()->node(n)->state().bodies;
    EXPECT_TRUE(bodies.empty()) << "node " << n << " holds " << bodies.size();
  }
}

TEST(MultiPaxosIdOrdering, RestartKeepsRecordsStillWaitingForTheirBody) {
  // A decided id record waits in the replica's delivery queue until its
  // body arrives. Its instance is not settled yet: a restart must resume
  // at or below it, or the rebuilt replica never delivers the message.
  auto cfg = mp_config(1, 1);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.dst_factory = same_dst_for_all(fixed_group(0));
  cfg.durability.durable = true;
  Cluster cluster(cfg);
  auto& sim = cluster.simulator();
  const Deployment& d = cluster.deployment();
  const NodeId victim = d.membership.members(0)[1];
  const NodeId peer = d.membership.members(0)[0];
  // Every holder of a body (the ordering leader and the other destination
  // replicas) is cut off from the victim; the other two orderers still
  // reach it, so their votes decide the records it cannot deliver.
  std::set<NodeId> holders = {d.membership.members(d.ordering_group)[0]};
  for (NodeId n : d.membership.members(0)) {
    if (n != victim) holders.insert(n);
  }
  const Time cut_at = milliseconds(30);
  const Time crash_at = milliseconds(300);  // several announce ticks later
  const Time heal_at = milliseconds(350);
  sim.set_link_filter([&](NodeId from, NodeId to, Time at) {
    return !(to == victim && holders.contains(from) && at >= cut_at &&
             at < heal_at);
  });
  std::size_t stalled_at_crash = 0;
  sim.schedule_at(crash_at - 1, [&] {
    auto* mp = dynamic_cast<MultiPaxosAmcast*>(&cluster.replica(victim).protocol());
    stalled_at_crash = mp->stalled_deliveries();
  });
  sim.schedule_crash(victim, crash_at);
  sim.schedule_recover(victim, heal_at);
  cluster.start();
  cluster.stop_clients(cut_at + milliseconds(1));  // a few bodies withheld
  sim.run_until(seconds(2));

  ASSERT_GT(stalled_at_crash, 0u);

  auto* rebuilt = dynamic_cast<MultiPaxosAmcast*>(&cluster.replica(victim).protocol());
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rebuilt->stalled_deliveries(), 0u);
  const auto& want = cluster.storage()->node(peer)->state().delivered;
  const auto& got = cluster.storage()->node(victim)->state().delivered;
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(got.size(), want.size());
  for (MsgId mid : want) EXPECT_TRUE(got.contains(mid)) << "missing " << mid;
  const auto report = cluster.checker().check(false, cfg.check_level);
  EXPECT_TRUE(report.ok) << report.violations[0];
}

TEST(MultiPaxosIdOrdering, ReplicaDownForManyMessagesStillPullsEveryBody) {
  // A crashed destination replica freezes the ordering group's prune floor
  // at its last announced settled frontier, so every holder keeps the
  // bodies it will need, however many messages its group receives while it
  // is down. Rebuilt from its WAL, it pulls them all, and once it has
  // caught up the floor moves on and every body store empties.
  auto cfg = mp_config(1, 16);
  cfg.mp_ordering = ExperimentConfig::MpOrdering::kIds;
  cfg.dst_factory = same_dst_for_all(fixed_group(0));
  cfg.durability.durable = true;
  Cluster cluster(cfg);
  auto& sim = cluster.simulator();
  const Deployment& d = cluster.deployment();
  const NodeId victim = d.membership.members(0)[1];
  const NodeId peer = d.membership.members(0)[0];
  const Time crash_at = milliseconds(50);
  const Time stop_at = milliseconds(1000);
  const auto& want = cluster.storage()->node(peer)->state().delivered;
  std::size_t before_crash = 0;
  std::size_t before_recovery = 0;
  sim.schedule_crash(victim, crash_at);
  sim.schedule_at(crash_at + 1, [&] { before_crash = want.size(); });
  sim.schedule_at(stop_at + milliseconds(50), [&] { before_recovery = want.size(); });
  sim.schedule_recover(victim, stop_at + milliseconds(100));
  cluster.start();
  cluster.stop_clients(stop_at);
  // A rebuilt replica requests up to 128 missing bodies per pull tick from
  // its group peers and the ordering leader, so ~9,500 bodies take a few
  // seconds of simulated time.
  sim.run_until(seconds(10));

  ASSERT_GT(before_recovery - before_crash, 8192u);
  const auto& got = cluster.storage()->node(victim)->state().delivered;
  ASSERT_EQ(got.size(), want.size());
  for (MsgId mid : want) EXPECT_TRUE(got.contains(mid)) << "missing " << mid;
  for (NodeId n : d.membership.all_replicas()) {
    auto* mp = dynamic_cast<MultiPaxosAmcast*>(&cluster.replica(n).protocol());
    ASSERT_NE(mp, nullptr);
    EXPECT_EQ(mp->stalled_deliveries(), 0u) << "node " << n;
    EXPECT_EQ(mp->body_store_size(), 0u) << "node " << n;
  }
  const auto report = cluster.checker().check(false, cfg.check_level);
  EXPECT_TRUE(report.ok) << report.violations[0];
}

TEST(MultiPaxosIdOrdering, DurableChaosCampaignStaysSafe) {
  // Real process deaths while bodies ride outside consensus: restarted
  // replicas must restore WAL-logged bodies, replay decided id batches,
  // and pull anything lost in the crash window.
  for (std::uint64_t seed : {2u, 6u}) {
    ChaosRunConfig cfg;
    cfg.seed = seed;
    cfg.experiment.topo.env = Environment::kLan;
    cfg.experiment.topo.groups = 2;
    cfg.experiment.topo.clients = 4;
    cfg.experiment.topo.protocol = Protocol::kMultiPaxos;
    cfg.experiment.mp_ordering = ExperimentConfig::MpOrdering::kIds;
    cfg.experiment.warmup = milliseconds(20);
    cfg.experiment.measure = milliseconds(400);
    cfg.experiment.slice = milliseconds(20);
    cfg.experiment.check_level = Checker::Level::kFull;
    cfg.experiment.dst_factory = same_dst_for_all(random_subset(2, 2));
    cfg.experiment.drop_probability = 0.01;
    cfg.experiment.heartbeats = true;
    cfg.experiment.durability.durable = true;
    cfg.experiment.durability.snapshot_every = 512;
    cfg.faults.crashes = 2;
    cfg.faults.leader_bias = 0.5;
    cfg.faults.min_downtime = milliseconds(40);
    cfg.faults.max_downtime = milliseconds(80);
    const ChaosRunResult result = run_chaos(cfg);
    ASSERT_TRUE(result.report.ok)
        << "seed " << seed << "\n"
        << result.to_string() << "\nschedule:\n"
        << result.schedule.describe();
    EXPECT_GT(result.completions, 0u) << "seed " << seed;
    EXPECT_EQ(result.recoveries, result.crashes);
  }
}

}  // namespace
}  // namespace fastcast::harness
