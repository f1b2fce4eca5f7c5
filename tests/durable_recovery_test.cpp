// Disk-backed crash recovery, end to end: chaos campaigns where every
// crash is a real process death (fresh protocol objects rebuilt from
// snapshot + WAL replay, unsynced bytes torn away), checked against the
// atomic-multicast safety properties AND the storage no-regression
// contract (nothing an acceptor externalized may be forgotten). Plus the
// TcpCluster variant: kill a node's thread, rebuild it from its on-disk
// WAL directory, and watch it rejoin.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <system_error>
#include <thread>

#include "fastcast/harness/chaos.hpp"
#include "fastcast/net/tcp_cluster.hpp"

namespace fastcast::harness {
namespace {

ChaosRunConfig durable_campaign_config(Protocol proto, std::uint64_t seed,
                                       storage::FsyncPolicy fsync) {
  ChaosRunConfig cfg;
  cfg.seed = seed;
  cfg.experiment.topo.env = Environment::kLan;
  cfg.experiment.topo.groups = 2;
  cfg.experiment.topo.clients = 4;
  cfg.experiment.topo.protocol = proto;
  cfg.experiment.warmup = milliseconds(20);
  cfg.experiment.measure = milliseconds(400);
  cfg.experiment.slice = milliseconds(20);
  cfg.experiment.check_level = Checker::Level::kFull;
  cfg.experiment.dst_factory = same_dst_for_all(random_subset(2, 2));
  cfg.experiment.drop_probability = 0.01;
  cfg.experiment.heartbeats = true;

  cfg.experiment.durability.durable = true;
  cfg.experiment.durability.fsync = fsync;
  cfg.experiment.durability.snapshot_every = 512;

  cfg.faults.crashes = 2;
  cfg.faults.leader_bias = 0.5;
  cfg.faults.min_downtime = milliseconds(40);
  cfg.faults.max_downtime = milliseconds(80);
  cfg.faults.drop_bursts = 1;
  cfg.faults.burst_drop_probability = 0.05;
  cfg.faults.min_burst = milliseconds(20);
  cfg.faults.max_burst = milliseconds(50);
  cfg.faults.partitions = 1;
  cfg.faults.min_partition = milliseconds(20);
  cfg.faults.max_partition = milliseconds(60);
  return cfg;
}

class DurableChaosCampaign : public ::testing::TestWithParam<Protocol> {};

TEST_P(DurableChaosCampaign, SafetyAndNoRegressionAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto cfg = durable_campaign_config(GetParam(), seed,
                                             storage::FsyncPolicy{});
    const ChaosRunResult result = run_chaos(cfg);
    ASSERT_TRUE(result.report.ok)
        << to_string(GetParam()) << " seed " << seed << "\n"
        << result.to_string() << "\nschedule:\n"
        << result.schedule.describe();
    EXPECT_GT(result.completions, 0u)
        << to_string(GetParam()) << " seed " << seed << " made no progress";
    // Every scheduled crash was a real process death and recovered.
    EXPECT_EQ(result.recoveries, result.crashes);
    // The wire-level acceptor floors were actually checked against the
    // re-read durable state (the campaign's whole point).
    EXPECT_GT(result.durability_checks, 0u)
        << to_string(GetParam()) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, DurableChaosCampaign,
    ::testing::Values(Protocol::kBaseCast, Protocol::kFastCast,
                      Protocol::kMultiPaxos),
    [](const ::testing::TestParamInfo<Protocol>& info) -> std::string {
      switch (info.param) {
        case Protocol::kBaseCast: return "BaseCast";
        case Protocol::kFastCast: return "FastCast";
        case Protocol::kMultiPaxos: return "MultiPaxos";
        default: return "Other";
      }
    });

TEST(DurableChaos, BatchPolicySurvivesCrashes) {
  storage::FsyncPolicy batch;
  batch.mode = storage::FsyncPolicy::Mode::kBatch;
  batch.batch_records = 8;
  batch.batch_interval = milliseconds(2);
  for (std::uint64_t seed : {3u, 7u, 11u}) {
    const auto cfg =
        durable_campaign_config(Protocol::kFastCast, seed, batch);
    const ChaosRunResult result = run_chaos(cfg);
    ASSERT_TRUE(result.report.ok)
        << "seed " << seed << "\n"
        << result.to_string() << "\nschedule:\n"
        << result.schedule.describe();
    EXPECT_GT(result.completions, 0u);
    EXPECT_GT(result.durability_checks, 0u);
  }
}

TEST(DurableChaos, RunsAreDeterministic) {
  const auto cfg = durable_campaign_config(Protocol::kFastCast, 5,
                                           storage::FsyncPolicy{});
  const ChaosRunResult a = run_chaos(cfg);
  const ChaosRunResult b = run_chaos(cfg);
  EXPECT_EQ(a.report.ok, b.report.ok);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.replayed_records, b.replayed_records);
  EXPECT_EQ(a.storage_snapshots, b.storage_snapshots);
  EXPECT_EQ(a.durability_checks, b.durability_checks);
}

TEST(DurableChaos, SnapshotsTruncateTheLogMidCampaign) {
  // Aggressive snapshot cadence: the run must take snapshots and still
  // satisfy safety + no-regression (recovery = snapshot + short suffix).
  auto cfg = durable_campaign_config(Protocol::kFastCast, 9,
                                     storage::FsyncPolicy{});
  cfg.experiment.durability.snapshot_every = 64;
  const ChaosRunResult result = run_chaos(cfg);
  ASSERT_TRUE(result.report.ok) << result.to_string();
  EXPECT_GT(result.storage_snapshots, 0u);
  EXPECT_GT(result.durability_checks, 0u);
}

TEST(DurableCluster, RecoveryRebuildsTheReplicaFromItsWal) {
  // The caller installs no recovery factory: a durable Cluster rebuilds a
  // recovered replica from its snapshot + WAL by itself.
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 2;
  cfg.topo.clients = 4;
  cfg.topo.protocol = Protocol::kFastCast;
  cfg.dst_factory = same_dst_for_all(random_subset(2, 2));
  cfg.check_level = Checker::Level::kFull;
  cfg.drop_probability = 0.01;  // retransmission covers the downtime
  cfg.durability.durable = true;
  Cluster cluster(cfg);
  // The rebuilt stack is allocated while the old one is still alive, so a
  // rebuilt replica never reuses this address.
  const ReplicaNode* before = &cluster.replica(1);
  cluster.simulator().schedule_crash(1, milliseconds(50));
  cluster.simulator().schedule_recover(1, milliseconds(150));
  cluster.start();
  cluster.stop_clients(milliseconds(310));
  cluster.simulator().run_until(seconds(2));

  EXPECT_NE(&cluster.replica(1), before);
  EXPECT_GT(cluster.replica(1).delivered_count(), 0u);
  const auto report = cluster.checker().check(false, cfg.check_level);
  EXPECT_TRUE(report.ok) << report.violations[0];
}

}  // namespace
}  // namespace fastcast::harness

namespace fastcast::net {
namespace {

/// Kill a TCP node's thread mid-traffic, then restart it as a genuinely
/// fresh process image: new protocol objects seeded only from the node's
/// on-disk WAL directory. The cluster must lose no client message (the
/// acceptance bar for the transport retry queues + cluster recovery) and
/// the restarted node must demonstrably have read its state back from disk.
TEST(TcpClusterDurable, RestartsFromDiskAndRejoins) {
  char tmpl[] = "./fc_durable_XXXXXX";
  char* wal_dir = ::mkdtemp(tmpl);
  ASSERT_NE(wal_dir, nullptr);

  Membership membership;
  membership.add_group(3, {0, 0, 0});
  membership.add_group(3, {0, 0, 0});
  const NodeId client_node = membership.add_client(0);
  const NodeId victim = 4;  // follower of group 1

  storage::StorageManager::Config sc;
  sc.wal_dir = wal_dir;
  storage::StorageManager storage(std::move(sc));

  TcpCluster::Config cfg;
  cfg.membership = membership;
  cfg.base_port = static_cast<std::uint16_t>(28000 + (::getpid() % 2000));
  cfg.storage = &storage;
  TcpCluster cluster(std::move(cfg));

  std::mutex mu;
  Checker checker(&membership);
  std::atomic<int> completions{0};

  const auto make_protocol = [&membership](NodeId n) {
    const GroupId g = membership.group_of(n);
    TimestampProtocolBase::Config pc;
    pc.group = g;
    pc.consensus.group = g;
    pc.consensus.members = membership.members(g);
    pc.consensus.reliable_links = false;
    return std::make_shared<FastCast>(pc, n);
  };
  // Restart re-externalizes in-doubt deliveries at-least-once; the
  // application dedups by id (shared across the victim's two lives).
  std::map<NodeId, std::set<MsgId>> seen;
  const auto make_node = [&mu, &checker,
                          &seen](std::shared_ptr<AtomicMulticast> p) {
    auto node = std::make_shared<ReplicaNode>(std::move(p));
    node->add_observer(
        [&mu, &checker, &seen](Context& ctx, const MulticastMessage& m) {
          std::lock_guard<std::mutex> lock(mu);
          if (!seen[ctx.self()].insert(m.id).second) return;
          checker.note_delivery(ctx.self(), m.id);
        });
    return node;
  };

  for (NodeId n : membership.all_replicas()) {
    cluster.add_process(n, make_node(make_protocol(n)));
  }

  class PacedClient : public Process {
   public:
    PacedClient(std::mutex* mu, Checker* checker, std::atomic<int>* completions)
        : mu_(mu), checker_(checker), completions_(completions) {}
    void on_start(Context& ctx) override {
      stub_.on_start(ctx);
      send_next(ctx);
    }
    void on_message(Context& ctx, NodeId from, const Message& msg) override {
      if (const auto* ack = std::get_if<AmAck>(&msg.payload)) {
        if (ack->mid == outstanding_) {
          completions_->fetch_add(1);
          outstanding_ = 0;
          if (next_seq_ < 30) {
            ctx.set_timer(milliseconds(5), [this, &ctx] { send_next(ctx); });
          }
        }
        return;
      }
      stub_.handle(ctx, from, msg);
    }

   private:
    void send_next(Context& ctx) {
      MulticastMessage m;
      m.id = make_msg_id(ctx.self(), next_seq_++);
      m.sender = ctx.self();
      m.dst = {0, 1};
      m.payload = "post";
      outstanding_ = m.id;
      {
        std::lock_guard<std::mutex> lock(*mu_);
        checker_->note_multicast(m);
      }
      stub_.amulticast(ctx, m);
    }
    GenuineClientStub stub_;
    std::mutex* mu_;
    Checker* checker_;
    std::atomic<int>* completions_;
    std::uint32_t next_seq_ = 0;
    MsgId outstanding_ = 0;
  };
  cluster.add_process(
      client_node, std::make_shared<PacedClient>(&mu, &checker, &completions));

  cluster.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool killed = false;
  bool restarted = false;
  while (completions.load() < 30 && std::chrono::steady_clock::now() < deadline) {
    if (!killed && completions.load() >= 8) {
      cluster.stop_node(victim);
      killed = true;
    }
    if (killed && !restarted && completions.load() >= 18) {
      // Real process death: the retained objects are discarded; the fresh
      // stack is seeded exclusively from the WAL directory on disk.
      storage::NodeStorage* st = storage.node(victim);
      const storage::DurableState& durable = st->reset_and_recover();
      EXPECT_FALSE(durable.delivered.empty())
          << "the victim delivered messages before the kill; its WAL must "
             "remember them";
      auto protocol = make_protocol(victim);
      protocol->restore_durable(durable);
      cluster.restart_node(victim, make_node(std::move(protocol)));
      restarted = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster.stop();

  EXPECT_TRUE(killed);
  EXPECT_TRUE(restarted);
  EXPECT_EQ(completions.load(), 30);
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto report = checker.check(/*quiesced=*/false, Checker::Level::kFull);
    EXPECT_TRUE(report.ok)
        << (report.violations.empty() ? "" : report.violations[0]);
  }

  std::error_code ec;  // best effort: a leftover dir fails no test
  std::filesystem::remove_all(wal_dir, ec);
}

}  // namespace
}  // namespace fastcast::net
