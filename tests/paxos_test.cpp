// Paxos tests: single-group consensus service — ordered decisions,
// batching, competing proposers, leader change, lossy links, learners.

#include <gtest/gtest.h>

#include <map>

#include "fastcast/common/rng.hpp"
#include "fastcast/paxos/group_consensus.hpp"
#include "fastcast/sim/simulator.hpp"
#include "fastcast/storage/storage.hpp"

namespace fastcast::paxos {
namespace {

using sim::ConstantLatency;
using sim::SimConfig;
using sim::Simulator;

std::vector<std::byte> value_of(int v) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(v));
  return w.take();
}

int value_to_int(const std::vector<std::byte>& bytes) {
  Reader r(bytes);
  return static_cast<int>(r.u32());
}

/// Node hosting one GroupConsensus engine and recording decisions in order.
class ConsensusNode : public Process {
 public:
  ConsensusNode(GroupConsensus::Config cfg, NodeId self) : cons(cfg, self) {
    cons.set_decide([this](InstanceId inst, const std::vector<std::byte>& v) {
      decided.emplace_back(inst, v);
    });
  }

  void on_start(Context& ctx) override {
    cons.on_start(ctx);
    if (start_hook) start_hook(ctx);
  }
  void on_message(Context& ctx, NodeId from, const Message& msg) override {
    cons.handle(ctx, from, msg);
  }

  GroupConsensus cons;
  std::function<void(Context&)> start_hook;
  std::vector<std::pair<InstanceId, std::vector<std::byte>>> decided;
};

struct Fixture {
  explicit Fixture(SimConfig sim_cfg = {}, bool heartbeats = false,
                   std::size_t replicas = 3) {
    std::vector<RegionId> regions(replicas, 0);
    membership.add_group(replicas, regions);
    sim = std::make_unique<Simulator>(
        membership, std::make_unique<ConstantLatency>(milliseconds(1), 0.05),
        sim_cfg);
    cfg.group = 0;
    cfg.members = membership.members(0);
    cfg.reliable_links = sim_cfg.drop_probability == 0.0;
    cfg.retry_interval = milliseconds(15);
    cfg.heartbeats = heartbeats;
    cfg.heartbeat_interval = milliseconds(10);
    cfg.election_timeout = milliseconds(50);
    for (std::size_t i = 0; i < replicas; ++i) {
      nodes.push_back(std::make_shared<ConsensusNode>(cfg, static_cast<NodeId>(i)));
      sim->add_process(static_cast<NodeId>(i), nodes.back());
    }
  }

  /// All (non-crashed) nodes must have identical decision streams.
  void expect_agreement(std::size_t expected_decisions) {
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      if (sim->is_crashed(static_cast<NodeId>(n))) continue;
      ASSERT_GE(nodes[n]->decided.size(), expected_decisions) << "node " << n;
      EXPECT_EQ(nodes[n]->decided, nodes[0]->decided) << "node " << n;
    }
  }

  /// Gives every node a WAL (in-memory backend) and makes recovery rebuild
  /// a crashed node as a new ConsensusNode seeded only from it, as a real
  /// process death would.
  void rebuild_from_storage() {
    storage = std::make_unique<storage::StorageManager>(
        storage::StorageManager::Config{});
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto n = static_cast<NodeId>(i);
      sim->set_node_storage(n, storage->node(n));
    }
    sim->set_crash_hook(
        [this](NodeId n) { storage->node(n)->on_crash(nullptr); });
    sim->set_recovery_factory([this](NodeId n) {
      const storage::DurableState& durable =
          storage->node(n)->reset_and_recover();
      auto fresh = std::make_shared<ConsensusNode>(cfg, n);
      const auto it = durable.groups.find(cfg.group);
      fresh->cons.restore_durable(it == durable.groups.end() ? nullptr
                                                             : &it->second);
      if (on_rebuilt) on_rebuilt(n, *fresh);
      nodes[n] = fresh;
      return fresh;
    });
  }

  /// Runs on every node rebuilt from storage before it starts.
  std::function<void(NodeId, ConsensusNode&)> on_rebuilt;

  Membership membership;
  GroupConsensus::Config cfg;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<storage::StorageManager> storage;
  std::vector<std::shared_ptr<ConsensusNode>> nodes;
};

TEST(GroupConsensus, DecidesProposedValueOnAllMembers) {
  Fixture f;
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    f.nodes[0]->cons.propose(ctx, value_of(42));
  };
  f.sim->start();
  f.sim->run_to_idle();
  f.expect_agreement(1);
  EXPECT_EQ(value_to_int(f.nodes[0]->decided[0].second), 42);
  EXPECT_EQ(f.nodes[0]->decided[0].first, 0u);
}

TEST(GroupConsensus, DecisionsArriveInInstanceOrder) {
  Fixture f;
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    for (int i = 0; i < 100; ++i) f.nodes[0]->cons.propose(ctx, value_of(i));
  };
  f.sim->start();
  f.sim->run_to_idle();
  f.expect_agreement(100);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(f.nodes[0]->decided[i].first, i);
    EXPECT_EQ(value_to_int(f.nodes[0]->decided[i].second), static_cast<int>(i));
  }
}

TEST(GroupConsensus, NonLeaderProposeIsIgnored) {
  Fixture f;
  f.nodes[1]->start_hook = [&f](Context& ctx) {
    f.nodes[1]->cons.propose(ctx, value_of(7));
  };
  f.sim->start();
  f.sim->run_to_idle();
  EXPECT_TRUE(f.nodes[0]->decided.empty());
  EXPECT_FALSE(f.nodes[1]->cons.is_leader(f.sim->context(1)));
}

TEST(GroupConsensus, StableLeaderDecidesInOneRoundTrip) {
  Fixture f;
  Time decided_at = -1;
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    f.nodes[0]->cons.propose(ctx, value_of(1));
  };
  f.sim->start();
  f.sim->run_to_idle();
  ASSERT_FALSE(f.nodes[0]->decided.empty());
  (void)decided_at;
  // Leader learns after P2a (1ms) + P2b (1ms) ≈ 2ms plus jitter.
  // The decision event count is the proxy here; timing is covered by the
  // latency-shape integration tests.
  f.expect_agreement(1);
}

TEST(GroupConsensus, PipelinesUpToWindowAndQueuesBeyond) {
  Fixture f;
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    for (int i = 0; i < 200; ++i) f.nodes[0]->cons.propose(ctx, value_of(i));
    EXPECT_GT(f.nodes[0]->cons.proposer().queued(), 0u);
    EXPECT_EQ(f.nodes[0]->cons.proposer().in_flight(), 32u);
  };
  f.sim->start();
  f.sim->run_to_idle();
  f.expect_agreement(200);
}

TEST(GroupConsensus, SurvivesMessageLoss) {
  SimConfig sim_cfg;
  sim_cfg.drop_probability = 0.25;
  Fixture f(sim_cfg);
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    for (int i = 0; i < 30; ++i) f.nodes[0]->cons.propose(ctx, value_of(i));
  };
  f.sim->start();
  f.sim->run_until(seconds(10));
  f.expect_agreement(30);
}

TEST(GroupConsensus, FollowerCrashDoesNotBlockQuorum) {
  Fixture f;
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    for (int i = 0; i < 10; ++i) f.nodes[0]->cons.propose(ctx, value_of(i));
  };
  f.sim->schedule_crash(2, microseconds(100));
  f.sim->start();
  f.sim->run_to_idle();
  ASSERT_GE(f.nodes[0]->decided.size(), 10u);
  EXPECT_EQ(f.nodes[0]->decided, f.nodes[1]->decided);
}

TEST(GroupConsensus, LeaderCrashTriggersElectionAndRecovery) {
  Fixture f({}, /*heartbeats=*/true);
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    for (int i = 0; i < 5; ++i) f.nodes[0]->cons.propose(ctx, value_of(i));
  };
  // Crash the initial leader shortly after it starts proposing; node 1
  // must take over (epoch 1) and new proposals must succeed.
  f.sim->schedule_crash(0, milliseconds(30));
  ConsensusNode* n1 = f.nodes[1].get();
  f.nodes[1]->start_hook = [n1](Context& ctx) {
    ctx.set_timer(milliseconds(200), [n1, &ctx] {
      n1->cons.propose(ctx, value_of(100));
    });
  };
  f.sim->start();
  f.sim->run_until(seconds(2));
  EXPECT_TRUE(f.nodes[1]->cons.is_leader(f.sim->context(1)));
  // Every decision on 1 and 2 agrees, and 100 eventually decided.
  EXPECT_EQ(f.nodes[1]->decided, f.nodes[2]->decided);
  bool found = false;
  for (auto& [inst, v] : f.nodes[1]->decided) {
    if (!v.empty() && value_to_int(v) == 100) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(GroupConsensus, CompetingProposerSafety) {
  // Force node 1 to run Phase 1 with a higher ballot while node 0 is
  // proposing; decisions must stay identical on all members and every
  // proposed value must be decided at most once.
  Fixture f;
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    for (int i = 0; i < 20; ++i) f.nodes[0]->cons.propose(ctx, value_of(i));
  };
  ConsensusNode* n1 = f.nodes[1].get();
  f.nodes[1]->start_hook = [n1](Context& ctx) {
    ctx.set_timer(microseconds(1500), [n1, &ctx] {
      n1->cons.proposer().start_leadership(ctx, 5,
                                           n1->cons.learner().next_to_deliver());
      n1->cons.proposer().propose(ctx, value_of(1000));
    });
  };
  f.sim->start();
  f.sim->run_until(seconds(5));
  EXPECT_EQ(f.nodes[1]->decided, f.nodes[2]->decided);
  // At most one decision per instance and per non-empty value.
  std::map<int, int> value_counts;
  for (auto& [inst, v] : f.nodes[1]->decided) {
    if (!v.empty()) ++value_counts[value_to_int(v)];
  }
  for (auto& [v, count] : value_counts) {
    EXPECT_EQ(count, 1) << "value " << v << " decided twice";
  }
  EXPECT_EQ(value_counts.count(1000), 1u);
}

TEST(GroupConsensus, FiveReplicaGroupToleratesTwoCrashes) {
  Fixture f({}, false, 5);
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    for (int i = 0; i < 10; ++i) f.nodes[0]->cons.propose(ctx, value_of(i));
  };
  f.sim->schedule_crash(3, microseconds(50));
  f.sim->schedule_crash(4, microseconds(50));
  f.sim->start();
  f.sim->run_to_idle();
  ASSERT_GE(f.nodes[0]->decided.size(), 10u);
  EXPECT_EQ(f.nodes[0]->decided, f.nodes[1]->decided);
  EXPECT_EQ(f.nodes[0]->decided, f.nodes[2]->decided);
}

TEST(Acceptor, NacksLowerBallot) {
  Membership m;
  m.add_group(1, {0});
  Simulator sim(m, std::make_unique<ConstantLatency>(1), {});
  // Drive the acceptor directly through a scripted process.
  class Script : public Process {
   public:
    Acceptor acc{0, {0}};
    std::vector<const char*> log;
    void on_start(Context& ctx) override {
      acc.set_initial_promise(Ballot{5, 0});
      acc.on_p1a(ctx, 0, P1a{0, Ballot{3, 0}, 0});  // lower: nack
      acc.on_p1a(ctx, 0, P1a{0, Ballot{7, 0}, 0});  // higher: promise
      acc.on_p2a(ctx, 0, P2a{0, Ballot{6, 0}, 0, {}});  // below promise: nack
      acc.on_p2a(ctx, 0, P2a{0, Ballot{7, 0}, 0, {}});  // accepted
    }
    void on_message(Context&, NodeId, const Message& msg) override {
      log.push_back(message_kind(msg));
    }
  };
  auto script = std::make_shared<Script>();
  sim.add_process(0, script);
  sim.start();
  sim.run_to_idle();
  ASSERT_EQ(script->log.size(), 4u);
  EXPECT_STREQ(script->log[0], "PaxosNack");
  EXPECT_STREQ(script->log[1], "P1b");
  EXPECT_STREQ(script->log[2], "PaxosNack");
  EXPECT_STREQ(script->log[3], "P2b");
  EXPECT_EQ(script->acc.promised(), (Ballot{7, 0}));
}

TEST(Learner, IgnoresStaleBallotVotesAndDuplicates) {
  Membership m;
  m.add_group(1, {0});
  Simulator sim(m, std::make_unique<ConstantLatency>(1), {});
  class Script : public Process {
   public:
    Learner learner{2};
    std::vector<InstanceId> decided;
    void on_start(Context& ctx) override {
      learner.set_decide([this](InstanceId i, const std::vector<std::byte>&) {
        decided.push_back(i);
      });
      const auto v = value_of(1);
      // Duplicate votes from one acceptor must not count twice.
      learner.on_p2b(ctx, P2b{0, Ballot{2, 0}, 0, /*acceptor=*/1, v});
      learner.on_p2b(ctx, P2b{0, Ballot{2, 0}, 0, 1, v});
      EXPECT_TRUE(decided.empty());
      // A stale lower-ballot vote must not count either. (Round 1, not 0:
      // round 0 is the repair sentinel, which decides outright.)
      learner.on_p2b(ctx, P2b{0, Ballot{1, 0}, 0, 2, v});
      EXPECT_TRUE(decided.empty());
      // Second distinct acceptor at the right ballot decides.
      learner.on_p2b(ctx, P2b{0, Ballot{2, 0}, 0, 2, v});
      EXPECT_EQ(decided.size(), 1u);
    }
    void on_message(Context&, NodeId, const Message&) override {}
  };
  auto script = std::make_shared<Script>();
  sim.add_process(0, script);
  sim.start();
  sim.run_to_idle();
  EXPECT_EQ(script->decided.size(), 1u);
}

TEST(Learner, RepairSentinelVoteDecidesWithoutQuorum) {
  Membership m;
  m.add_group(1, {0});
  Simulator sim(m, std::make_unique<ConstantLatency>(1), {});
  class Script : public Process {
   public:
    Learner learner{2};
    std::vector<int> decided_values;
    void on_start(Context& ctx) override {
      learner.set_decide([this](InstanceId, const std::vector<std::byte>& v) {
        decided_values.push_back(value_to_int(v));
      });
      // One real-ballot vote (quorum = 2, not enough on its own) ...
      learner.on_p2b(ctx, P2b{0, Ballot{3, 1}, 0, 1, value_of(7)});
      EXPECT_TRUE(decided_values.empty());
      // ... then a catch-up replay of the same instance from an acceptor
      // that learned it via repair (sentinel ballot). Were it counted as a
      // vote it would split the quorum across ballots and stall; instead
      // the value is decided by construction and decides immediately.
      learner.on_p2b(ctx, P2b{0, Ballot{}, 0, 2, value_of(7)});
      EXPECT_EQ(decided_values, (std::vector<int>{7}));
      // Later real votes for the now-decided instance are no-ops.
      learner.on_p2b(ctx, P2b{0, Ballot{3, 1}, 0, 0, value_of(7)});
      EXPECT_EQ(decided_values.size(), 1u);
    }
    void on_message(Context&, NodeId, const Message&) override {}
  };
  auto script = std::make_shared<Script>();
  sim.add_process(0, script);
  sim.start();
  sim.run_to_idle();
  EXPECT_EQ(script->decided_values, (std::vector<int>{7}));
}

TEST(Learner, HigherBallotVotesSupersedeLower) {
  Membership m;
  m.add_group(1, {0});
  Simulator sim(m, std::make_unique<ConstantLatency>(1), {});
  class Script : public Process {
   public:
    Learner learner{2};
    std::vector<int> decided_values;
    void on_start(Context& ctx) override {
      learner.set_decide([this](InstanceId, const std::vector<std::byte>& v) {
        decided_values.push_back(value_to_int(v));
      });
      learner.on_p2b(ctx, P2b{0, Ballot{1, 0}, 0, 1, value_of(10)});
      // Ballot 2 votes arrive; the ballot-1 vote must be discarded.
      learner.on_p2b(ctx, P2b{0, Ballot{2, 1}, 0, 2, value_of(20)});
      EXPECT_TRUE(decided_values.empty());
      learner.on_p2b(ctx, P2b{0, Ballot{2, 1}, 0, 0, value_of(20)});
      EXPECT_EQ(decided_values, (std::vector<int>{20}));
    }
    void on_message(Context&, NodeId, const Message&) override {}
  };
  auto script = std::make_shared<Script>();
  sim.add_process(0, script);
  sim.start();
  sim.run_to_idle();
}

TEST(LeaderElector, StaticModeNeverChanges) {
  Fixture f;
  f.sim->start();
  f.sim->run_until(seconds(2));
  for (auto& node : f.nodes) {
    EXPECT_EQ(node->cons.leader(), 0u);
    EXPECT_EQ(node->cons.elector().epoch(), 0u);
  }
}

TEST(LeaderElector, HeartbeatsKeepStableLeaderInPlace) {
  Fixture f({}, /*heartbeats=*/true);
  f.sim->start();
  f.sim->run_until(seconds(2));
  for (auto& node : f.nodes) {
    EXPECT_EQ(node->cons.leader(), 0u) << "spurious election";
  }
}

TEST(LeaderElector, CrashedLeaderIsReplacedByNextMember) {
  Fixture f({}, /*heartbeats=*/true);
  f.sim->schedule_crash(0, milliseconds(40));
  f.sim->start();
  f.sim->run_until(seconds(1));
  EXPECT_EQ(f.nodes[1]->cons.leader(), 1u);
  EXPECT_EQ(f.nodes[2]->cons.leader(), 1u);
  EXPECT_GE(f.nodes[1]->cons.elector().epoch(), 1u);
}

TEST(LeaderElector, SuccessiveCrashesRotateLeadership) {
  Fixture f({}, /*heartbeats=*/true, /*replicas=*/5);
  f.sim->schedule_crash(0, milliseconds(40));
  f.sim->schedule_crash(1, milliseconds(400));
  f.sim->start();
  f.sim->run_until(seconds(2));
  EXPECT_EQ(f.nodes[2]->cons.leader(), 2u);
  EXPECT_EQ(f.nodes[3]->cons.leader(), 2u);
  EXPECT_EQ(f.nodes[4]->cons.leader(), 2u);
}

TEST(LeaderElector, RePromotionDoesNotDuplicateHeartbeatChain) {
  // Regression: advance_epoch used to call arm_heartbeat unconditionally,
  // so a node that was demoted and re-promoted while its original chain
  // callback was still pending ended up with TWO self-rescheduling chains,
  // doubling heartbeat traffic forever. Script a demote (epoch 1, leader 1)
  // and a re-promote (epoch 3, leader 0 again) before the first chain
  // callback fires, then count node 0's heartbeats.
  class ElectorHost : public Process {
   public:
    explicit ElectorHost(LeaderElector::Config cfg) : elector(std::move(cfg)) {}
    void on_start(Context& ctx) override { elector.on_start(ctx); }
    void on_message(Context& ctx, NodeId from, const Message& msg) override {
      elector.handle(ctx, from, msg);
    }
    LeaderElector elector;
  };

  Membership m;
  m.add_group(3, {0, 0, 0});
  Simulator sim(m, std::make_unique<ConstantLatency>(milliseconds(1)), {});
  LeaderElector::Config cfg;
  cfg.group = 0;
  cfg.members = m.members(0);
  cfg.heartbeats = true;
  cfg.heartbeat_interval = milliseconds(20);
  cfg.timeout = seconds(10);  // monitor never advances epochs in this run
  auto host = std::make_shared<ElectorHost>(cfg);
  sim.add_process(0, host);

  class Script : public Process {
   public:
    void on_start(Context& ctx) override {
      // Demote node 0 (epoch 1 -> leader 1), then re-promote it (epoch 3 ->
      // leader 0), both before its first chain callback at 20ms.
      ctx.set_timer(milliseconds(5), [&ctx] {
        ctx.send(0, Message{FdHeartbeat{0, 1, 1}});
      });
      ctx.set_timer(milliseconds(10), [&ctx] {
        ctx.send(0, Message{FdHeartbeat{0, 2, 3}});
      });
    }
    void on_message(Context&, NodeId, const Message&) override {}
  };
  sim.add_process(1, std::make_shared<Script>());
  class Sink : public Process {
    void on_message(Context&, NodeId, const Message&) override {}
  };
  sim.add_process(2, std::make_shared<Sink>());

  std::size_t hb_sends = 0;
  sim.set_send_observer([&](NodeId from, NodeId, const Message& msg) {
    if (from == 0 && std::holds_alternative<FdHeartbeat>(msg.payload)) {
      ++hb_sends;
    }
  });
  sim.start();
  sim.run_until(milliseconds(400));

  EXPECT_EQ(host->elector.epoch(), 3u);
  EXPECT_EQ(host->elector.leader(), 0u);
  // One chain firing every 20ms over ~400ms, 2 peers per fire ≈ 40 sends.
  // The duplicate-chain bug produced roughly double.
  EXPECT_GE(hb_sends, 30u);
  EXPECT_LE(hb_sends, 48u) << "duplicate heartbeat chain";
}

TEST(GroupConsensus, CrashedFollowerRecoversAndCatchesUp) {
  SimConfig sim_cfg;
  sim_cfg.drop_probability = 0.05;  // lossy: retry + catch-up machinery on
  Fixture f(sim_cfg);
  f.rebuild_from_storage();
  ConsensusNode* n0 = f.nodes[0].get();  // raw: a shared_ptr capture in the
  // node's own start_hook would be a refcount cycle (the fixture owns it)
  f.nodes[0]->start_hook = [n0](Context& ctx) {
    for (int i = 0; i < 10; ++i) n0->cons.propose(ctx, value_of(i));
    // Second batch lands after node 2 recovers.
    ctx.set_timer(milliseconds(300), [n0, &ctx] {
      for (int i = 10; i < 20; ++i) n0->cons.propose(ctx, value_of(i));
    });
  };
  f.sim->schedule_crash(2, milliseconds(20));
  f.sim->schedule_recover(2, milliseconds(200));
  f.sim->start();
  f.sim->run_until(seconds(10));
  // The recovered follower must learn the decisions it slept through (via
  // the P2bRequest catch-up poll) as well as the post-recovery batch.
  f.expect_agreement(20);
}

TEST(GroupConsensus, RecoveredLeaderRejoinsAsFollower) {
  SimConfig sim_cfg;
  sim_cfg.drop_probability = 0.05;
  Fixture f(sim_cfg, /*heartbeats=*/true);
  f.rebuild_from_storage();
  ConsensusNode* n0 = f.nodes[0].get();
  ConsensusNode* n1 = f.nodes[1].get();
  f.nodes[0]->start_hook = [n0](Context& ctx) {
    for (int i = 0; i < 5; ++i) n0->cons.propose(ctx, value_of(i));
  };
  f.nodes[1]->start_hook = [n1](Context& ctx) {
    // Proposed after node 0 is back: node 1 should still be leader then.
    ctx.set_timer(milliseconds(600), [n1, &ctx] {
      n1->cons.propose(ctx, value_of(100));
    });
  };
  f.sim->schedule_crash(0, milliseconds(40));
  f.sim->schedule_recover(0, milliseconds(400));
  f.sim->start();
  f.sim->run_until(seconds(5));
  // The old leader wakes up believing epoch 0; node 1's heartbeats must
  // demote it and all three must converge on the same leader and log.
  EXPECT_EQ(f.nodes[0]->cons.leader(), f.nodes[1]->cons.leader());
  EXPECT_EQ(f.nodes[2]->cons.leader(), f.nodes[1]->cons.leader());
  EXPECT_GE(f.nodes[1]->cons.elector().epoch(), 1u);
  f.expect_agreement(6);
  bool found = false;
  for (auto& [inst, v] : f.nodes[0]->decided) {
    if (!v.empty() && value_to_int(v) == 100) found = true;
  }
  EXPECT_TRUE(found) << "post-recovery proposal not decided on recovered node";
}

/// Proposes one value per ms, valued by the ms, until `until`.
void propose_each_ms(ConsensusNode* n, Context& ctx, Time until) {
  ctx.set_timer(milliseconds(1), [n, &ctx, until] {
    if (ctx.now() > until) return;
    n->cons.propose(ctx, value_of(static_cast<int>(ctx.now() / milliseconds(1))));
    propose_each_ms(n, ctx, until);
  });
}

TEST(GroupConsensus, LaggingLearnerCatchesUpAfterEveryServerRestarted) {
  // Node 2 is down while the others decide ~320 instances, and both of
  // them restart before it returns. Transfers read a member's acceptor,
  // which its WAL rebuilds, so they still serve the whole gap; catch-up
  // polls hold off while a transfer runs, so nothing else would.
  Fixture f;  // reliable links: catch-up only polls after a restart
  f.rebuild_from_storage();
  f.cfg.retry_interval = milliseconds(60);  // what rebuilt nodes run
  const Time until = milliseconds(540);
  f.nodes[0]->start_hook = [n0 = f.nodes[0].get(), until](Context& ctx) {
    propose_each_ms(n0, ctx, until);
  };
  f.on_rebuilt = [until](NodeId id, ConsensusNode& node) {
    if (id != 0) return;
    node.start_hook = [n = &node, until](Context& ctx) {
      propose_each_ms(n, ctx, until);
    };
  };
  f.sim->schedule_crash(2, milliseconds(20));
  f.sim->schedule_crash(1, milliseconds(200));
  f.sim->schedule_recover(1, milliseconds(250));
  f.sim->schedule_crash(0, milliseconds(400));
  f.sim->schedule_recover(0, milliseconds(450));
  f.sim->schedule_recover(2, milliseconds(650));
  f.sim->start();
  f.sim->run_until(seconds(20));

  const InstanceId frontier = f.nodes[0]->cons.learner().next_to_deliver();
  EXPECT_GT(frontier, InstanceId{300});
  EXPECT_EQ(f.nodes[1]->cons.learner().next_to_deliver(), frontier);
  EXPECT_EQ(f.nodes[2]->cons.learner().next_to_deliver(), frontier);
  // Every node restarted, so each stream starts at its own settled
  // frontier; where two streams overlap they agree.
  std::map<InstanceId, std::vector<std::byte>> decided;
  for (const auto& node : f.nodes) {
    for (const auto& [inst, value] : node->decided) {
      const auto [it, fresh] = decided.try_emplace(inst, value);
      EXPECT_EQ(it->second, value) << "instance " << inst;
    }
  }
}

TEST(GroupConsensus, DecisionAlignsTheAcceptorWithTheDecidedValue) {
  // Node 2 accepts v at the stable leader's ballot (1, 0); nodes 0 and 1
  // then decide w at ballot (2, 1). Node 2's decision replaces its vote
  // with w at the round-0 sentinel, which a stale P2a cannot undo, which
  // it serves in transfers, and which its WAL rebuilds.
  Fixture f;
  f.rebuild_from_storage();
  Rng torn(7);
  f.sim->set_crash_hook([&f, &torn](NodeId n) { f.storage->node(n)->on_crash(&torn); });
  const std::vector<std::byte> v = value_of(1);
  const std::vector<std::byte> w = value_of(2);
  // Node 0 must not decide: its settled frontier then stays 0, so nothing
  // is pruned and instance 0 stays servable.
  f.sim->set_link_filter([](NodeId, NodeId to, Time) { return to != 0; });
  std::vector<RepairSnapshot> served;
  f.sim->set_send_observer([&served](NodeId from, NodeId to, const Message& msg) {
    if (from != 2 || to != 1) return;
    if (const auto* snap = std::get_if<RepairSnapshot>(&msg.payload)) {
      served.push_back(*snap);
    }
  });
  auto p2a = [](Ballot b, const std::vector<std::byte>& value) {
    return Message{P2a{0, b, 0, value}};
  };
  ConsensusNode* n0 = f.nodes[0].get();
  ConsensusNode* n1 = f.nodes[1].get();
  ConsensusNode* n2 = f.nodes[2].get();
  n2->start_hook = [n2, v, p2a](Context& ctx) {
    n2->cons.handle(ctx, 0, p2a(Ballot{1, 0}, v));
    // A late copy of the stale P2a, after the decision.
    ctx.set_timer(milliseconds(55), [n2, v, p2a, &ctx] {
      n2->cons.handle(ctx, 0, p2a(Ballot{1, 0}, v));
    });
  };
  n0->start_hook = [n0, w, p2a](Context& ctx) {
    ctx.set_timer(milliseconds(5), [n0, w, p2a, &ctx] {
      n0->cons.handle(ctx, 1, p2a(Ballot{2, 1}, w));
    });
  };
  n1->start_hook = [n1, w, p2a](Context& ctx) {
    ctx.set_timer(milliseconds(5), [n1, w, p2a, &ctx] {
      n1->cons.handle(ctx, 1, p2a(Ballot{2, 1}, w));
    });
    // Two requests for instance 0, before and after node 2's restart.
    for (const Time at : {milliseconds(60), milliseconds(200)}) {
      ctx.set_timer(at, [&ctx] { ctx.send(2, Message{RepairRequest{0, 0}}); });
    }
  };
  f.sim->start();
  f.sim->run_until(milliseconds(50));
  ASSERT_EQ(f.nodes[2]->decided.size(), 1u);
  EXPECT_EQ(f.nodes[2]->decided[0].second, w);
  auto held = [&f] { return f.nodes[2]->cons.acceptor().accepted().at(0); };
  EXPECT_EQ(held().value, w);
  EXPECT_EQ(held().ballot, Ballot{});

  f.sim->run_until(milliseconds(100));
  EXPECT_EQ(held().value, w);  // the stale P2a was ignored
  ASSERT_EQ(served.size(), 1u);
  std::vector<repair::RepairEntry> entries;
  ASSERT_TRUE(repair::decode_repair_entries(served[0].payload, entries));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].value, w);

  f.sim->crash(2);
  f.sim->recover(2);
  EXPECT_EQ(held().value, w);
  f.sim->run_until(milliseconds(300));
  ASSERT_EQ(served.size(), 2u);
  entries.clear();
  ASSERT_TRUE(repair::decode_repair_entries(served[1].payload, entries));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].value, w);
}

TEST(GroupConsensus, LearnerCatchUpFillsTailGapUnderLoss) {
  // With 30% loss, a follower can miss every P2b of the final instances;
  // the P2bRequest poll must close the gap without new proposals.
  SimConfig sim_cfg;
  sim_cfg.drop_probability = 0.3;
  Fixture f(sim_cfg);
  f.nodes[0]->start_hook = [&f](Context& ctx) {
    for (int i = 0; i < 10; ++i) f.nodes[0]->cons.propose(ctx, value_of(i));
  };
  f.sim->start();
  f.sim->run_until(seconds(15));
  for (auto& node : f.nodes) {
    EXPECT_GE(node->decided.size(), 10u);
  }
}

TEST(Learner, HoldsGapsUntilFilled) {
  Membership m;
  m.add_group(1, {0});
  Simulator sim(m, std::make_unique<ConstantLatency>(1), {});
  class Script : public Process {
   public:
    Learner learner{1};
    std::vector<InstanceId> decided;
    void on_start(Context& ctx) override {
      learner.set_decide([this](InstanceId i, const std::vector<std::byte>&) {
        decided.push_back(i);
      });
      learner.on_p2b(ctx, P2b{0, Ballot{1, 0}, 2, 0, value_of(2)});
      learner.on_p2b(ctx, P2b{0, Ballot{1, 0}, 1, 0, value_of(1)});
      EXPECT_TRUE(decided.empty());  // instance 0 missing
      learner.on_p2b(ctx, P2b{0, Ballot{1, 0}, 0, 0, value_of(0)});
      EXPECT_EQ(decided, (std::vector<InstanceId>{0, 1, 2}));
    }
    void on_message(Context&, NodeId, const Message&) override {}
  };
  auto script = std::make_shared<Script>();
  sim.add_process(0, script);
  sim.start();
  sim.run_to_idle();
}

}  // namespace
}  // namespace fastcast::paxos
