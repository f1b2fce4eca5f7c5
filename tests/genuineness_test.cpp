// Genuineness and message-minimality tests — the paper's defining
// properties of an efficient atomic multicast (§2.3 / related work [24]).
//
// Genuine (Guerraoui & Schiper): in any run, a process sends or receives
// messages only if it is the sender or a member of a destination group of
// some multicast message. We drive workloads whose destination sets never
// include certain groups and assert — by observing every unicast in the
// simulator — that those groups' replicas stay completely silent under
// BaseCast/FastCast, and provably do NOT under the MultiPaxos comparator.
//
// Message-minimality (Rodrigues et al.): protocol messages have size
// proportional to the number of destination *groups*, not to the total
// number of processes in the system.

#include <gtest/gtest.h>

#include <set>

#include "fastcast/harness/experiment.hpp"

namespace fastcast::harness {
namespace {

struct Traffic {
  std::set<NodeId> senders;
  std::set<NodeId> receivers;
  std::uint64_t total = 0;
};

/// Runs `proto` with 4 groups where every message targets groups {0, 1}
/// only, and records which nodes touch the network.
Traffic observe_traffic(Protocol proto) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 4;
  cfg.topo.clients = 2;
  cfg.topo.protocol = proto;
  cfg.warmup = milliseconds(5);
  cfg.measure = milliseconds(100);
  cfg.check_level = Checker::Level::kFull;
  cfg.dst_factory = same_dst_for_all(
      [](Rng&) { return std::vector<GroupId>{0, 1}; });

  Cluster cluster(cfg);
  Traffic traffic;
  cluster.simulator().set_send_observer(
      [&traffic](NodeId from, NodeId to, const Message&) {
        traffic.senders.insert(from);
        traffic.receivers.insert(to);
        ++traffic.total;
      });
  cluster.start();
  cluster.stop_clients(milliseconds(105));
  EXPECT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  EXPECT_TRUE(cluster.checker().check(true).ok);
  EXPECT_GT(cluster.metrics().completions_total(), 0u);
  return traffic;
}

TEST(Genuineness, TimestampProtocolsKeepUninvolvedGroupsSilent) {
  for (Protocol proto : {Protocol::kBaseCast, Protocol::kFastCast}) {
    const Traffic traffic = observe_traffic(proto);
    // Groups 2 and 3 (nodes 6..11) are never addressed: genuine protocols
    // must not involve them in any way.
    for (NodeId n = 6; n <= 11; ++n) {
      EXPECT_FALSE(traffic.senders.contains(n))
          << to_string(proto) << ": uninvolved node " << n << " sent";
      EXPECT_FALSE(traffic.receivers.contains(n))
          << to_string(proto) << ": uninvolved node " << n << " received";
    }
    // The involved groups obviously do communicate.
    EXPECT_TRUE(traffic.senders.contains(0));
    EXPECT_TRUE(traffic.senders.contains(3));
  }
}

TEST(Genuineness, MultiPaxosComparatorIsNotGenuine) {
  const Traffic traffic = observe_traffic(Protocol::kMultiPaxos);
  // The fixed ordering group (nodes 12..14, the extra group) orders every
  // message, and all replicas — including never-addressed groups 2 and 3 —
  // learn every decision: the defining non-genuine behaviour.
  bool uninvolved_touched = false;
  for (NodeId n = 6; n <= 11; ++n) {
    if (traffic.receivers.contains(n)) uninvolved_touched = true;
  }
  EXPECT_TRUE(uninvolved_touched)
      << "MultiPaxos unexpectedly behaved genuinely";
  EXPECT_TRUE(traffic.senders.contains(12));  // ordering group works
}

TEST(Genuineness, LocalTrafficStaysWithinItsGroup) {
  ExperimentConfig cfg;
  cfg.topo.env = Environment::kLan;
  cfg.topo.groups = 3;
  cfg.topo.clients = 1;
  cfg.topo.protocol = Protocol::kFastCast;
  cfg.warmup = milliseconds(5);
  cfg.measure = milliseconds(100);
  cfg.dst_factory = same_dst_for_all(fixed_group(1));
  Cluster cluster(cfg);
  std::set<NodeId> touched;
  cluster.simulator().set_send_observer(
      [&touched](NodeId from, NodeId to, const Message&) {
        touched.insert(from);
        touched.insert(to);
      });
  cluster.start();
  cluster.stop_clients(milliseconds(105));
  ASSERT_TRUE(cluster.simulator().run_to_idle(seconds(30)));
  // Only group 1 (nodes 3..5) and the client (node 9) may appear.
  for (NodeId n : touched) {
    EXPECT_TRUE((n >= 3 && n <= 5) || n == 9) << "node " << n << " involved";
  }
}

TEST(MessageMinimality, WireSizeGrowsWithGroupsNotProcesses) {
  // SEND-SOFT/SEND-HARD for k destination groups must not grow with the
  // number of processes per group beyond the 3-replicas-per-group factor
  // the rmcast envelope carries (size ∝ k, never ∝ |Π|).
  auto encoded_size = [](std::size_t k_groups) {
    std::vector<GroupId> dst(k_groups);
    std::vector<NodeId> dest_nodes(3 * k_groups);
    std::vector<std::uint64_t> dest_seqs(3 * k_groups, 1);
    for (std::size_t i = 0; i < k_groups; ++i) dst[i] = static_cast<GroupId>(i);
    for (std::size_t i = 0; i < dest_nodes.size(); ++i) {
      dest_nodes[i] = static_cast<NodeId>(i);
    }
    RmData d;
    d.origin = 0;
    d.dest_nodes = dest_nodes;
    d.dest_seqs = dest_seqs;
    d.inner = AmSendHard{0, 42, make_msg_id(0, 1), dst};
    return encode_message(Message{d}).size();
  };
  const std::size_t s2 = encoded_size(2);
  const std::size_t s4 = encoded_size(4);
  const std::size_t s16 = encoded_size(16);
  // Linear in k: the 16-group frame is at most ~8x the 2-group frame plus
  // a constant, far below any |Π|-proportional blow-up.
  EXPECT_LT(s4, s2 * 2 + 16);
  EXPECT_LT(s16, s2 * 8 + 16);
}

TEST(MessageMinimality, ConsensusValueSizeProportionalToBatch) {
  std::vector<Tuple> one{{TupleKind::kSetHard, 0, 0, make_msg_id(1, 1), {0, 1}}};
  std::vector<Tuple> eight;
  for (int i = 0; i < 8; ++i) {
    eight.push_back({TupleKind::kSetHard, 0, 0,
                     make_msg_id(1, static_cast<std::uint32_t>(i)), {0, 1}});
  }
  EXPECT_LT(encode_tuples(eight).size(), encode_tuples(one).size() * 8 + 8);
}

}  // namespace
}  // namespace fastcast::harness
