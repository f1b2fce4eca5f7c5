#pragma once

#include <functional>

#include "fastcast/runtime/context.hpp"

/// \file leader_elector.hpp
/// Weak leader-election oracle (Ω) per group — §2.2 of the paper.
///
/// Two modes:
///   * static — the leader is fixed to member 0 ("a stable leader for each
///     group is defined prior to the execution", §5.2). No messages.
///   * heartbeat — the current leader broadcasts FdHeartbeat; a member that
///     misses heartbeats for `timeout` suspects the leader and advances the
///     epoch. Leader of epoch e is members[e mod n], the classic rotating
///     coordinator. Eventually all members converge on the same correct
///     leader, which is all Ω guarantees (and all the protocols need).
///
/// Epochs map onto Paxos ballot rounds as round = epoch + 1, so epoch 0
/// corresponds to the pre-promised stable ballot (1, members[0]).

namespace fastcast::paxos {

class LeaderElector {
 public:
  struct Config {
    GroupId group = kNoGroup;
    std::vector<NodeId> members;
    bool heartbeats = false;
    Duration heartbeat_interval = milliseconds(20);
    Duration timeout = milliseconds(100);
  };

  explicit LeaderElector(Config config);

  NodeId leader() const;
  std::uint64_t epoch() const { return epoch_; }
  bool is_self_leader(const Context& ctx) const { return leader() == ctx.self(); }

  /// Invoked whenever this node's view of the leader changes; the new
  /// epoch's ballot round is epoch + 1.
  using ChangeFn = std::function<void(Context& ctx, NodeId new_leader, std::uint64_t epoch)>;
  void set_on_change(ChangeFn fn) { on_change_ = std::move(fn); }

  void on_start(Context& ctx);

  bool handle(Context& ctx, NodeId from, const Message& msg);

 private:
  void arm_heartbeat(Context& ctx);
  void arm_monitor(Context& ctx);
  void advance_epoch(Context& ctx, std::uint64_t epoch);

  Config config_;
  /// Members without self, the heartbeat fan-out. Built on the first
  /// heartbeat, so constructing a node allocates nothing for it.
  std::vector<NodeId> peers_;
  std::uint64_t epoch_ = 0;
  Time last_heard_ = 0;
  ChangeFn on_change_;
  /// Exactly one heartbeat chain and one monitor chain may be pending at a
  /// time; advance_epoch on every re-promotion used to arm a second chain
  /// while the first was still queued, doubling heartbeat traffic forever.
  bool hb_armed_ = false;
  bool monitor_armed_ = false;
};

}  // namespace fastcast::paxos
