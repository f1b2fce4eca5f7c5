#pragma once

#include "fastcast/paxos/acceptor.hpp"
#include "fastcast/paxos/leader_elector.hpp"
#include "fastcast/paxos/learner.hpp"
#include "fastcast/paxos/proposer.hpp"
#include "fastcast/repair/repair.hpp"

/// \file group_consensus.hpp
/// The per-group uniform consensus service of §2.2: an unbounded sequence
/// of Paxos instances with ordered decision delivery, a stable leader, and
/// optional leader re-election.
///
/// Every group member is acceptor + proposer + learner; additional pure
/// learners are supported (the non-genuine protocol registers *every*
/// process in the system as a learner of its fixed ordering group, which
/// is exactly what makes it non-genuine).
///
/// propose() is leader-driven: non-leaders silently ignore it, so callers
/// simply call propose() everywhere and the current leader acts — the
/// liveness story is the oracle's, as in the paper.
///
/// Every engine also runs the group's watermark gossip (repair.hpp): it
/// prunes acceptors below the minimum settled frontier of all learners and
/// ships snapshots to lagging ones.

namespace fastcast::paxos {

class GroupConsensus {
 public:
  struct Config {
    GroupId group = kNoGroup;           ///< engine id, unique per deployment
    std::vector<NodeId> members;        ///< acceptors (2f+1)
    std::vector<NodeId> extra_learners; ///< learners beyond the members
    std::size_t window = 32;            ///< proposer pipeline depth
    bool reliable_links = true;
    Duration retry_interval = milliseconds(60);
    bool heartbeats = false;            ///< leader re-election on/off
    Duration heartbeat_interval = milliseconds(20);
    Duration election_timeout = milliseconds(100);
    repair::Options repair;             ///< gossip and transfer timings
  };

  GroupConsensus(Config config, NodeId self);

  /// Ordered decision stream (instances 0,1,2,... each exactly once).
  /// No-op gap fillers surface as empty values; callers must tolerate them.
  using DecideFn = std::function<void(InstanceId, const std::vector<std::byte>&)>;
  void set_decide(DecideFn fn);

  void on_start(Context& ctx);

  /// Installs WAL-recovered acceptor state into a fresh instance (null =
  /// nothing was recovered for this group). Also marks the engine as
  /// storage-recovered: learner/proposer state is *not* durable, so
  /// catch-up polling is armed even over reliable links to relearn decided
  /// instances from the acceptors. When the recovered state shows a prior
  /// incarnation was active, the constructor's pre-promised stable
  /// leadership no longer applies: on_start re-runs Phase 1 at a round
  /// strictly above every ballot the dead incarnation can have externalized
  /// (the promise quorum reveals its accepted instances, which are
  /// re-driven before anything new — resuming at the old ballot with reset
  /// instance tracking would overwrite slots peers already decided).
  void restore_durable(const storage::DurableState::GroupState* durable);

  /// Queues a value for some instance. Only acts on the current leader.
  void propose(Context& ctx, std::vector<std::byte> value);

  /// Routes a Paxos/FD message for this engine; false if not ours.
  bool handle(Context& ctx, NodeId from, const Message& msg);

  bool is_leader(const Context& ctx) const { return elector_.is_self_leader(ctx); }
  NodeId leader() const { return elector_.leader(); }

  /// True when a propose() on the leader would hit the wire immediately —
  /// callers use this to batch (accumulate while the window is full).
  bool window_open() const { return proposer_.window_open(); }

  /// Secondary leader-change hook for the protocol layer (the primary one
  /// drives the proposer's Phase 1 internally).
  using LeaderChangeFn = std::function<void(Context&, NodeId leader)>;
  void set_on_leader_change(LeaderChangeFn fn) { on_leader_change_ = std::move(fn); }

  /// Protocol-layer prune hook: runs on every learner, member or not, each
  /// time the repair layer applies a step of the group's prune floor (after
  /// the acceptor dropped its entries below it). Below `floor` no learner
  /// can need a decided instance again, nor anything only it referenced.
  using PruneFn = std::function<void(Context&, InstanceId floor)>;
  void set_on_prune(PruneFn fn) { on_prune_ = std::move(fn); }

  /// Protocol-layer settled view for the repair subsystem (frontier whose
  /// replay is a provable no-op + the clock as of that frontier). Unset,
  /// the learner's delivery cursor is used with a zero clock — correct
  /// only for a caller that externalizes every decision as soon as it
  /// drains.
  void set_settled_provider(std::function<repair::Settled()> fn) {
    settled_provider_ = std::move(fn);
  }

  Learner& learner() { return learner_; }
  Proposer& proposer() { return proposer_; }
  Acceptor& acceptor() { return acceptor_; }
  LeaderElector& elector() { return elector_; }
  repair::RepairCoordinator& repair() { return repair_; }
  const Config& config() const { return config_; }

 private:
  bool is_member(NodeId n) const;
  static std::vector<NodeId> all_learners(const Config& config);
  repair::RepairCoordinator::Hooks repair_hooks();
  void arm_catch_up(Context& ctx);
  void reestablish_leadership(Context& ctx);

  /// Catch-up polls back off while they make no progress; P2bMore
  /// continuation hints cover the far-behind case without blind re-polls.
  static constexpr std::uint32_t kMaxCatchUpBackoff = 8;

  Config config_;
  NodeId self_;
  /// Members without self, the catch-up fan-out. Built on the first poll,
  /// so constructing a node allocates nothing for it.
  std::vector<NodeId> peers_;
  Context* ctx_ = nullptr;  ///< bound at on_start; contexts outlive processes
  bool catch_up_armed_ = false;  ///< exactly one catch-up chain pending
  bool recovered_from_storage_ = false;  ///< fresh instance fed by restore_durable
  bool must_reestablish_ = false;  ///< durable past: Phase 1 before proposing
  std::uint32_t recover_round_ = 2;  ///< first safe round after a restart
  std::uint32_t catch_up_backoff_ = 1;      ///< retry_interval multiplier
  InstanceId catch_up_last_frontier_ = 0;   ///< progress marker for backoff
  InstanceId more_polled_ = ~InstanceId{0}; ///< last P2bMore-triggered poll
  LeaderChangeFn on_leader_change_;
  PruneFn on_prune_;
  std::function<repair::Settled()> settled_provider_;
  Acceptor acceptor_;
  Learner learner_;
  Proposer proposer_;
  LeaderElector elector_;
  repair::RepairCoordinator repair_;
};

}  // namespace fastcast::paxos
