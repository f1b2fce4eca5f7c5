#pragma once

#include <map>
#include <vector>

#include "fastcast/runtime/context.hpp"
#include "fastcast/storage/snapshot.hpp"

/// \file acceptor.hpp
/// Paxos acceptor for one group's sequence of instances.
///
/// A single promise ballot covers all instances (MultiPaxos-style), so a
/// stable leader runs Phase 1 once — or never, when the deployment
/// pre-promises the initial leader's ballot, which is how the paper's
/// prototype defines "a stable leader prior to the execution".
///
/// On accepting a value the acceptor broadcasts P2b (including the value)
/// to every learner; decisions are therefore learned two delays after the
/// proposal, the latency structure Propositions 1–2 assume.
///
/// Durability: when the context carries storage, promises and accepts are
/// logged to the WAL and the P1b/P2b replies are *gated* on the covering
/// commit — an acceptor never externalizes a promise it could forget.
/// Nacks stay ungated: they carry no promise, only advice.

namespace fastcast::paxos {

class Acceptor {
 public:
  Acceptor(GroupId group, std::vector<NodeId> learners)
      : group_(group), learners_(std::move(learners)) {}

  /// Pre-promises a ballot (stable-leader deployments). Not logged: every
  /// node derives the same initial promise from static configuration.
  void set_initial_promise(Ballot b) { promised_ = b; }

  /// Installs recovered durable state (promise + accepted values) after a
  /// real restart. Keeps the larger of the current and recovered promise,
  /// so a pre-promised initial ballot is never regressed. Instances below
  /// the recovered settled frontier count as decided: their aligning
  /// records precede the kSettled record that covers them.
  void restore(const storage::DurableState::GroupState& durable);

  void on_p1a(Context& ctx, NodeId from, const P1a& msg);
  void on_p2a(Context& ctx, NodeId from, const P2a& msg);

  /// Learner catch-up: re-sends P2b votes for accepted instances ≥
  /// msg.from_instance to the requester (bounded batch per request). When
  /// entries remain beyond the batch cap, a P2bMore continuation hint tells
  /// the requester where to re-poll instead of re-arming blindly.
  void on_p2b_request(Context& ctx, NodeId from, const P2bRequest& msg);

  /// Aligns the entry of a decided instance with its decided value, on the
  /// member's decide path (transfer installs included) and without a P2b.
  /// An entry that already holds the value keeps its ballot; a missing or
  /// different one takes the value at the round-0 sentinel ballot, logged
  /// as a kAccept record when the context carries storage. Replacing a
  /// different value is safe: every ballot above the deciding one proposes
  /// the decided value, so a Phase 1 quorum, which meets the deciding
  /// quorum, still picks it. After alignment the entries hold the decided
  /// value of every instance in [pruned_below, decided_below), which is
  /// what repair transfers are served from.
  void install(Context& ctx, InstanceId inst, const std::vector<std::byte>& value);

  /// Drops accepted entries below `floor` (group-wide settled watermark).
  /// Returns entries removed. The repair coordinator logs each advance of
  /// the floor, so recovery folds the same cut.
  std::size_t prune_below(InstanceId floor);

  Ballot promised() const { return promised_; }
  std::size_t accepted_count() const { return accepted_.size(); }
  InstanceId pruned_below() const { return pruned_below_; }

  /// The ballot an entry was accepted at and its value; the WAL fold keeps
  /// the same shape.
  using AcceptedValue = storage::DurableState::Accepted;
  const std::map<InstanceId, AcceptedValue>& accepted() const {
    return accepted_;
  }

 private:
  GroupId group_;
  std::vector<NodeId> learners_;
  Ballot promised_;
  std::map<InstanceId, AcceptedValue> accepted_;
  InstanceId pruned_below_ = 0;
  /// Instances below this are decided and aligned (see install).
  InstanceId decided_below_ = 0;
};

}  // namespace fastcast::paxos
