#pragma once

#include <deque>
#include <map>
#include <vector>

#include "fastcast/amcast/atomic_multicast.hpp"
#include "fastcast/amcast/delivery_buffer.hpp"
#include "fastcast/flow/overload.hpp"
#include "fastcast/paxos/group_consensus.hpp"
#include "fastcast/rmcast/reliable_multicast.hpp"

/// \file timestamp_base.hpp
/// Shared machinery of the two timestamp-based genuine protocols.
///
/// BaseCast and FastCast differ only in the fast path (soft timestamps and
/// Task 6 matching); everything else — the hard logical clock CH, the
/// ToOrder/Ordered bookkeeping, leader-driven batched proposals, SET-HARD
/// handling, SYNC-HARD application and the delivery buffer — is identical
/// and lives here.
///
/// The paper's ToOrder and Ordered only ever grow. Here they are kept per
/// message, in the message's DeliveryBuffer record, and retire with its
/// delivery. Events that arrive after the delivery are answered by the
/// buffer's delivered rule: a late START, SEND-SOFT or SEND-HARD is
/// dropped, a decided SET-HARD is skipped (its first decision precedes the
/// delivery, so Ordered would have skipped it too), and a decided SYNC-SOFT
/// or SYNC-HARD only applies Lamport's rule to CH, which is idempotent.
///
/// Deviations from the pseudocode, standard for practical deployments and
/// documented in DESIGN.md:
///   * only the group leader proposes (Task 3/4 "when ToOrder\Ordered≠∅"
///     runs at every process in the paper; with Paxos that just produces
///     collisions) — staged tuples are re-proposed on leader change and,
///     when links are lossy or heartbeats elect leaders, on a periodic tick;
///   * SEND-HARD is transmitted by the leader only (the pseudocode has
///     every member send it); the hard timestamp is deterministic across
///     members, so receivers cannot observe the difference except in
///     message counts. A new leader re-sends pending SEND-HARDs so the slow
///     path survives leader crashes.

namespace fastcast {

class TimestampProtocolBase : public AtomicMulticast {
 public:
  struct Config {
    GroupId group = kNoGroup;
    /// Also decides the reliable multicast's link model: both layers use
    /// consensus.reliable_links. Lossy links or heartbeats arm the periodic
    /// re-propose tick that liveness then needs.
    paxos::GroupConsensus::Config consensus;
    RmConfig::Relay relay = RmConfig::Relay::kNone;

    /// Overload detection (DESIGN.md §14). Genuine protocols CANNOT shed a
    /// message once it is reliably multicast — a tentative timestamp staged
    /// in one destination group that never finalizes would stall every
    /// other group's delivery buffer — so when the group leader detects
    /// overload it sends an *advisory* Busy to the message's sender (the
    /// message is still processed in full) and the client throttles.
    flow::Options flow;
  };

  TimestampProtocolBase(Config config, NodeId self);

  void on_start(Context& ctx) override;
  void restore_durable(const storage::DurableState& durable) override;
  paxos::GroupConsensus* consensus_engine() override { return &cons_; }
  bool handle(Context& ctx, NodeId from, const Message& msg) override;

  // Introspection (tests, stats).
  const DeliveryBuffer& buffer() const { return buffer_; }
  Ts hard_clock() const { return ch_; }

  /// Settled frontier for the repair subsystem: every instance below it
  /// only touches locally delivered messages, so replaying it against the
  /// durable delivered set is a provable no-op and recovery may skip it.
  InstanceId settled_frontier() const {
    return settle_pending_.empty() ? settle_frontier_
                                   : settle_pending_.begin()->first;
  }
  /// CH exactly as it stood once every instance below settled_frontier()
  /// had applied. A restart resumes there with this clock, so replaying the
  /// later instances assigns the same hard timestamps the group did.
  Ts settled_clock() const {
    return settle_pending_.empty() ? ch_
                                   : settle_pending_.begin()->second.clock_before;
  }

  std::size_t unordered_count() const { return unordered_count_; }
  /// Tuples queued for the next proposal (the leader's only).
  std::size_t staged_count() const { return staged_.size(); }
  paxos::GroupConsensus& consensus() { return cons_; }
  /// Overload detector (tests / diagnostics).
  const flow::OverloadController& overload() const { return overload_; }

 protected:
  /// Reliable-multicast delivery (START / SEND-SOFT / SEND-HARD).
  virtual void on_rdeliver(Context& ctx, NodeId origin, const AmcastPayload& payload) = 0;

  /// Applies one consensus-ordered tuple (Task 4 / Task 5 body).
  virtual void apply_tuple(Context& ctx, const Tuple& tuple) = 0;

  /// Invoked on the leader just before a batch is proposed — FastCast's
  /// soft-timestamp logic (Algorithm 2, Task 4) hooks in here.
  virtual void before_propose(Context& ctx, const std::vector<Tuple>& batch) {
    (void)ctx;
    (void)batch;
  }

  /// Adds a tuple to ToOrder unless its message already knows it or was
  /// delivered, and queues it for proposal.
  void stage(Context& ctx, const Tuple& tuple);

  /// Adds a tuple to ToOrder *without* queueing it; false when its message
  /// was delivered or already knows it. FastCast defers SYNC-HARDs whose
  /// SYNC-SOFT is still in flight, since a Task-6 match makes the second
  /// consensus unnecessary. The repropose tick still covers deferred
  /// tuples (liveness backstop).
  bool track(const Tuple& tuple);

  /// Queues a known-but-unordered tuple for the leader's next proposal.
  void queue(Context& ctx, const TupleId& id);

  /// The tuple's state in its message's record; null if unknown.
  TupleState* find_tuple(const TupleId& id);

  /// Moves a tuple of `rec` into Ordered; false if it already was there.
  bool mark_ordered(DeliveryBuffer::Record& rec, TupleKind kind, GroupId group);

  /// Shared SET-HARD handling: advances CH, emits SEND-HARD + placeholder
  /// for global messages, forms the final entry for local ones.
  void handle_set_hard(Context& ctx, const Tuple& tuple);

  /// Shared SYNC-HARD handling: Lamport update + buffer insertion.
  void handle_sync_hard(Context& ctx, const Tuple& tuple);

  /// Removes own-group pending state once the group's SYNC-HARD is ordered.
  void settle_own_hard(Context& ctx, MsgId mid);

  Config cfg_;
  NodeId self_;
  ReliableMulticast rm_;
  paxos::GroupConsensus cons_;
  DeliveryBuffer buffer_;
  Ts ch_ = 0;  ///< hard logical clock CH

 private:
  void flush(Context& ctx);
  void on_decide(Context& ctx, InstanceId inst, const std::vector<std::byte>& value);
  void advance_clock(const Tuple& tuple);
  void restage_all(Context& ctx);
  void arm_repropose(Context& ctx);
  void retire(const DeliveryBuffer::Record& rec);
  void maybe_advise(Context& ctx, const MulticastMessage& msg);

  std::size_t unordered_count_ = 0;  ///< |ToOrder \ Ordered| over all records
  std::vector<TupleId> staged_;      ///< leader: to include in the next proposal
  /// Settled tracking: an instance is settled once every message its
  /// tuples touch is locally delivered (the delivered rule then makes every
  /// replayed side effect a no-op; CH advancement is covered by the
  /// settled-clock record). Each record lists the instances it pins.
  struct Unsettled {
    std::size_t pins = 0;  ///< undelivered messages the instance touches
    Ts clock_before = 0;   ///< CH just before the instance applied
  };
  InstanceId settle_frontier_ = 0;  ///< next instance past contiguous decides
  std::map<InstanceId, Unsettled> settle_pending_;
  bool repropose_armed_ = false;
  Context* decide_ctx_ = nullptr;  ///< bound at on_start

  // Overload detection: the propose→decide round trip of the group's own
  // consensus is the sojourn signal (tracked on the leader only).
  flow::OverloadController overload_;
  std::deque<Time> proposed_at_;
};

}  // namespace fastcast
